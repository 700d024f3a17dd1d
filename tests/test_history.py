"""Tests for repro.history: time travel, the cold store, and analytics.

Covers the as-of read path (bit-identity with offline WAL-prefix replay,
LRU cache, range errors), the SQLite cold store (idempotent checksummed
epoch appends, knob guard), the indexer (resume idempotency), the
window-function queries with keyset-cursor pagination, the streaming WAL
scanner satellite, and the HTTP surface (``?asof=``, ``cursor=``,
``/v1/history/...``, the new ``/healthz`` fields).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.api.events import InsertBatch
from repro.errors import AsofRangeError, ConfigError, HistoryError
from repro.graph.delta import EdgeUpdate
from repro.history import HistoryConfig
from repro.history.asof import AsofService
from repro.history.cursor import cursor_int, decode_cursor, encode_cursor
from repro.history.indexer import HistoryIndexer, resolve_db_path
from repro.history.queries import (
    community_timeline,
    epochs_page,
    vertex_first_entry,
    vertex_history,
)
from repro.history.store import HISTORY_FILENAME, HistoryStore, connect
from repro.serve.app import ServeApp
from repro.serve.config import ServeConfig
from repro.serve.wal import WriteAheadLog, iter_ops, scan_ops


@pytest.fixture(autouse=True)
def _single_backend_leg(graph_backend):
    if graph_backend != "array":
        pytest.skip("history pins backend='array'; one leg is enough")


def serve_config(tmp_path, **overrides) -> EngineConfig:
    knobs = {
        "port": 0,
        "wal_dir": str(tmp_path / "wal"),
        "fsync": False,
    }
    knobs.update(overrides)
    return EngineConfig(semantics="DW", backend="array", serve=ServeConfig(**knobs))


def drive(app: ServeApp, requests):
    """Start ``app``, issue HTTP requests over one keep-alive connection.

    A request may also be the string ``"poke-indexer"`` — runs one
    deterministic indexer step in place of an HTTP round trip (appends
    ``None`` to the results to keep indices aligned).
    """

    async def _drive():
        await app.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.server.port
            )
            results = []
            for item in requests:
                if item == "poke-indexer":
                    await app._indexer_task.poke()
                    results.append(None)
                    continue
                method, path, body = item
                payload = b"" if body is None else json.dumps(body).encode()
                head = (
                    f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                )
                writer.write(head.encode() + payload)
                await writer.drain()
                status_line = (await reader.readline()).decode()
                headers = {}
                while True:
                    line = (await reader.readline()).decode().strip()
                    if not line:
                        break
                    name, _, value = line.partition(":")
                    headers[name.lower()] = value.strip()
                data = await reader.readexactly(int(headers["content-length"]))
                body_out = (
                    json.loads(data)
                    if "json" in headers.get("content-type", "")
                    else data.decode()
                )
                results.append((int(status_line.split()[1]), body_out))
            writer.close()
            return results
        finally:
            await app.stop()

    return asyncio.run(_drive())


def offline_replay_prefix(wal_dir, max_seq):
    """A fresh client replayed through the WAL prefix with seq <= max_seq."""
    ops, _, corruption = scan_ops(WriteAheadLog.path_in(wal_dir))
    assert corruption is None
    client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
    client.load([])
    for seq, op in ops:
        if seq > max_seq:
            break
        client.apply([op])
    return client


# ---------------------------------------------------------------------- #
# HistoryConfig
# ---------------------------------------------------------------------- #
class TestHistoryConfig:
    def test_defaults_validate(self):
        config = HistoryConfig()
        assert config.db_path is None
        assert config.epoch_interval == 64

    @pytest.mark.parametrize(
        "bad",
        [
            {"epoch_interval": 0},
            {"poll_ms": 0},
            {"asof_cache_size": 0},
            {"max_instances": 0},
            {"min_density": -0.5},
            {"min_size": 0},
            {"db_path": 7},
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ConfigError):
            HistoryConfig(**bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown HistoryConfig keys"):
            HistoryConfig.from_dict({"epoch_intervall": 5})

    def test_nested_round_trip_through_engine_config(self):
        config = EngineConfig(
            serve={"wal_dir": "/tmp/w", "history": {"epoch_interval": 7}}
        )
        assert isinstance(config.serve.history, HistoryConfig)
        assert config.serve.history.epoch_interval == 7
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_serve_history_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ServeConfig(history=42)

    def test_resolve_db_path(self, tmp_path):
        assert resolve_db_path(tmp_path, HistoryConfig()) == tmp_path / HISTORY_FILENAME
        explicit = HistoryConfig(db_path=str(tmp_path / "x.sqlite"))
        assert resolve_db_path(tmp_path, explicit) == tmp_path / "x.sqlite"


# ---------------------------------------------------------------------- #
# Cursor tokens
# ---------------------------------------------------------------------- #
class TestCursor:
    def test_round_trip(self):
        token = encode_cursor("communities", rank=4)
        position = decode_cursor(token, "communities")
        assert cursor_int(position, "rank") == 4

    def test_garbage_rejected(self):
        with pytest.raises(HistoryError):
            decode_cursor("!!!not-base64!!!", "communities")

    def test_kind_mismatch_rejected(self):
        token = encode_cursor("epochs", seq=10)
        with pytest.raises(HistoryError, match="not a 'communities' cursor"):
            decode_cursor(token, "communities")

    def test_non_integer_field_rejected(self):
        token = encode_cursor("communities", rank="four")
        with pytest.raises(HistoryError):
            cursor_int(decode_cursor(token, "communities"), "rank")


# ---------------------------------------------------------------------- #
# Streaming WAL scan (satellite: iter_ops / scan_ops equivalence)
# ---------------------------------------------------------------------- #
def _write_wal(tmp_path, num_ops):
    wal = WriteAheadLog(tmp_path, fsync=False)
    for i in range(num_ops):
        wal.append_op(InsertBatch((EdgeUpdate(f"s{i}", f"d{i}", 1.0),)))
    wal.close()
    return WriteAheadLog.path_in(tmp_path)


class TestIterOps:
    def test_matches_scan_ops_clean(self, tmp_path):
        path = _write_wal(tmp_path, 7)
        scan = iter_ops(path)
        streamed = list(scan)
        ops, offset, corruption = scan_ops(path)
        assert [s for s, _ in streamed] == [s for s, _ in ops] == list(range(1, 8))
        assert scan.next_offset == offset == path.stat().st_size
        assert scan.corruption is None and corruption is None

    def test_torn_final_line_is_clean_stop(self, tmp_path):
        path = _write_wal(tmp_path, 3)
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"seq": 4, "torn')  # no newline: crash residue
        scan = iter_ops(path)
        assert len(list(scan)) == 3
        assert scan.corruption is None
        assert scan.next_offset == len(whole)

    def test_midfile_garbage_is_corruption(self, tmp_path):
        path = _write_wal(tmp_path, 3)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"garbage line\n" + lines[1] + lines[2])
        scan = iter_ops(path)
        assert len(list(scan)) == 1
        assert scan.corruption is not None
        _, _, corruption = scan_ops(path)
        assert corruption == scan.corruption

    def test_offset_resume(self, tmp_path):
        path = _write_wal(tmp_path, 5)
        first = iter_ops(path)
        seqs = [next(first)[0], next(first)[0]]
        first.close()
        resumed = iter_ops(path, first.next_offset)
        assert seqs + [s for s, _ in resumed] == list(range(1, 6))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        scan = iter_ops(path)
        assert list(scan) == []
        assert scan.next_offset == 0


# ---------------------------------------------------------------------- #
# The cold store
# ---------------------------------------------------------------------- #
EPOCH_A = [(0, 2.5, ["a", "b", "c"]), (1, 1.25, ["d", "e"])]
EPOCH_B = [(0, 3.5, ["a", "b"])]


class TestHistoryStore:
    def test_record_is_idempotent(self, tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as store:
            assert store.record_epoch(10, 5, 6, EPOCH_A) is True
            assert store.record_epoch(10, 5, 6, EPOCH_A) is False
            assert store.epoch_count() == 1
            assert store.epoch_seqs() == [10]

    def test_checksum_divergence_raises(self, tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as store:
            store.record_epoch(10, 5, 6, EPOCH_A)
            with pytest.raises(HistoryError, match="checksum"):
                store.record_epoch(10, 5, 6, EPOCH_B)

    def test_verify_epoch_detects_tampering(self, tmp_path):
        path = tmp_path / "h.sqlite"
        with HistoryStore(path) as store:
            store.record_epoch(10, 5, 6, EPOCH_A)
            assert store.verify_epoch(10) is True
            store.conn.execute(
                "UPDATE communities SET density = 9.9 WHERE epoch_seq = 10 AND rank = 0"
            )
            store.conn.commit()
            assert store.verify_epoch(10) is False

    def test_vertex_spans_maintained(self, tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as store:
            store.record_epoch(10, 5, 6, EPOCH_A)
            store.record_epoch(20, 5, 7, EPOCH_B)
            rows = dict(
                (v, (f, l, n))
                for v, f, l, n in store.conn.execute(
                    "SELECT vertex, first_seq, last_seq, dense_epochs FROM vertex_spans"
                )
            )
            assert rows["a"] == (10, 20, 2)
            assert rows["d"] == (10, 10, 1)

    def test_meta_guard_refuses_knob_change(self, tmp_path):
        path = tmp_path / "h.sqlite"
        with HistoryStore(path) as store:
            store.ensure_meta({"epoch_interval": 8})
        with HistoryStore(path) as store:
            store.ensure_meta({"epoch_interval": 8})  # unchanged: fine
            with pytest.raises(HistoryError, match="different knobs"):
                store.ensure_meta({"epoch_interval": 16})


# ---------------------------------------------------------------------- #
# Analytics queries
# ---------------------------------------------------------------------- #
@pytest.fixture()
def populated_store(tmp_path):
    path = tmp_path / "h.sqlite"
    with HistoryStore(path) as store:
        store.record_epoch(10, 6, 4, [(0, 1.0, ["a", "b", "c"])])
        store.record_epoch(20, 8, 9, [(0, 2.0, ["a", "b"]), (1, 0.5, ["c", "d"])])
        store.record_epoch(30, 9, 12, [(0, 3.5, ["a", "b", "d"])])
        store.record_epoch(40, 9, 14, [(0, 3.0, ["b", "d"])])
    conn = connect(path)
    yield conn
    conn.close()


class TestQueries:
    def test_vertex_first_entry(self, populated_store):
        first = vertex_first_entry(populated_store, "d")
        assert first["first_seq"] == 20 and first["rank"] == 1
        assert first["dense_epochs"] == 3
        assert vertex_first_entry(populated_store, "zz") is None
        # Thresholds move the first entry.
        dense = vertex_first_entry(populated_store, "d", min_density=1.0)
        assert dense["first_seq"] == 30

    def test_vertex_history_pagination_preserves_lag(self, populated_store):
        page1 = vertex_history(populated_store, "a", limit=2)
        assert [r["epoch_seq"] for r in page1["appearances"]] == [10, 20]
        assert page1["has_more"] is True
        page2 = vertex_history(populated_store, "a", cursor=page1["next_cursor"], limit=2)
        assert [r["epoch_seq"] for r in page2["appearances"]] == [30]
        # The LAG gap at the page boundary sees across the cursor: the
        # window runs over the full history, not the page.
        assert page2["appearances"][0]["seqs_since_prev"] == 10
        assert page2["has_more"] is False and page2["next_cursor"] is None

    def test_community_timeline_deltas_across_pages(self, populated_store):
        page1 = community_timeline(populated_store, rank=0, limit=2)
        assert [r["epoch_seq"] for r in page1["timeline"]] == [10, 20]
        assert page1["timeline"][0]["density_delta"] is None
        assert page1["timeline"][1]["density_delta"] == 1.0
        page2 = community_timeline(
            populated_store, rank=0, cursor=page1["next_cursor"], limit=2
        )
        assert [r["epoch_seq"] for r in page2["timeline"]] == [30, 40]
        assert page2["timeline"][0]["density_delta"] == 1.5  # 3.5 - 2.0, cross-page
        assert page2["timeline"][1]["size_delta"] == -1

    def test_epochs_page(self, populated_store):
        page = epochs_page(populated_store, limit=3)
        assert [r["seq"] for r in page["epochs"]] == [10, 20, 30]
        assert page["has_more"] is True
        rest = epochs_page(populated_store, cursor=page["next_cursor"], limit=3)
        assert [r["seq"] for r in rest["epochs"]] == [40]
        assert rest["has_more"] is False


# ---------------------------------------------------------------------- #
# As-of reads
# ---------------------------------------------------------------------- #
def _ingest_requests(rows, chunk=1):
    return [
        ("POST", "/v1/edges", {"edges": [list(r) for r in rows[i : i + chunk]]})
        for i in range(0, len(rows), chunk)
    ]


#: Fresh-directory counter for the hypothesis property test — examples with
#: identical draws must not share (and thus re-recover) a WAL directory.
_WAL_DIRS = itertools.count()

ROWS = [
    ["u1", "v1", 4.0], ["u2", "v1", 2.0], ["u1", "v2", 8.0],
    ["u3", "v3", 1.0], ["u2", "v2", 6.0], ["u4", "v1", 3.0],
    ["u3", "v1", 5.0], ["u1", "v3", 2.0], ["u5", "v5", 1.0],
    ["u4", "v4", 7.0], ["u2", "v3", 3.0], ["u5", "v2", 4.0],
]


class TestAsofHttp:
    def test_edge_cases_and_cache(self, tmp_path):
        config = serve_config(tmp_path, checkpoint_interval=4)
        app = ServeApp(config)
        results = drive(
            app,
            _ingest_requests(ROWS)
            + [
                ("GET", "/v1/detect?asof=0", None),
                ("GET", "/v1/detect?asof=5", None),
                ("GET", "/v1/detect?asof=5", None),  # cached
                ("GET", f"/v1/detect?asof={len(ROWS)}", None),
                ("GET", "/v1/detect", None),
                ("GET", f"/v1/detect?asof={len(ROWS) + 1}", None),
                ("GET", "/v1/detect?asof=-1", None),
                ("GET", "/v1/detect?asof=x", None),
                ("GET", "/healthz", None),
                ("GET", "/metrics", None),
            ],
        )
        n = len(ROWS)
        empty = results[n][1]
        assert results[n][0] == 200 and empty["asof"] == 0
        assert empty["community"] == [] and empty["edges"] == 0
        assert results[n + 1][0] == results[n + 2][0] == 200
        assert results[n + 1][1] == results[n + 2][1]
        at_head, live = results[n + 3][1], results[n + 4][1]
        assert at_head["asof"] == n
        for key in ("community", "density", "peel_index", "vertices", "edges"):
            assert at_head[key] == live[key], key
        assert results[n + 5][0] == 400  # beyond head
        assert "outside the WAL range" in results[n + 5][1]["error"]
        assert results[n + 6][0] == 400  # negative
        assert results[n + 7][0] == 400  # not an integer
        health = results[n + 8][1]
        assert health["wal_seq"] == n
        assert health["checkpoint_seq"] == 12  # last multiple of 4 edges
        cache = health["asof_cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 3
        # asof=5 resumed the cursor asof=0 left (same base, checkpoint 0);
        # asof=12 sits on its own checkpoint and rebuilt.
        assert cache["resumes"] == 1
        assert cache["replayed_ops"] == 5
        assert "repro_asof_resumes_total 1" in results[n + 9][1].splitlines()

    def test_asof_without_wal_dir_is_400(self):
        config = EngineConfig(
            semantics="DW", backend="array", serve=ServeConfig(port=0)
        )
        app = ServeApp(config)
        results = drive(app, [("GET", "/v1/detect?asof=0", None)])
        assert results[0][0] == 400
        assert "WAL directory" in results[0][1]["error"]

    def test_asof_exactly_at_checkpoint_seq(self, tmp_path):
        config = serve_config(tmp_path, checkpoint_interval=4)
        app = ServeApp(config)
        results = drive(
            app,
            _ingest_requests(ROWS)
            + [("GET", "/v1/detect?asof=4", None), ("GET", "/healthz", None)],
        )
        report = results[len(ROWS)][1]
        assert report["asof"] == 4
        offline = offline_replay_prefix(tmp_path / "wal", 4).detect()
        assert report["community"] == sorted(map(str, offline.vertices))
        assert report["density"] == offline.density

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_asof_bit_identical_to_offline_prefix_replay(self, tmp_path, data):
        """detect?asof=S == offline replay of WAL prefix <= S, any S.

        checkpoint_interval=3 cuts several checkpoints across the run
        (keep=2 prunes the middle ones; checkpoint zero survives), so the
        drawn sequences land before, between, at, and after checkpoint
        boundaries — the reconstruction must be exact from every anchor.
        """
        num = data.draw(st.integers(min_value=1, max_value=len(ROWS)), label="events")
        asof_points = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num), min_size=1, max_size=4
            ),
            label="asof",
        )
        wal_dir = tmp_path / f"wal-{next(_WAL_DIRS)}"
        config = EngineConfig(
            semantics="DW",
            backend="array",
            serve=ServeConfig(
                port=0, wal_dir=str(wal_dir), fsync=False,
                checkpoint_interval=3,
            ),
        )
        app = ServeApp(config)
        queries = [("GET", f"/v1/detect?asof={s}", None) for s in asof_points]
        results = drive(app, _ingest_requests(ROWS[:num]) + queries)
        for s, (status, report) in zip(asof_points, results[num:]):
            assert status == 200
            offline = offline_replay_prefix(wal_dir, s).detect()
            assert report["community"] == sorted(map(str, offline.vertices)), s
            assert report["density"] == offline.density, s
            assert report["peel_index"] == offline.peel_index, s


class TestAsofService:
    def test_range_errors(self, tmp_path):
        config = serve_config(tmp_path)
        app = ServeApp(config)
        drive(app, _ingest_requests(ROWS[:3]))
        service = AsofService(config)
        assert service.head_seq() == 3
        with pytest.raises(AsofRangeError):
            service.state_at(4, head=3)
        with pytest.raises(AsofRangeError):
            service.state_at(-1, head=3)

    def test_lru_eviction(self, tmp_path):
        config = serve_config(tmp_path)
        app = ServeApp(config)
        drive(app, _ingest_requests(ROWS[:4]))
        service = AsofService(config, cache_size=2)
        for seq in (1, 2, 3):
            service.state_at(seq, head=4)
        assert service.cache_stats()["size"] == 2
        service.state_at(1, head=4)  # evicted: a miss again
        assert service.misses == 4 and service.hits == 0


    @pytest.mark.parametrize("semantics", ["DW", "FD"])
    def test_cached_detect_is_a_lookup_and_seeded_enumeration_is_identical(
        self, tmp_path, semantics
    ):
        # DW caches the replayed engine's community; FD, whose maintained
        # sequence is not the static one, caches one peel of the snapshot.
        from repro.core.enumeration import enumerate_csr
        from repro.peeling.static import peel_csr
        from tests.helpers import peel_phase_calls

        config = serve_config(tmp_path, checkpoint_interval=4).replace(semantics=semantics)
        app = ServeApp(config)
        drive(app, _ingest_requests(ROWS))
        service = AsofService(config)
        head = len(ROWS)

        for seq in (3, 7, head):
            cold = service.detect_at(seq, head)
            before = peel_phase_calls()
            cached = service.detect_at(seq, head)
            assert peel_phase_calls() == before, "a cached as-of detect must not peel"
            assert cached == cold
            snapshot, community = service.state_at(seq, head)
            fresh = peel_csr(snapshot, semantics)
            assert cold["community"] == sorted(map(str, fresh.community))
            assert cold["density"] == fresh.best_density
            assert cold["peel_index"] == fresh.best_index
            assert enumerate_csr(snapshot, first=community.vertices) == enumerate_csr(snapshot)
        assert service.hits >= 3


#: 24 single-row posts with checkpoint_interval=5: checkpoints 0, 15 and
#: 20 survive pruning, so reads land on three different bases.  The second
#: half's weights are not dyadic, so a replay carried past a newer
#: checkpoint drifts by an ulp from the rebuild the cold path does.
CURSOR_ROWS = ROWS + [[dst, src, weight * 0.1 + 0.7] for src, dst, weight in ROWS]


def _asof_answer(service, seq, head):
    snapshot, community = service.state_at(seq, head)
    arrays = [
        getattr(snapshot, field).tolist()
        for field in ("order", "member", "vertex_weights", "out_neighbors",
                      "out_weights", "in_neighbors", "in_weights")
    ]
    return tuple(community), snapshot.labels, arrays


@pytest.fixture(scope="module")
def cursor_wal(tmp_path_factory):
    """``(config, head, cold)``: a WAL and each sequence's cold answer."""
    config = serve_config(tmp_path_factory.mktemp("cursor"), checkpoint_interval=5)
    drive(ServeApp(config), _ingest_requests(CURSOR_ROWS))
    head = len(CURSOR_ROWS)
    cold = {
        seq: _asof_answer(AsofService(config, cache_size=1), seq, head)
        for seq in range(head + 1)
    }
    return config, head, cold


class TestReplayCursor:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        reads=st.lists(
            st.integers(min_value=0, max_value=len(CURSOR_ROWS)), min_size=1, max_size=12
        )
    )
    def test_answers_do_not_depend_on_read_order(self, cursor_wal, reads):
        config, head, cold = cursor_wal
        service = AsofService(config, cache_size=1)  # every new seq misses
        for seq in reads:
            assert _asof_answer(service, seq, head) == cold[seq], seq

    def test_forward_read_replays_only_the_gap(self, cursor_wal):
        config, head, cold = cursor_wal
        service = AsofService(config, cache_size=1)
        for start, end in ((2, 9), (9, 14), (15, 19), (20, 24)):
            service.state_at(start, head)
            before = service.cache_stats()
            assert _asof_answer(service, end, head) == cold[end]
            after = service.cache_stats()
            assert after["resumes"] == before["resumes"] + 1
            assert after["replayed_ops"] - before["replayed_ops"] == end - start
        # Backwards (and onto an older base) rebuilds from checkpoint zero.
        before = service.cache_stats()
        assert _asof_answer(service, 3, head) == cold[3]
        after = service.cache_stats()
        assert after["resumes"] == before["resumes"]
        assert after["replayed_ops"] - before["replayed_ops"] == 3

    def test_concurrent_cold_reads_get_cold_answers(self, cursor_wal):
        config, head, cold = cursor_wal
        service = AsofService(config, cache_size=1)
        service.state_at(1, head)  # a cursor for the two readers to race for
        for pair in ((7, 12), (13, 3), (18, 22), (24, 6), (8, 11)):
            barrier = threading.Barrier(len(pair))
            answers = {}

            def read(seq):
                barrier.wait()
                answers[seq] = _asof_answer(service, seq, head)

            threads = [threading.Thread(target=read, args=(seq,)) for seq in pair]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for seq in pair:
                assert answers[seq] == cold[seq], seq


# ---------------------------------------------------------------------- #
# The indexer
# ---------------------------------------------------------------------- #
class TestIndexer:
    def _wal_with_edges(self, tmp_path, num=12):
        config = serve_config(tmp_path, checkpoint_interval=5)
        drive(ServeApp(config), _ingest_requests(ROWS[:num]))
        return config

    def test_index_and_resume_idempotent(self, tmp_path):
        config = self._wal_with_edges(tmp_path)
        history = HistoryConfig(epoch_interval=4)
        wal_dir = tmp_path / "wal"
        indexer = HistoryIndexer(wal_dir, history, config=config)
        report = indexer.step()
        assert report["new_epochs"] == 3
        assert report["last_indexed_seq"] == 12
        # A fresh indexer (new process after a crash) re-derives nothing.
        again = HistoryIndexer(wal_dir, history, config=config)
        report2 = again.step()
        assert report2["new_epochs"] == 0
        assert report2["last_indexed_seq"] == 12
        with HistoryStore(resolve_db_path(wal_dir, history)) as store:
            assert store.epoch_seqs() == [4, 8, 12]
            assert all(store.verify_epoch(s) for s in (4, 8, 12))

    def test_incremental_steps_only_index_new_epochs(self, tmp_path):
        config = serve_config(tmp_path, checkpoint_interval=5)
        history = HistoryConfig(epoch_interval=3)
        wal_dir = tmp_path / "wal"
        drive(ServeApp(config), _ingest_requests(ROWS[:6]))
        indexer = HistoryIndexer(wal_dir, history, config=config)
        assert indexer.step()["new_epochs"] == 2  # seqs 3, 6
        drive(ServeApp(config), _ingest_requests(ROWS[6:12]))
        report = indexer.step()  # resident client tails the suffix
        assert report["new_epochs"] == 2  # seqs 9, 12
        assert report["last_indexed_seq"] == 12

    def test_knob_change_refused(self, tmp_path):
        config = self._wal_with_edges(tmp_path)
        wal_dir = tmp_path / "wal"
        HistoryIndexer(wal_dir, HistoryConfig(epoch_interval=4), config=config).step()
        with pytest.raises(HistoryError, match="different knobs"):
            HistoryIndexer(
                wal_dir, HistoryConfig(epoch_interval=6), config=config
            ).step()

    def test_epochs_match_offline_enumeration(self, tmp_path):
        config = self._wal_with_edges(tmp_path)
        wal_dir = tmp_path / "wal"
        history = HistoryConfig(epoch_interval=6, min_size=2)
        HistoryIndexer(wal_dir, history, config=config).step()
        offline = offline_replay_prefix(wal_dir, 6)
        expected = [
            (i.rank, i.density, sorted(map(str, i.vertices)))
            for i in offline.communities(max_instances=history.max_instances)
        ]
        with connect(resolve_db_path(wal_dir, history)) as conn:
            rows = []
            for rank, density in conn.execute(
                "SELECT rank, density FROM communities WHERE epoch_seq = 6 ORDER BY rank"
            ):
                vertices = [
                    v
                    for (v,) in conn.execute(
                        "SELECT vertex FROM memberships WHERE epoch_seq = 6 "
                        "AND rank = ? ORDER BY vertex",
                        (rank,),
                    )
                ]
                rows.append((rank, density, vertices))
        assert rows == expected


# ---------------------------------------------------------------------- #
# HTTP surface: /v1/history + cursor pagination + healthz wiring
# ---------------------------------------------------------------------- #
class TestHistoryHttp:
    def test_disabled_answers_404(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        results = drive(app, [("GET", "/v1/history/epochs", None)])
        assert results[0][0] == 404
        assert "not enabled" in results[0][1]["error"]

    def test_endpoints_over_live_indexer(self, tmp_path):
        config = serve_config(
            tmp_path,
            checkpoint_interval=5,
            history=HistoryConfig(epoch_interval=4, poll_ms=10000.0),
        )
        app = ServeApp(config)
        results = drive(
            app,
            _ingest_requests(ROWS)
            + [
                "poke-indexer",
                ("GET", "/v1/history/epochs", None),
                ("GET", "/v1/history/communities?rank=0&limit=2", None),
                ("GET", "/v1/history/vertices/u1?limit=2", None),
                ("GET", "/healthz", None),
            ],
        )
        n = len(ROWS) + 1
        status, epochs = results[n]
        assert status == 200
        assert [e["seq"] for e in epochs["epochs"]] == [4, 8, 12]
        status, timeline = results[n + 1]
        assert status == 200
        assert [t["epoch_seq"] for t in timeline["timeline"]] == [4, 8]
        assert timeline["has_more"] is True
        status, vertex = results[n + 2]
        assert status == 200
        assert vertex["vertex"] == "u1"
        assert vertex["first_entry"] is not None
        health = results[n + 3][1]
        assert health["history"]["last_indexed_seq"] == 12
        assert health["history"]["last_error"] is None
        assert health["history"]["db_path"].endswith(HISTORY_FILENAME)

    def test_cursor_pagination_walks_all_communities(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        ingest = _ingest_requests(ROWS)
        results = drive(
            app, ingest + [("GET", "/v1/communities?limit=100&min_size=2", None)]
        )
        full = results[len(ingest)][1]["communities"]
        assert len(full) >= 2  # the workload must actually paginate

        walked = []
        token = None
        for _ in range(len(full) + 1):
            path = "/v1/communities?limit=1&min_size=2" + (
                f"&cursor={token}" if token else ""
            )
            # A fresh app per page: the cursor must survive recovery, not
            # just live process state.
            status, page = drive(ServeApp(serve_config(tmp_path)), [("GET", path, None)])[0]
            assert status == 200
            walked.extend(page["communities"])
            if not page["has_more"]:
                assert page["next_cursor"] is None
                break
            token = page["next_cursor"]
        assert walked == full

    def test_offset_mode_still_works(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        ingest = _ingest_requests(ROWS)
        results = drive(
            app,
            ingest
            + [
                ("GET", "/v1/communities?limit=1&min_size=2", None),
                ("GET", "/v1/communities?offset=1&limit=1&min_size=2", None),
                ("GET", "/v1/communities?limit=2&min_size=2", None),
            ],
        )
        n = len(ingest)
        first, second, both = (results[n + i][1] for i in range(3))
        assert first["offset"] == 0 and second["offset"] == 1
        assert first["communities"] + second["communities"] == both["communities"]

    def test_bad_cursor_is_400(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        results = drive(app, [("GET", "/v1/communities?cursor=@@@", None)])
        assert results[0][0] == 400
