"""Fault-injection and hardening tests (``repro.serve.faults`` + friends).

The robustness contract under test:

* fault plans are validated, deterministic, and per-site counted;
* a failed WAL append consumes no sequence number and leaves no torn
  bytes behind once the next append self-repairs the tail;
* recovery stops at the **first invalid record past the last
  checkpoint** (CRC mismatch, flipped bit, regressed seq) and reports
  the boundary instead of silently diverging — and the recovered state
  equals an offline replay of the surviving prefix;
* pre-CRC (v1) logs still recover (the WAL format is versioned
  implicitly by the presence of the ``crc`` field);
* a truncated checkpoint payload fails its checksum and recovery falls
  back to the previous complete checkpoint with a longer WAL replay;
* WAL append failure degrades ingest to read-only (503 path raises
  :class:`~repro.errors.DegradedError`) while the probe re-enters
  read-write once appends succeed again.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import zlib
from pathlib import Path

import pytest

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.api.events import InsertBatch
from repro.errors import ConfigError, DegradedError
from repro.graph.backend import create_graph
from repro.graph.delta import EdgeUpdate
from repro.serve.config import ServeConfig
from repro.serve.faults import SITE_KINDS, FaultInjector, FaultPlan, FaultRule
from repro.serve.ingest import IngestGateway, SnapshotService
from repro.serve.metrics import MetricsRegistry
from repro.serve.recovery import CheckpointStore, recover
from repro.serve.wal import WriteAheadLog, read_ops, scan_ops
from repro.storage.jsonl import JsonlWriter


@pytest.fixture(autouse=True)
def _single_backend_leg(graph_backend):
    if graph_backend != "array":
        pytest.skip("serve pins backend='array'; one leg is enough")


def random_dyadic_edges(seed: int, count: int, vertices: int = 40):
    rng = random.Random(seed)
    edges = []
    while len(edges) < count:
        src, dst = rng.randrange(vertices), rng.randrange(vertices)
        if src != dst:
            edges.append((f"v{src}", f"v{dst}", rng.randint(1, 128) / 32.0))
    return edges


def batch_ops(edges, size=10):
    return [
        InsertBatch(tuple(EdgeUpdate(s, d, w) for s, d, w in edges[i : i + size]))
        for i in range(0, len(edges), size)
    ]


def plan(*rules, seed=0):
    return FaultPlan([FaultRule(**rule) for rule in rules], seed=seed)


#: (plan, the fragment its ConfigError must name)
INVALID_PLANS = [
    ({"faults": [{"site": "nope", "kind": "disk_full"}]}, "nope"),
    ({"faults": [{"site": "wal.append", "kind": "crash"}]}, "crash"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "at": 0}]}, "'at'"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "typo": 1}]}, "typo"),
    ({"faults": "not-a-list"}, "faults"),
    ({"rules": []}, "rules"),
    # Numbers must be JSON integers: no truncation, no bools.
    ({"faults": [{"site": "wal.append", "kind": "eio", "at": 2.5}]}, "'at'"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "at": True}]}, "'at'"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "at": "x"}]}, "'at'"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "count": 1.5}]}, "'count'"),
    ({"faults": [{"site": "wal.append", "kind": "eio", "every": [1]}]}, "'every'"),
    ({"seed": 1.9, "faults": []}, "'seed'"),
    ({"seed": "abc", "faults": []}, "'seed'"),
    # The shard-worker sites left with the worker tier.
    *(
        ({"faults": [{"site": f"worker.{op}", "kind": kind}]}, f"worker.{op}")
        for op, kind in (("spawn", "crash"), ("post", "eio"), ("collect", "hang"))
    ),
]


class TestFaultPlan:
    def test_round_trips_through_dict(self):
        original = FaultPlan.from_dict(
            {
                "seed": 42,
                "faults": [
                    {"site": "wal.append", "kind": "disk_full", "at": 3, "count": 2},
                    {"site": "wal.append", "kind": "eio", "count": None},
                ],
            }
        )
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(original.to_dict())))
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.seed == 42
        assert rebuilt.rules[1].count is None

    @pytest.mark.parametrize(
        "bad,named", INVALID_PLANS, ids=[f"bad{i}" for i in range(len(INVALID_PLANS))]
    )
    def test_invalid_plans_rejected(self, bad, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            FaultPlan.from_dict(bad)

    def test_committed_plans_load_and_are_documented(self):
        plans_dir = Path(__file__).resolve().parents[1] / "benchmarks" / "fault_plans"
        committed = sorted(path.name for path in plans_dir.glob("*.json"))
        assert committed
        for name in committed:
            FaultPlan.from_file(plans_dir / name)
        readme = (plans_dir / "README.md").read_text(encoding="utf-8")
        documented = re.findall(r"^\| `([^`]+\.json)` \|", readme, flags=re.MULTILINE)
        assert sorted(documented) == committed

    def test_every_site_kind_pair_is_constructible(self):
        for site, kinds in SITE_KINDS.items():
            for kind in kinds:
                FaultRule(site=site, kind=kind)

    def test_rule_firing_window(self):
        rule = FaultRule(site="wal.append", kind="eio", at=3, count=2)
        assert [rule.fires(i) for i in range(1, 7)] == [
            False, False, True, True, False, False,
        ]
        forever = FaultRule(site="wal.append", kind="eio", at=2, count=None)
        assert not forever.fires(1) and forever.fires(2) and forever.fires(100)

    def test_injector_counts_sites_independently_and_logs(self):
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "disk_full", "at": 2, "count": 1})
        )
        payload = b'{"seq": 1}\n'
        assert injector.before_append(payload) == (payload, None)
        data, error = injector.before_append(payload)
        assert data == b"" and isinstance(error, OSError)
        assert injector.before_append(payload) == (payload, None)
        assert [(f["site"], f["invocation"]) for f in injector.fired] == [
            ("wal.append", 2)
        ]


class TestJsonlInjection:
    def test_disk_full_append_leaves_reader_state_clean(self, tmp_path):
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "disk_full", "at": 2, "count": 1})
        )
        writer = JsonlWriter(tmp_path / "log.jsonl", fsync=False, injector=injector)
        writer.append({"n": 1})
        with pytest.raises(OSError):
            writer.append({"n": 2})
        writer.append({"n": 3})
        writer.close()
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 3]

    def test_torn_write_is_repaired_by_next_append(self, tmp_path):
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "torn_write", "at": 2, "count": 1})
        )
        path = tmp_path / "log.jsonl"
        writer = JsonlWriter(path, fsync=False, injector=injector)
        writer.append({"n": 1})
        with pytest.raises(OSError):
            writer.append({"n": 2})
        # The torn fragment is on disk now — exactly what a crash would
        # leave — and the next append must truncate it away first.
        assert path.stat().st_size > writer.offset
        writer.append({"n": 3})
        writer.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 3]


class TestWalChecksums:
    def test_records_carry_crc_and_scan_clean(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        ops = batch_ops(random_dyadic_edges(1, 30))
        for op in ops:
            wal.append_op(op)
        wal.close()
        for line in WriteAheadLog.path_in(tmp_path).read_text().splitlines():
            record = json.loads(line)
            crc = record.pop("crc")
            canonical = json.dumps(
                record, separators=(",", ":"), default=str
            ).encode("utf-8")
            assert crc == zlib.crc32(canonical)
        scanned, _, corruption = scan_ops(WriteAheadLog.path_in(tmp_path))
        assert corruption is None
        assert [seq for seq, _ in scanned] == list(range(1, len(ops) + 1))

    def test_failed_append_consumes_no_seq(self, tmp_path):
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "eio", "at": 2, "count": 1})
        )
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        ops = batch_ops(random_dyadic_edges(2, 30))
        assert wal.append_op(ops[0])[0] == 1
        with pytest.raises(OSError):
            wal.append_op(ops[1])
        assert wal.append_op(ops[2])[0] == 2
        wal.close()
        scanned, _, corruption = scan_ops(WriteAheadLog.path_in(tmp_path))
        assert corruption is None
        assert [seq for seq, _ in scanned] == [1, 2]

    def test_bit_flip_stops_scan_at_documented_boundary(self, tmp_path):
        flip_at = 4
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "bit_flip", "at": flip_at, "count": 1})
        )
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        ops = batch_ops(random_dyadic_edges(3, 60))
        for op in ops:
            wal.append_op(op)  # the flip corrupts bytes, not the return
        wal.close()
        scanned, next_offset, corruption = scan_ops(WriteAheadLog.path_in(tmp_path))
        assert corruption is not None
        # Everything before the flipped record survives; nothing after it
        # is trusted (first-invalid-record rule).
        assert [seq for seq, _ in scanned] == list(range(1, flip_at))
        # The surviving prefix re-scans clean from offset zero up to the
        # reported boundary.
        data = WriteAheadLog.path_in(tmp_path).read_bytes()
        assert len(data[:next_offset].splitlines()) == flip_at - 1
        # Strict readers refuse the damaged log loudly.
        with pytest.raises(Exception):
            read_ops(WriteAheadLog.path_in(tmp_path))

    def test_legacy_v1_records_without_crc_still_recover(self, tmp_path):
        # Hand-write a pre-CRC log: same op encoding, no crc field.
        wal = WriteAheadLog(tmp_path, fsync=False)
        ops = batch_ops(random_dyadic_edges(4, 30))
        for op in ops:
            wal.append_op(op)
        wal.close()
        path = WriteAheadLog.path_in(tmp_path)
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("crc")
            stripped.append(json.dumps(record, separators=(",", ":")))
        path.write_text("\n".join(stripped) + "\n")
        scanned, _, corruption = scan_ops(path)
        assert corruption is None
        assert len(scanned) == len(ops)

    def test_recovery_equals_offline_replay_of_surviving_prefix(self, tmp_path):
        config = EngineConfig(
            semantics="DW",
            backend="array",
            serve=ServeConfig(port=0, wal_dir=str(tmp_path), fsync=False),
        )
        flip_at = 5
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "bit_flip", "at": flip_at, "count": 1})
        )
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        store = CheckpointStore(tmp_path)
        live = SpadeClient(config)
        live.load([])
        store.save(live.snapshot(), wal_seq=0, wal_offset=0)
        for op in batch_ops(random_dyadic_edges(5, 80)):
            wal.append_op(op)
            live.apply([op])
        wal.close()

        recovered = recover(config)
        assert recovered.wal_corruption is not None
        assert recovered.wal_seq == flip_at - 1
        assert recovered.replayed_ops == flip_at - 1

        offline = SpadeClient(EngineConfig(semantics="DW", backend="array"))
        offline.load([])
        surviving, _, _ = scan_ops(WriteAheadLog.path_in(tmp_path))
        for _seq, op in surviving:
            offline.apply([op])
        recovered_report = recovered.client.detect()
        offline_report = offline.detect()
        assert recovered_report.vertices == offline_report.vertices
        assert recovered_report.density == offline_report.density
        assert recovered_report.peel_index == offline_report.peel_index


class TestCheckpointChecksums:
    def _store_with_two_checkpoints(self, tmp_path, injector=None):
        graph = create_graph("array")
        store = CheckpointStore(tmp_path, injector=injector)
        for seq, extra in ((3, 40), (6, 40)):
            for src, dst, weight in random_dyadic_edges(seq, extra):
                graph.add_edge(src, dst, weight)
            store.save(graph.freeze(), wal_seq=seq, wal_offset=seq * 100)
        return store

    def test_truncated_payload_falls_back_to_previous(self, tmp_path):
        injector = FaultInjector(
            plan({"site": "checkpoint.save", "kind": "truncate", "at": 2, "count": 1})
        )
        store = self._store_with_two_checkpoints(tmp_path, injector=injector)
        latest = store.latest()
        assert latest is not None
        assert latest[1]["wal_seq"] == 3  # the corrupt seq-6 payload lost
        assert store.fallbacks and "checksum mismatch" in store.fallbacks[0]

    def test_clean_checkpoints_verify_and_win(self, tmp_path):
        store = self._store_with_two_checkpoints(tmp_path)
        latest = store.latest()
        assert latest is not None
        assert latest[1]["wal_seq"] == 6
        assert latest[1]["payload_crc"] == zlib.crc32(
            (tmp_path / "checkpoint-000000000006.npz").read_bytes()
        )
        assert not store.fallbacks

    def test_save_is_atomic_no_tmp_strays(self, tmp_path):
        injector = FaultInjector(
            plan({"site": "checkpoint.save", "kind": "disk_full", "at": 1, "count": 1})
        )
        graph = create_graph("array")
        graph.add_edge("a", "b", 1.0)
        store = CheckpointStore(tmp_path, injector=injector)
        with pytest.raises(OSError):
            store.save(graph.freeze(), wal_seq=1, wal_offset=10)
        # The failed save left neither a payload nor a tmp stray behind.
        assert list(tmp_path.glob("checkpoint-*")) == []
        store.save(graph.freeze(), wal_seq=2, wal_offset=20)
        assert store.latest() is not None


class TestDegradedMode:
    def _gateway(self, tmp_path, injector, probe_interval_ms=20.0):
        client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
        client.load([])
        lock = asyncio.Lock()
        service = SnapshotService(client, lock)
        config = ServeConfig(
            port=0,
            wal_dir=str(tmp_path),
            fsync=False,
            probe_interval_ms=probe_interval_ms,
        )
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        gateway = IngestGateway(
            client, service, lock, config, MetricsRegistry(), wal=wal
        )
        return gateway, wal

    def test_wal_failure_degrades_then_probe_recovers(self, tmp_path):
        # Append 2 fails, probes 3-4 fail, probe 5 succeeds: the window is
        # wide enough that ingest must bounce exactly once.
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "disk_full", "at": 2, "count": 3})
        )
        gateway, wal = self._gateway(tmp_path, injector)

        async def scenario():
            gateway.start()
            try:
                first = await gateway.submit(
                    "insert", [EdgeUpdate("a", "b", 1.0)], 1
                )
                assert first["wal_seq"] == 1
                with pytest.raises(DegradedError):
                    await gateway.submit("insert", [EdgeUpdate("b", "c", 1.0)], 1)
                assert gateway.degraded
                with pytest.raises(DegradedError):
                    # Still parked read-only: fail fast, no WAL touch.
                    await gateway.submit("insert", [EdgeUpdate("c", "d", 1.0)], 1)
                for _ in range(200):
                    if not gateway.degraded:
                        break
                    await asyncio.sleep(0.02)
                assert not gateway.degraded, "probe never re-entered read-write"
                second = await gateway.submit(
                    "insert", [EdgeUpdate("d", "e", 1.0)], 1
                )
                return second
            finally:
                await gateway.stop()
                wal.close()

        second = asyncio.run(scenario())
        # The failed appends consumed no sequence numbers.
        assert second["wal_seq"] == 2
        scanned, _, corruption = scan_ops(WriteAheadLog.path_in(tmp_path))
        assert corruption is None
        assert [seq for seq, _ in scanned] == [1, 2]


    def test_mid_window_wal_failure_publishes_the_durable_prefix_only(self, tmp_path):
        # One window of three ops (the delete is a barrier, so they do not
        # coalesce); the WAL refuses the second append.
        injector = FaultInjector(
            plan({"site": "wal.append", "kind": "disk_full", "at": 2, "count": 1})
        )
        gateway, wal = self._gateway(tmp_path, injector, probe_interval_ms=10_000.0)
        service = gateway._service

        async def scenario():
            futures = [
                gateway.submit(
                    "insert", [EdgeUpdate("a", "b", 2.0), EdgeUpdate("b", "c", 1.0)], 2
                ),
                gateway.submit("delete", [("a", "b")], 1),
                gateway.submit("insert", [EdgeUpdate("c", "d", 8.0)], 1),
            ]
            gateway.start()
            try:
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, await service.detection()
            finally:
                await gateway.stop()
                wal.close()

        outcomes, view = asyncio.run(scenario())
        assert all(isinstance(outcome, DegradedError) for outcome in outcomes)
        scanned, _, corruption = scan_ops(WriteAheadLog.path_in(tmp_path))
        assert corruption is None and [seq for seq, _ in scanned] == [1]
        offline = SpadeClient(EngineConfig(semantics="DW", backend="array"))
        offline.load([])
        expected = offline.apply([op for _seq, op in scanned])
        # Version and content are the durable prefix — never the tail the
        # window went on to hold (the delete, the heavy c-d edge).
        assert service.version == view.version == 1
        assert view.source == "maintained"
        assert view.payload["community"] == sorted(map(str, expected.vertices))
        assert view.payload["density"] == expected.density
        assert view.payload["edges"] == 2
