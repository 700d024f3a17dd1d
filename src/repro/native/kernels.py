"""ctypes bindings + load-time self-check for the compiled kernels.

:func:`get_kernels` is the one entry point: it compiles (or reuses) the
``.so`` via :mod:`repro.native.build`, loads it, runs the self-check, and
caches the result process-wide.  It returns ``None`` when anything along
that path fails — the caller (``repro.native.resolve_kernel``) decides
whether that is a hard error (``kernel="native"``) or a silent fallback
(``kernel="auto"``).

Self-check
----------
Bit-identity is the whole contract, so availability is *verified*, not
assumed, before a kernel is ever used on real data:

* ``pw_sum`` (the reorder kernel's weight-recovery reduction) is fuzzed
  against ``np.sum`` over a few hundred float64 arrays; a single non-equal
  bit disables the reorder kernel (numpy could change its reduction
  algorithm in a future release — degrade instead of diverging).
* the peel kernel runs two small randomized peels and is compared entry
  by entry against a pure-python replica of the lazy-deletion greedy
  loop: one with weights in sixteenths, one with weights in ``{1, 2}``,
  where nearly every key ties on weight and only the id orders it.
"""

from __future__ import annotations

import ctypes
import heapq
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.native.build import BuildResult, ensure_built

__all__ = ["NativeKernels", "get_kernels", "load_failure"]

_STATS_LEN = 8


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class NativeKernels:
    """A loaded, self-checked kernel library."""

    def __init__(self, lib: ctypes.CDLL, build: BuildResult) -> None:
        self.lib = lib
        self.so_path = str(build.so_path)
        self.cc = build.cc
        self.cached = build.cached
        self.build_ms = build.build_ms
        self.peel_ok = False
        self.reorder_ok = False
        self.check_error: Optional[str] = None

        lib.repro_pw_sum.argtypes = [ctypes.c_void_p, ctypes.c_longlong]
        lib.repro_pw_sum.restype = ctypes.c_double
        lib.repro_peel.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_longlong] + [
            ctypes.c_void_p
        ] * 2 + [ctypes.c_longlong] + [ctypes.c_void_p] * 2
        lib.repro_peel.restype = ctypes.c_longlong
        lib.repro_reorder.argtypes = (
            [ctypes.c_void_p] * 8
            + [ctypes.c_longlong, ctypes.c_void_p]
            + [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong]
            + [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p]
            + [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p, ctypes.c_longlong]
            + [ctypes.c_longlong, ctypes.c_void_p]
        )
        lib.repro_reorder.restype = ctypes.c_longlong

        self._self_check()

    # ------------------------------------------------------------------ #
    # Kernel calls
    # ------------------------------------------------------------------ #
    def pw_sum(self, array: np.ndarray) -> float:
        array = np.ascontiguousarray(array, dtype=np.float64)
        return float(self.lib.repro_pw_sum(_ptr(array), len(array)))

    def peel(
        self,
        inc_off: np.ndarray,
        inc_nbr: np.ndarray,
        inc_w: np.ndarray,
        num_ids: int,
        member_ids: np.ndarray,
        init_cur: np.ndarray,
    ) -> Tuple[np.ndarray, List[float]]:
        """Run the greedy peel loop; returns ``(order_ids, weights)``.

        All arrays must be C-contiguous with the canonical dtypes
        (``int64`` offsets, ``int32`` ids, ``float64`` weights) — which is
        what :meth:`CsrSnapshot.incidence` hands out.
        """
        k = len(member_ids)
        order_out = np.empty(k, dtype=np.int32)
        weights_out = np.empty(k, dtype=np.float64)
        produced = self.lib.repro_peel(
            _ptr(inc_off),
            _ptr(inc_nbr),
            _ptr(inc_w),
            num_ids,
            _ptr(member_ids),
            _ptr(init_cur),
            k,
            _ptr(order_out),
            _ptr(weights_out),
        )
        if produced != k:
            raise MemoryError(
                f"native peel produced {produced} of {k} vertices"
            )
        return order_out, weights_out.tolist()

    def reorder(
        self,
        adjacency: Tuple[np.ndarray, ...],
        vw: np.ndarray,
        order_buf: np.ndarray,
        weights_buf: np.ndarray,
        head: int,
        n: int,
        pos_buf: np.ndarray,
        touched: np.ndarray,
        in_queue_mask: np.ndarray,
        seed_ids: np.ndarray,
        seed_positions: np.ndarray,
        small_degree: int,
    ) -> np.ndarray:
        """Run the reorder pass in place; returns the raw stats array.

        ``adjacency`` is the 8-tuple of arena arrays from
        ``ArrayGraph.native_adjacency()``, fetched for this call; its
        ``out_start`` length is the id count the kernel may index, and
        ``pos_buf``'s length the id count its queue may hold.  Raises
        ``MemoryError`` on allocation failure and ``AssertionError`` on an
        island-accounting violation — the same invariant the python loop
        asserts — or when an id already queued would be queued again.
        """
        stats = np.zeros(_STATS_LEN, dtype=np.int64)
        rc = self.lib.repro_reorder(
            *map(_ptr, adjacency),
            len(adjacency[2]),
            _ptr(vw),
            _ptr(order_buf),
            _ptr(weights_buf),
            head,
            n,
            _ptr(pos_buf),
            len(pos_buf),
            _ptr(touched),
            _ptr(in_queue_mask),
            _ptr(seed_ids),
            len(seed_ids),
            _ptr(seed_positions),
            len(seed_positions),
            small_degree,
            _ptr(stats),
        )
        if rc == -1:
            raise MemoryError("native reorder ran out of memory")
        if rc == -2:
            raise AssertionError(
                "island accounting error: "
                f"{int(stats[5])} rebuilt vertices for span starting at "
                f"{int(stats[6])}"
            )
        if rc == -3:
            raise AssertionError(
                f"reorder queue invariant: vertex id {int(stats[7])} "
                "queued while already queued"
            )
        if rc != 0:  # pragma: no cover - future error codes
            raise RuntimeError(f"native reorder failed with code {rc}")
        return stats

    # ------------------------------------------------------------------ #
    # Self-check
    # ------------------------------------------------------------------ #
    def _self_check(self) -> None:
        try:
            self.reorder_ok = self._check_pw_sum()
            self.peel_ok = self._check_peel()
        except Exception as exc:  # pragma: no cover - defensive
            self.check_error = f"self-check crashed: {exc!r}"
            self.peel_ok = False
            self.reorder_ok = False

    def _check_pw_sum(self) -> bool:
        rng = np.random.RandomState(20240807)
        sizes = list(range(0, 40)) + [127, 128, 129, 255, 256, 1000, 4096, 65536]
        for size in sizes:
            for scale in (1.0, 1e-9, 1e9):
                data = (rng.random_sample(size) * scale).astype(np.float64)
                if self.pw_sum(data) != float(np.sum(data)):
                    self.check_error = (
                        f"pw_sum diverged from np.sum at n={size}; "
                        "reorder kernel disabled"
                    )
                    return False
        return True

    def _check_peel(self) -> bool:
        draws = (lambda rng: rng.randint(1, 64) / 16.0, lambda rng: rng.randint(1, 2))
        for weight in draws:
            order, weights, ref_order, ref_weights = self._peel_fixture(weight)
            if order.tolist() != ref_order or weights != ref_weights:
                self.check_error = "peel kernel diverged from the reference loop"
                return False
        return True

    def _peel_fixture(self, weight):
        """Random small peel: native vs a local replica of the flat loop.

        ``weight(rng)`` draws each edge weight.

        The replica intentionally lives here (not imported from
        ``repro.peeling``) so the native package stays import-cycle-free
        below the peeling layer.
        """
        rng = random.Random(7)
        num_ids = 48
        edges = {}
        while len(edges) < 180:
            a, b = rng.randrange(num_ids), rng.randrange(num_ids)
            if a != b and (a, b) not in edges:
                edges[(a, b)] = float(weight(rng))
        out_adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_ids)]
        in_adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_ids)]
        for (a, b), w in edges.items():
            out_adj[a].append((b, w))
            in_adj[b].append((a, w))
        inc_off = [0]
        inc_nbr: List[int] = []
        inc_w: List[float] = []
        for vid in range(num_ids):
            for nbr, w in out_adj[vid] + in_adj[vid]:
                inc_nbr.append(nbr)
                inc_w.append(w)
            inc_off.append(len(inc_nbr))
        member_ids = np.arange(num_ids, dtype=np.int32)
        init = np.array(
            [sum(w for _, w in out_adj[v] + in_adj[v]) for v in range(num_ids)],
            dtype=np.float64,
        )

        order, weights = self.peel(
            np.asarray(inc_off, dtype=np.int64),
            np.asarray(inc_nbr, dtype=np.int32),
            np.asarray(inc_w, dtype=np.float64),
            num_ids,
            member_ids,
            init,
        )

        # Reference: the flat lazy-deletion loop, verbatim.
        cur: List[Optional[float]] = list(init.tolist())
        heap = list(zip(init.tolist(), range(num_ids)))
        heapq.heapify(heap)
        ref_order: List[int] = []
        ref_weights: List[float] = []
        while heap:
            weight, vid = heapq.heappop(heap)
            if cur[vid] != weight:
                continue
            cur[vid] = None
            ref_order.append(vid)
            ref_weights.append(weight)
            for i in range(inc_off[vid], inc_off[vid + 1]):
                nbr = inc_nbr[i]
                value = cur[nbr]
                if value is not None:
                    value -= inc_w[i]
                    cur[nbr] = value
                    heapq.heappush(heap, (value, nbr))
        return order, weights, ref_order, ref_weights


_cached: Optional[NativeKernels] = None
_failure: Optional[str] = None
_attempted = False


def get_kernels() -> Optional[NativeKernels]:
    """Build + load + self-check the kernels once per process.

    Returns ``None`` when no compiler is available, the build fails, or
    the loaded library flunks its self-check entirely;
    :func:`load_failure` carries the reason.  Partial capability (e.g.
    ``reorder_ok`` False with ``peel_ok`` True) returns the object — the
    dispatch sites check the per-kernel flags.
    """
    global _cached, _failure, _attempted
    if _attempted:
        return _cached
    _attempted = True
    build = ensure_built()
    if not build.ok:
        _failure = build.error
        return None
    try:
        lib = ctypes.CDLL(str(build.so_path))
    except OSError as exc:
        _failure = f"failed to load {build.so_path}: {exc}"
        return None
    kernels = NativeKernels(lib, build)
    if not kernels.peel_ok and not kernels.reorder_ok:
        _failure = kernels.check_error or "self-check failed"
        return None
    _cached = kernels
    return _cached


def load_failure() -> Optional[str]:
    """Why :func:`get_kernels` returned ``None`` (``None`` if it did not)."""
    return _failure


def _reset_for_tests() -> None:
    """Forget the cached load so tests can exercise cold paths."""
    global _cached, _failure, _attempted
    _cached = None
    _failure = None
    _attempted = False
