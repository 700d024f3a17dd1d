"""Process-global phase counters for the compute core (``/debug/profile``).

The peel and reorder hot paths record how much wall time each *phase*
consumed and which *kernel* (python or native) ran it:

* ``peel_csr_init`` — building the peel working set from a CSR snapshot
  (always numpy/python: the vectorized lane transpose + degree seeding);
* ``peel_greedy`` — the greedy min-extraction loop (python heap-free
  flat loop, or the compiled C kernel);
* ``peel_heap`` — the legacy heap-based peel (dict backend / subset
  maintenance path);
* ``reorder`` — Algorithm-2 window maintenance after insertions.

Counters are cumulative since process start (or :func:`reset`).

A lock guards the two-field update; the cost is one uncontended acquire
per peel/reorder *pass* (not per edge), far below noise.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

__all__ = ["record", "timed", "snapshot", "reset"]

_lock = threading.Lock()
#: (phase, kernel) -> [calls, seconds]
_counters: Dict[Tuple[str, str], List[float]] = {}


def record(phase: str, kernel: str, seconds: float) -> None:
    """Accumulate one timed pass of ``phase`` under ``kernel``."""
    key = (phase, kernel)
    with _lock:
        entry = _counters.get(key)
        if entry is None:
            _counters[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds


@contextmanager
def timed(phase: str, kernel: str = "python") -> Iterator[None]:
    """Context manager form of :func:`record`."""
    began = time.perf_counter()
    try:
        yield
    finally:
        record(phase, kernel, time.perf_counter() - began)


def snapshot() -> Dict[str, Dict[str, float]]:
    """Export the table as ``{"phase[kernel]": {"calls", "seconds"}}``."""
    with _lock:
        items = list(_counters.items())
    return {
        f"{phase}[{kernel}]": {"calls": int(calls), "seconds": round(seconds, 6)}
        for (phase, kernel), (calls, seconds) in sorted(items)
    }


def split_key(key: str) -> Tuple[str, str]:
    """``"phase[kernel]"`` -> ``("phase", "kernel")`` (label export)."""
    if key.endswith("]") and "[" in key:
        phase, _, kernel = key[:-1].partition("[")
        return phase, kernel
    return key, "unknown"


def reset() -> None:
    """Zero the process-local table (tests)."""
    with _lock:
        _counters.clear()
