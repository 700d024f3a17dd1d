"""Deterministic, seedable fault injection for the serving stack.

Durability claims are only as strong as the fault matrix they are tested
against (SQLite's WAL discipline is the model: checksummed frames,
recovery that stops at the first invalid frame).  This module is the
serving layer's chaos harness: a JSON **fault plan** describes *which*
I/O seam misbehaves, *when* (by per-site invocation count, so runs are
bit-reproducible), and *how* — and a :class:`FaultInjector` built from
the plan is threaded through the seams at deployment construction time
(``ServeConfig.faults`` / ``--faults plan.json``).

Plan shape (one JSON object)::

    {
      "seed": 7,
      "faults": [
        {"site": "wal.append",      "kind": "disk_full", "at": 8, "count": 4},
        {"site": "wal.append",      "kind": "bit_flip",  "at": 12},
        {"site": "wal.append",      "kind": "torn_write","at": 20},
        {"site": "checkpoint.save", "kind": "truncate",  "at": 2}
      ]
    }

A rule fires on invocations ``at .. at+count-1`` of its site (1-based;
``count`` of ``null`` means forever; ``every`` adds a periodic repeat).
``seed``, ``at``, ``count`` and ``every`` must be JSON integers.
Counters are per-site and include degraded-mode probes on ``wal.append``,
so a count-limited ``disk_full`` deterministically "frees disk space"
after the configured number of failed appends/probes — which is exactly
what the auto-probe re-entry test needs.

Sites and the faults they accept
--------------------------------
``wal.append``
    ``disk_full`` / ``eio``  — the append raises ``OSError`` (ENOSPC /
    EIO) before any byte is written;
    ``torn_write``           — a prefix of the record reaches the file,
    then the append raises (a crash/partial-sector model; the writer
    self-repairs the fragment on its next successful append);
    ``bit_flip``             — the record is written with one flipped
    bit and the append *succeeds* (silent on-disk corruption — only the
    CRC on the read path can catch it).
``checkpoint.save``
    ``truncate``  — the freshly written ``.npz`` payload is truncated
    before it is published (torn checkpoint);
    ``disk_full`` — the save raises ``OSError(ENOSPC)``.
"""

from __future__ import annotations

import errno
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

__all__ = ["FaultPlan", "FaultRule", "FaultInjector", "InjectedFault", "SITE_KINDS"]

PathLike = Union[str, Path]

#: Which fault kinds each site understands.
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "wal.append": ("disk_full", "eio", "torn_write", "bit_flip"),
    "checkpoint.save": ("truncate", "disk_full"),
}


def _integer(key: str, value: object) -> int:
    """``value`` if it is an integer (``bool`` excluded), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"fault plan {key!r} must be an integer, got {value!r}")
    return value


class InjectedFault(OSError):
    """An injected I/O failure; carries the site and kind that fired."""

    def __init__(self, err: int, site: str, kind: str, invocation: int) -> None:
        super().__init__(err, f"injected {kind} at {site}#{invocation}")
        self.site = site
        self.kind = kind
        self.invocation = invocation


@dataclass(frozen=True)
class FaultRule:
    """One entry of a fault plan: fire ``kind`` at site invocations."""

    site: str
    kind: str
    at: int = 1
    count: Optional[int] = 1
    every: Optional[int] = None

    def __post_init__(self) -> None:
        _integer("at", self.at)
        for key in ("count", "every"):
            if getattr(self, key) is not None:
                _integer(key, getattr(self, key))
        kinds = SITE_KINDS.get(self.site)
        if kinds is None:
            raise ConfigError(
                f"unknown fault site {self.site!r}; valid sites: "
                f"{', '.join(sorted(SITE_KINDS))}"
            )
        if self.kind not in kinds:
            raise ConfigError(
                f"fault kind {self.kind!r} is not valid at {self.site!r}; "
                f"valid kinds: {', '.join(kinds)}"
            )
        if self.at < 1:
            raise ConfigError(f"fault 'at' must be >= 1, got {self.at}")
        if self.count is not None and self.count < 1:
            raise ConfigError(f"fault 'count' must be >= 1 or null, got {self.count}")
        if self.every is not None and self.every < 1:
            raise ConfigError(f"fault 'every' must be >= 1 or null, got {self.every}")

    def fires(self, invocation: int) -> bool:
        """Does this rule fire on the given 1-based site invocation?"""
        if invocation < self.at:
            return False
        if self.count is None:
            return True
        if invocation < self.at + self.count:
            return True
        if self.every is not None:
            return (invocation - self.at) % self.every < self.count
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": self.at,
            "count": self.count,
            "every": self.every,
        }


class FaultPlan:
    """A validated, JSON-round-trippable set of fault rules."""

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = _integer("seed", seed)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        unknown = sorted(set(data) - {"seed", "faults"})
        if unknown:
            raise ConfigError(f"unknown fault plan keys: {', '.join(unknown)}")
        raw = data.get("faults", [])
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ConfigError('"faults" must be an array of rule objects')
        rules = []
        for entry in raw:
            if not isinstance(entry, Mapping):
                raise ConfigError(f"fault rules must be objects, got {entry!r}")
            extra = sorted(set(entry) - {"site", "kind", "at", "count", "every"})
            if extra:
                raise ConfigError(f"unknown fault rule keys: {', '.join(extra)}")
            try:
                site = str(entry["site"])
                kind = str(entry["kind"])
            except KeyError as exc:
                raise ConfigError(f"fault rule missing key {exc}")
            rules.append(
                FaultRule(
                    site=site,
                    kind=kind,
                    at=entry.get("at", 1),
                    count=entry.get("count", 1),
                    every=entry.get("every"),
                )
            )
        return cls(rules, seed=data.get("seed", 0))  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: PathLike) -> "FaultPlan":
        with Path(path).open("r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: fault plan is not valid JSON: {exc}")
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path}: fault plan must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "faults": [rule.to_dict() for rule in self.rules]}


class FaultInjector:
    """Plan-driven fault dispenser, one per deployment.

    Call sites invoke one hook per seam; each hook bumps the site's
    invocation counter and consults the plan.  ``fired`` keeps a log of
    every fault that actually fired (site, kind, invocation), which the
    smoke harness folds into its report.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._counts: Dict[str, int] = {}
        self.fired: List[Dict[str, object]] = []

    def _next(self, site: str) -> int:
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        return count

    def _match(self, site: str, invocation: int) -> Optional[FaultRule]:
        for rule in self._plan.rules:
            if rule.site == site and rule.fires(invocation):
                self._record(rule, invocation)
                return rule
        return None

    def _record(self, rule: FaultRule, invocation: int) -> None:
        self.fired.append(
            {"site": rule.site, "kind": rule.kind, "invocation": invocation}
        )

    def _rng(self, site: str, invocation: int) -> random.Random:
        return random.Random(f"{self._plan.seed}:{site}:{invocation}")

    # ------------------------------------------------------------------ #
    # wal.append — consumed by JsonlWriter (duck-typed)
    # ------------------------------------------------------------------ #
    def before_append(self, payload: bytes) -> Tuple[bytes, Optional[OSError]]:
        """Decide one WAL append's fate: ``(bytes_to_write, error_or_None)``.

        ``disk_full``/``eio`` write nothing and raise; ``torn_write``
        persists a prefix then raises; ``bit_flip`` persists a corrupted
        record and reports success (silent corruption).
        """
        invocation = self._next("wal.append")
        rule = self._match("wal.append", invocation)
        if rule is None:
            return payload, None
        if rule.kind == "disk_full":
            return b"", InjectedFault(errno.ENOSPC, rule.site, rule.kind, invocation)
        if rule.kind == "eio":
            return b"", InjectedFault(errno.EIO, rule.site, rule.kind, invocation)
        rng = self._rng("wal.append", invocation)
        if rule.kind == "torn_write":
            cut = rng.randrange(1, max(2, len(payload)))
            return (
                payload[:cut],
                InjectedFault(errno.EIO, rule.site, rule.kind, invocation),
            )
        # bit_flip: flip one bit somewhere before the trailing newline.
        index = rng.randrange(0, max(1, len(payload) - 1))
        bit = 1 << rng.randrange(8)
        flipped = bytearray(payload)
        flipped[index] ^= bit
        return bytes(flipped), None

    # ------------------------------------------------------------------ #
    # checkpoint.save — consumed by CheckpointStore
    # ------------------------------------------------------------------ #
    def on_checkpoint_payload(self, path: PathLike) -> None:
        """Maybe damage a just-written checkpoint payload (pre-publish)."""
        invocation = self._next("checkpoint.save")
        rule = self._match("checkpoint.save", invocation)
        if rule is None:
            return
        if rule.kind == "disk_full":
            raise InjectedFault(errno.ENOSPC, rule.site, rule.kind, invocation)
        size = os.path.getsize(path)
        rng = self._rng("checkpoint.save", invocation)
        keep = rng.randrange(1, max(2, size // 2))
        with open(path, "rb+") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
