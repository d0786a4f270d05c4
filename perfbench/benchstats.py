"""The benchmark's own arithmetic: percentiles and the failure tally."""

from __future__ import annotations

import math

__all__ = [
    "OpTally",
    "highest_supported_percentile",
    "percentile",
]

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: The percentiles a latency report chooses from, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank *p*-th percentile of *values* (0 < p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int) -> float | None:
    """The highest of ``PERCENTILES`` with at least ``MIN_TAIL_SAMPLES``
    of *n* samples beyond it, or ``None`` when not even the lowest has."""
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES - 1e-9:
            return p
    return None


class OpTally:
    """Operations attempted and failed, per kind.

    An operation fails once, however many ways it fails: a bad reply
    and a failed correctness check of the same operation count as one
    failure.
    """

    def __init__(self) -> None:
        self._kind: dict[object, str] = {}
        self._failed: set = set()

    def attempt(self, op_id, kind: str, ok: bool = True) -> None:
        self._kind[op_id] = kind
        if not ok:
            self._failed.add(op_id)

    def fail(self, op_ids) -> None:
        """Mark already attempted operations failed (a check on them
        did not hold)."""
        for op_id in op_ids:
            if op_id not in self._kind:
                raise KeyError(f"operation {op_id!r} was never attempted")
            self._failed.add(op_id)

    @property
    def attempted(self) -> int:
        return len(self._kind)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def by_kind(self) -> dict[str, dict[str, int]]:
        """``{kind: {"sent", "succeeded", "failed"}}``."""
        out: dict[str, dict[str, int]] = {}
        for op_id, kind in self._kind.items():
            row = out.setdefault(kind, {"sent": 0, "succeeded": 0, "failed": 0})
            row["sent"] += 1
            row["failed" if op_id in self._failed else "succeeded"] += 1
        return dict(sorted(out.items()))
