"""Order statistics for latency samples and a hashing text sink."""

from __future__ import annotations

import hashlib
import math
from typing import Callable, List, Optional, Sequence, Tuple

# candidate tail percentiles, lowest first
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)
# a tail percentile needs at least this many samples above it
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    # 1-based nearest rank; the small slack keeps 99.99% of 1e5 at 99990
    return min(n, max(1, math.ceil(pct / 100.0 * n - 1e-9)))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least ten samples beyond its rank.

    None when even the median has fewer than ten samples above it.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """(label, value) of the tail statistic: 'p99' and friends.

    Below 20 samples no percentile has ten samples beyond it, and the
    maximum of a handful of runs mostly measures machine noise, so the tail
    falls back to the median, labelled 'p50 (n<20)'.
    """
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None:
        return "p50 (n<20)", median(ordered)
    return "p%g" % pct, percentile(ordered, pct)


def interval_union(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals (overlaps counted once)."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """Span duration minus the part of it that child spans cover."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children if hi > start and lo < end]
    return (end - start) - interval_union(clipped)


class DigestSink:
    """Write-only text file object that SHA-256 hashes everything written.

    Writes are buffered and hashed in blocks of about `block_chars`
    characters, so the cost per write() is one list append. `on_block`, when
    given, sees each block of text in order before it is hashed.
    """

    def __init__(self, block_chars: int = 1 << 20,
                 on_block: Optional[Callable[[str], None]] = None):
        self._hash = hashlib.sha256()
        self._parts: List[str] = []
        self._pending = 0
        self._block_chars = block_chars
        self._on_block = on_block
        self.nchars = 0

    def write(self, text: str) -> int:
        self._parts.append(text)
        n = len(text)
        self._pending += n
        self.nchars += n
        if self._pending >= self._block_chars:
            self.flush()
        return n

    def flush(self) -> None:
        if not self._parts:
            return
        block = "".join(self._parts)
        self._parts.clear()
        self._pending = 0
        if self._on_block is not None:
            self._on_block(block)
        self._hash.update(block.encode("utf-8"))

    def hexdigest(self) -> str:
        self.flush()
        return self._hash.hexdigest()
