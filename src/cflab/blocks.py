"""Products of consecutive partial quotients: event detectors, trimmed sums, maxima.

Block i (1-based) of length ell covers quotients a_i .. a_{i+ell-1}. A level-n
check may use blocks with start index <= n, so a stream is consumed up to
index n + ell - 1. Block products are exact integers, and "product >= phi(n)"
is decided by GrowthFunction.meets_threshold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from .cf import take
from .errors import DomainError
from .growth import GrowthFunction


@dataclass(frozen=True)
class EventRecord:
    n: int
    j: int
    k: int
    overlap: int


def _products(stream: Iterable[int], ell: int, horizon: int) -> Iterator[int]:
    """Exact products of blocks 1..horizon in order; fewer if the stream ends.

    Reads at most horizon + ell - 1 quotients. The window product is kept
    exactly by multiplying in the new quotient and dividing out the old one.
    """
    if ell < 1:
        raise DomainError("ell must be >= 1")
    window: deque[int] = deque()
    product = 1
    for a in islice(stream, max(horizon + ell - 1, 0)):
        if a < 1:
            raise DomainError("partial quotients must be >= 1")
        window.append(a)
        product *= a
        if len(window) > ell:
            product //= window.popleft()
        if len(window) == ell:
            yield product


def first_F_event(
    stream: Iterable[int], ell: int, phi: GrowthFunction, horizon: int
) -> Optional[tuple[int, EventRecord]]:
    """Smallest n <= horizon at which two distinct block starts beat phi(n).

    Two of blocks 1..n beat phi(n) exactly when the second-largest of their
    products does, so each level costs one comparison. At the hit, one pass
    over the products gives (n, record) with j the smallest and k the largest
    qualifying start; None when no level qualifies.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    seen = []
    top = second = 0
    for n, p in enumerate(_products(stream, ell, horizon), start=1):
        seen.append(p)
        if p > top:
            top, second = p, top
        elif p > second:
            second = p
        if phi.meets_threshold(second, n):
            qual = [i for i, q in enumerate(seen, start=1) if phi.meets_threshold(q, n)]
            j, k = qual[0], qual[-1]
            return n, EventRecord(n=n, j=j, k=k, overlap=max(0, j + ell - k))
    return None


def first_E_event(
    stream: Iterable[int], ell: int, phi: GrowthFunction, horizon: int
) -> Optional[int]:
    """Smallest n <= horizon whose own block product beats phi(n)."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    for n, p in enumerate(_products(stream, ell, horizon), start=1):
        if phi.meets_threshold(p, n):
            return n
    return None


class TrimmedRow(NamedTuple):
    n: int
    total: int
    max_block: int
    normalized: float


def trimmed_sum_trajectory(stream: Iterable[int], ell: int, horizon: int) -> Iterator[TrimmedRow]:
    """Per-n rows (S_{n,ell}, running max block, trimmed normalized value).

    S and the max are exact integers; normalized = (S - M) / (n log^ell n),
    NaN at n = 1 where the normalizer vanishes.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    total = max_block = n = 0
    for n, p in enumerate(_products(stream, ell, horizon), start=1):
        total += p
        max_block = max(max_block, p)
        norm = math.nan if n == 1 else float(total - max_block) / (n * math.log(n) ** ell)
        yield TrimmedRow(n, total, max_block, norm)
    if n < horizon:
        raise DomainError("stream exhausted before horizon")


def progression_sum(stream: Iterable[int], ell: int, d: int, n: int) -> int:
    """Exact sum over j <= n of a_j a_{j+d} ... a_{j+(ell-1)d}.

    The terms with j = r (mod d) are the consecutive ell-blocks of the
    subsequence a_r, a_{r+d}, ..., so each residue class is one block scan.
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    seq = take(stream, n + (ell - 1) * d)
    return sum(sum(_products(seq[r::d], ell, len(range(r, n, d)))) for r in range(d))
