"""Exact continued-fraction arithmetic and exact-Lebesgue quotient sampling.

Conventions: x = [a_1, a_2, ...] in [0, 1), all partial quotients a_i >= 1.
Continuants follow q_0 = 1, q_1 = a_1, q_{n+1} = a_{n+1} q_n + q_{n-1}
(same recursion for p with p_0 = 0, p_1 = 1). Everything here is pure and
reentrant; states are value types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError

_TAKE_BUDGET = 400_000_000  # bytes of one materialized word, at most 36 bytes a term


class ConvergentPair(NamedTuple):
    p: int
    q: int


@dataclass(frozen=True)
class FundamentalInterval:
    """Set of x in [0,1) whose first n quotients equal a given word.

    Endpoints are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}); which one is
    the left end depends on the parity of n. The length is exactly
    1/(q_n (q_n + q_{n-1})).
    """

    left: Fraction
    right: Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left


@dataclass(frozen=True)
class ContinuantRatioState:
    """O(1) sampler state: r = q_{n-1}/q_n in [0, 1), r = 0 only at depth 0."""

    r: float = 0.0
    depth: int = 0


def expand_rational(num: int, den: int, max_terms: int) -> list[int]:
    """Regular continued fraction of num/den in [0, 1), truncated at max_terms.

    Runs the Euclidean algorithm, which yields the canonical form directly:
    every term >= 1 and the final term >= 2 whenever the full expansion has
    more than one term. num = 0 expands to the empty sequence.
    """
    if den == 0:
        raise DomainError("denominator must be positive")
    if den < 0 or num < 0 or num >= den:
        raise DomainError("require 0 <= num < den")
    if max_terms < 1:
        raise DomainError("max_terms must be >= 1")
    terms: list[int] = []
    p, q = num, den
    while p != 0 and len(terms) < max_terms:
        a, r = divmod(q, p)
        terms.append(a)
        q, p = p, r
    return terms


def convergents(seq: Sequence[int], n: int) -> list[ConvergentPair]:
    """Exact convergents (p_1, q_1) .. (p_n, q_n) of a quotient word."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if len(seq) < n:
        raise DomainError(f"need {n} terms, sequence has {len(seq)}")
    out: list[ConvergentPair] = []
    p_prev, q_prev = 1, 0  # (p_0, q_0) = (0, 1) seen from one step back
    p, q = 0, 1
    for a in seq[:n]:
        if a < 1:
            raise DomainError("partial quotients must be >= 1")
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(ConvergentPair(p, q))
    return out


def continuant(seq: Sequence[int]) -> int:
    """q_n of the word; q of the empty word is 1."""
    q_prev, q = 0, 1
    for a in seq:
        q, q_prev = a * q + q_prev, q
    return q


def fundamental_interval(seq: Sequence[int], n: int) -> FundamentalInterval:
    """Exact fundamental interval of the first n terms of the word."""
    cs = convergents(seq, n)
    p, q = cs[-1]
    if n >= 2:
        p_prev, q_prev = cs[-2]
    else:
        p_prev, q_prev = 0, 1
    end_a = Fraction(p, q)
    end_b = Fraction(p + p_prev, q + q_prev)
    if n % 2 == 1:  # odd depth: p_n/q_n is the right endpoint
        return FundamentalInterval(end_b, end_a)
    return FundamentalInterval(end_a, end_b)


def gauss_step(x):
    """One Gauss-map step: x -> (a, y) with a = floor(1/x), y = 1/x - a.

    Works on floats and Fractions alike; x = 0 is terminal and must be
    handled by the caller.
    """
    if x <= 0 or x >= 1:
        raise DomainError("gauss_step requires x in (0, 1)")
    inv = 1 / x
    a = math.floor(inv)
    return a, inv - a


def sample_next_quotient(state: ContinuantRatioState, u: float) -> tuple[int, ContinuantRatioState]:
    """Draw the next quotient from the exact Lebesgue conditional law.

    Derivation: conditionally on the first n quotients, P(a = k) equals the
    ratio of fundamental-interval lengths
        |I_{n+1}| / |I_n| = (1 + r) / ((k + r)(k + r + 1)),   r = q_{n-1}/q_n,
    whose CDF telescopes to 1 - (1+r)/(m+1+r). Inverting at u gives
        a = ceil((1+r)/(1-u) - 1 - r),
    and the state updates exactly via r' = q_n/q_{n+1} = 1/(a + r).
    """
    if not 0.0 < u < 1.0:
        raise DomainError("u must lie in the open interval (0, 1)")
    r = state.r
    a = math.ceil((1.0 + r) * u / (1.0 - u))
    if a < 1:
        a = 1
    return a, ContinuantRatioState(r=1.0 / (a + r), depth=state.depth + 1)


def lebesgue_quotients(rng, buffer: int = 4096) -> Iterator[int]:
    """Infinite stream of partial quotients of a Lebesgue-random x in [0,1).

    Consumes uniforms from ``rng.random(buffer)`` in contiguous blocks, so a
    given generator always produces the same stream regardless of how many
    terms are consumed per call.
    """
    state = ContinuantRatioState()
    while True:
        block = rng.random(buffer)
        for u in block:
            if u == 0.0:  # probability 2^-53; the law puts a = 1 there
                u = 0.5e-16
            a, state = sample_next_quotient(state, u)
            yield a


def check_word_budget(count: int) -> None:
    """Refuse a word of `count` terms past _TAKE_BUDGET bytes, at most 36 bytes a term."""
    if 36 * count > _TAKE_BUDGET:
        raise ResourceLimitError(f"{count} terms exceed the {_TAKE_BUDGET}-byte budget")


def take(stream: Iterable[int], count: int) -> list[int]:
    """Materialize `count` terms of a quotient stream, within _TAKE_BUDGET bytes."""
    check_word_budget(count)
    out = []
    it = iter(stream)
    for _ in range(count):
        try:
            out.append(next(it))
        except StopIteration:
            raise DomainError(f"stream exhausted after {len(out)} of {count} terms") from None
    return out
