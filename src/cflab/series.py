"""Exact hybrid evaluation of the divisor-weighted series behind the measure bounds.

Every infinite sum is reduced to a finite divisor-sieve head below the cut M
plus zeta tails; zeta itself is direct summation plus the one Euler-Maclaurin
tail, hurwitz_range(t, lo, hi) at hi = inf (no special-function dependency),
which pressure also reads over a range of branches. The sieve,
divisor_table(k, limit), is a plain int64 array of d_k(0..limit). Each
evaluation sieves each table it needs once and reads every sum from it: the
head sum_{v <= top} d_k(v) v^-t (_head) for the tails and the finite box
sums, and the prefix Z[v] (_prefix) for the grouped sums. Real thresholds
"product >= M" are interpreted on integers as v >= ceil(M); "product < M" as
v <= ceil(M) - 1; "product <= M" as v <= floor(M) (_cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceLimitError

ZETA_TERMS = 100_000
_GRID_BUDGET = 80_000_000  # bytes of one M grid, a list of floats at 32 bytes a point
ZETA_ERR = 1e-13  # certified by the Euler-Maclaurin remainder at ZETA_TERMS
_SIEVE_BUDGET = 80_000_000  # largest k * limit of a divisor sieve: k - 1 passes over limit entries


@dataclass(frozen=True)
class SeriesValue:
    value: float
    abs_error_bound: float

    def __float__(self) -> float:
        return self.value


def divisor_table(k: int, limit: int) -> np.ndarray:
    """d_k(v), the ordered k-factorizations of v, at index v = 0..limit (int64, d_k(0) = 0).

    Exact sieve via k-1 Dirichlet-convolution passes, O(k M log M).

    Each pass sets nxt[v] = sum over e | v of table[e], split at r = isqrt(M)
    into O(sqrt M) strided slice additions: every divisor e <= r adds
    table[e] to nxt[e::e], and every cofactor j <= M // (r+1) adds the
    divisors e in r+1..M//j at once, table[r+1 : M//j+1] into the multiples
    j*e. Two tables are alive at a time.
    """
    if k < 1 or limit < 1:
        raise DomainError("k and limit must be >= 1")
    if k * limit > _SIEVE_BUDGET:
        raise ResourceLimitError(
            f"sieve of size k*limit = {k * limit} exceeds budget {_SIEVE_BUDGET}"
        )
    r = math.isqrt(limit)
    table = np.ones(limit + 1, dtype=np.int64)
    table[0] = 0
    for _ in range(k - 1):
        nxt = np.zeros(limit + 1, dtype=np.int64)
        for e in range(1, r + 1):
            nxt[e::e] += table[e]
        for j in range(1, limit // (r + 1) + 1):
            top = limit // j
            nxt[j * (r + 1) : j * top + 1 : j] += table[r + 1 : top + 1]
        table = nxt
    if k > 1 and limit >= 1 and int(table.max()) >= 1 << 62:
        raise ResourceLimitError("divisor counts overflow int64")
    return table


@lru_cache(maxsize=256)
def zeta(t: float) -> float:
    """Riemann zeta for t > 1: direct sum plus Euler-Maclaurin tail, ~1e-13."""
    if t <= 1:
        raise DomainError("zeta requires t > 1")
    K = ZETA_TERMS
    v = np.arange(1, K + 1, dtype=float)
    head = float(np.sum(v ** (-t)))
    return head + float(hurwitz_range(t, float(K), math.inf))


def _euler_maclaurin(head, t, c):
    """`head` plus the three Euler-Maclaurin corrections of sum_{k >= 1} (c + k)^{-t}."""
    return (
        head
        - 0.5 * c ** (-t)
        + t * c ** (-t - 1.0) / 12.0
        - t * (t + 1.0) * (t + 2.0) * c ** (-t - 3.0) / 720.0
    )


def hurwitz_range(t, lo, hi):
    """The sum of (lo + k)^{-t} over 0 < k <= hi - lo, by Euler-Maclaurin with three corrections at each end.

    The integrals' difference is taken as lo^u expm1(u log(hi/lo)) / u with
    u = 1 - t, which is log(hi/lo) at u = 0, so t = 1 is finite. `lo` and
    `hi` may be floats or arrays of bases; hi = inf (t > 1) is the Hurwitz
    tail sum_{k >= 1} (lo + k)^{-t}, whose corrections at hi vanish.
    """
    u = 1.0 - t
    r = np.log(hi / lo)
    head = r if u == 0.0 else lo**u * np.expm1(u * r) / u
    return _euler_maclaurin(head, t, lo) - _euler_maclaurin(0.0, t, hi)


def _cut(M: float, rounding=math.ceil) -> int:
    """The integer cut of a real threshold: ceil(M) for "product >= M", floor(M) for "<= M"."""
    if not math.isfinite(M):
        raise DomainError(f"M must be finite, got {M}")
    c = rounding(M)
    if c < 1:
        raise DomainError("M must be >= 1")
    return c


def _head(d: np.ndarray, t: float) -> float:
    """sum_{1 <= v <= top} d[v] v^-t over a sieved table d[0..top]."""
    return float(np.dot(d[1:].astype(float), np.arange(1, len(d), dtype=float) ** (-t)))


def _prefix(d: np.ndarray, t: float) -> np.ndarray:
    """Z[v] = sum_{a <= v} d[a] a^-t for v = 0..top (Z[0] = 0) over a sieved table d[0..top]."""
    z = np.zeros(len(d))
    z[1:] = np.cumsum(d[1:] / np.arange(1, len(d), dtype=float) ** t)
    return z


def _tail(k: int, M: float, t: float):
    """sum_{v >= ceil(M)} d_k(v)/v^t = zeta(t)^k minus the sieve head below the cut.

    Returns the SeriesValue and the table d_k(0..ceil(M) - 1) it read (None
    when the cut is 1), so a caller needing d_k again sieves it once.
    """
    cut = _cut(M)
    d = divisor_table(k, cut - 1) if cut > 1 else None
    zt = zeta(t)
    total = zt ** k
    head = _head(d, t) if d is not None else 0.0
    err = k * zt ** (k - 1) * ZETA_ERR + 1e-15 * (total + head) + 1e-300
    return SeriesValue(total - head, err), d


def _box(ell: int, M: float, t: float) -> SeriesValue:
    """sum_{v <= floor(M)} d_ell(v)/v^t, the finite box sum."""
    top = _cut(M, math.floor)
    value = _head(divisor_table(ell, top), t)  # the sieve budget refuses a huge top
    return SeriesValue(value, 1e-14 * value * math.log(top + 2) + 1e-300)


def series_block_tail(ell: int, M: float) -> SeriesValue:
    """sum over a_1...a_ell >= M of prod a_i^-2, i.e. sum_{v >= ceil(M)} d_ell(v)/v^2."""
    if ell < 1:
        raise DomainError("ell must be >= 1")
    return _tail(ell, M, 2.0)[0]


def series_overlap(r: int, j: int, M: float) -> SeriesValue:
    """Two overlapping constraints sharing the j middle variables.

    sum over (prod a)(prod b) >= M and (prod b)(prod c) >= M, with r outer
    variables on each side, of the product of inverse squares. Grouped on
    v = prod b: unconstrained outer sums when v >= M, and W_r(M/v)^2 below,
    where W_r(y) = sum_{w >= ceil(y)} d_r(w)/w^2. d_j is sieved once, for
    the tail and the weights, and serves as d_r when r = j.
    """
    if r < 1 or j < 1:
        raise DomainError("r and j must be >= 1")
    tail_j, dj = _tail(j, M, 2.0)
    z2 = zeta(2.0)
    value = z2 ** (2 * r) * tail_j.value
    if dj is not None:
        cut = len(dj)
        prefix_r = _prefix(dj if r == j else divisor_table(r, cut - 1), 2.0)
        v = np.arange(1, cut, dtype=float)
        y_cut = np.ceil(M / v).astype(np.int64)  # W_r argument per v
        w = z2 ** r - prefix_r[y_cut - 1]  # y_cut lies in 2..cut
        value += float(np.dot(dj[1:] / v ** 2, w ** 2))
    err = (2 * r + j + 2) * z2 ** (2 * r + j) * ZETA_ERR + 1e-14 * abs(value) + 1e-300
    return SeriesValue(value, err)


def series_harmonic_box(ell: int, M: float) -> SeriesValue:
    """sum over a_1...a_ell <= M of 1/(a_1...a_ell) = sum_{v <= M} d_ell(v)/v."""
    if ell < 1:
        raise DomainError("ell must be >= 1")
    return _box(ell, M, 1.0)


def series_shifted(ell: int, M: float) -> SeriesValue:
    """sum over a_1...a_ell < M and a_2...a_{ell+1} >= M of prod_{i<=ell+1} a_i^-2.

    Grouped on the shared word w = a_2...a_ell (empty for ell = 1): each
    w < M contributes d_{ell-1}(w)/w^2 * Z(y-1) * (zeta(2) - Z(y-1)) at
    y = ceil(M/w), which lies in 2..ceil(M), with Z the prefix of 1/a^2.
    """
    if ell < 1:
        raise DomainError("ell must be >= 1")
    cut = _cut(M)
    if cut < 2:
        raise DomainError("M must be >= 2 for a nonempty constraint")
    z2 = zeta(2.0)
    if ell == 1:
        z = _prefix(divisor_table(1, cut - 1), 2.0)[cut - 1]
        value = float(z * (z2 - z))
    else:
        dw = divisor_table(ell - 1, cut - 1)
        prefix = _prefix(dw if ell == 2 else divisor_table(1, cut - 1), 2.0)
        w = np.arange(1, cut, dtype=float)
        z = prefix[np.ceil(M / w).astype(np.int64) - 1]
        value = float(np.dot(dw[1:] / w ** 2, z * (z2 - z)))
    err = (ell + 2) * z2 ** ell * ZETA_ERR + 1e-14 * abs(value) + 1e-300
    return SeriesValue(value, err)


def series_power_tail(k: int, M: float, t: float) -> SeriesValue:
    """sum over a_1...a_k >= M of prod a_i^-t = zeta(t)^k - sum_{v<ceil(M)} d_k(v)/v^t."""
    if k not in (1, 2, 3):
        raise DomainError("k must be in {1, 2, 3}")
    if t <= 1:
        raise DomainError("infinite power sums require t > 1")
    return _tail(k, M, t)[0]


def series_power_box(ell: int, M: float, s: float) -> SeriesValue:
    """Finite complement sum over a_1...a_ell <= M of (a_1...a_ell)^-s, 0 < s < 1."""
    if ell < 1:
        raise DomainError("ell must be >= 1")
    if not 0 < s < 1:
        raise DomainError("box sums take s in (0, 1)")
    return _box(ell, M, s)


# ---------------------------------------------------------------------------
# asymptotic-ratio scans


@dataclass(frozen=True)
class ScanRow:
    M: float
    value: float
    abs_error_bound: float
    predicted: float
    ratio: float


@dataclass(frozen=True)
class ScanResult:
    series_id: str
    rows: tuple[ScanRow, ...]
    top_decade_spread: float  # max/min ratio over the top decade of M
    within_band: bool
    band: tuple[float, float]


_REAL_KEYS = ("s", "t")  # every other params key is an integer

# id -> (params keys, all required; band for the top-decade ratios;
# SeriesValue at (M, params); predicted shape at (M, params)). The bands were
# measured over M in [1e2, 1e6]; upper-bound-only claims (S2, S7) get wide
# one-sided-ish bands since their ratios drift with log M.
_SCANS = {
    "S1": (
        ("ell",), (0.5, 2.5),
        lambda M, p: series_block_tail(p["ell"], M),
        lambda M, p: math.log(M) ** (p["ell"] - 1) / M,
    ),
    "S2": (
        ("r", "j"), (0.01, 100.0),
        lambda M, p: series_overlap(p["r"], p["j"], M),
        lambda M, p: math.log(M) ** (2 * (p["j"] - 1)) / M,
    ),
    "S3": (
        ("ell",), (0.8, 3.0),
        lambda M, p: series_harmonic_box(p["ell"], M),
        lambda M, p: math.log(M) ** p["ell"],
    ),
    "S4": (
        ("ell",), (0.5, 5.0),
        lambda M, p: series_shifted(p["ell"], M),
        lambda M, p: math.log(M) ** (p["ell"] - 1) / M,
    ),
    "S5": (
        ("ell", "s"), (0.5, 5.0),
        lambda M, p: series_power_box(p["ell"], M, p["s"]),
        lambda M, p: math.log(M) ** (p["ell"] - 1)
        * M ** (1 - p["s"])
        / math.factorial(p["ell"] - 1),
    ),
    "S6": (
        ("t",), (0.5, 5.0),
        lambda M, p: series_power_tail(2, M, p["t"]),
        lambda M, p: M ** (1 - p["t"]) * math.log(M) / (p["t"] - 1),
    ),
    "S7": (
        ("t",), (0.1, 20.0),
        lambda M, p: series_power_tail(3, M, p["t"]),
        lambda M, p: (1 / (p["t"] - 1) + math.log(M)) * M ** (1 - p["t"]),
    ),
    "E0101": (
        ("j",), (0.5, 8.0),
        lambda M, p: series_overlap(1, p["j"], M),
        lambda M, p: math.log(M) ** (p["j"] - 1) / M,
    ),
    "E0102": (
        (), (10.0, 25.0),
        lambda M, p: series_overlap(2, 1, M),
        lambda M, p: 1.0 / M,
    ),
}

SERIES_IDS = tuple(sorted(_SCANS))


def _scan_params(series_id: str, keys: tuple[str, ...], params: dict) -> dict:
    """params checked against the keys the series takes, integer keys as int."""
    if set(params) != set(keys):
        raise DomainError(f"series {series_id} takes params {keys}, got {tuple(params)}")
    for key, value in params.items():
        if key not in _REAL_KEYS and not float(value).is_integer():
            raise DomainError(f"series param {key} must be an integer, got {value!r}")
    return {k: float(v) if k in _REAL_KEYS else int(v) for k, v in params.items()}


def asymptotic_ratio_scan(series_id: str, params: dict, m_grid) -> ScanResult:
    """Evaluate a registered series along an M-grid against its predicted shape.

    `params` must hold exactly the keys the series takes. The band flag
    reports whether every ratio over the top decade of the grid stays inside
    the series' band. An M where the predicted shape is 0 (log M = 0 at M = 1,
    or an underflow) or past float range has no ratio: DomainError.
    """
    if series_id not in _SCANS:
        raise DomainError(f"unknown series id {series_id!r}")
    keys, band, evaluate, predict = _SCANS[series_id]
    params = _scan_params(series_id, keys, params)
    rows = []
    for M in m_grid:
        val = evaluate(float(M), params)
        try:
            pred = predict(float(M), params)
        except OverflowError:
            raise DomainError(
                f"series {series_id} has predicted shape past float range at M = {M!r}: no ratio"
            ) from None
        if pred == 0.0:
            raise DomainError(f"series {series_id} has predicted shape 0 at M = {M!r}: no ratio")
        rows.append(ScanRow(float(M), val.value, val.abs_error_bound, pred, val.value / pred))
    top = max(r.M for r in rows)
    top_rows = [r for r in rows if r.M >= top / 10.0]
    ratios = [r.ratio for r in top_rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    ok = all(band[0] <= r <= band[1] for r in ratios)
    return ScanResult(series_id, tuple(rows), spread, ok, band)


def geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    if points < 2 or not 0 < lo < hi < math.inf:
        raise DomainError("grid requires 0 < lo < hi < inf and points >= 2")
    if 32 * points > _GRID_BUDGET:
        raise ResourceLimitError(f"grid of {points} points exceeds the {_GRID_BUDGET}-byte budget")
    step = (hi / lo) ** (1.0 / (points - 1))
    return [lo * step ** i for i in range(points)]
