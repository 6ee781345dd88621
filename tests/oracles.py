"""Independent brute-force oracles used to pin expected values.

Series oracles enumerate integer tuples directly (recursive loops over
coordinates, integer floor thresholds) with mpmath zeta constants, staying
off the divisor-sieve/Euler-Maclaurin path they check. Event oracles walk
the definitions literally. The trimmed-law centre sums exact Gauss masses of
the cylinders {a_1 = i, a_2 = j}; it uses neither the sampler nor the series
module. The exact quotient law, the Dirichlet-Piltz sum, the word pressure,
the column-at-a-time quotient sampler, the first terms of one scalar stream,
the whole-array collocation rows and the whole-block trimmed-sum reducer
are definitions and slow paths the library's fast paths are checked
against. A forced stream stands in for the sampler with given quotient
rows, for planted and giant products. Per-sample counts of iid coin
events, drawn from the sampler's streams, feed the Chung-Erdos check its
closed-form case. The paper's X_i algebra, its Shulga-Hussain lower-bound
dimensions, the dimension roots of a truncated alphabet and the MAIN3
normaliser are checks of the paper's proofs that no cflab command runs.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import mpmath
import numpy as np

from cflab import mc, pressure
from cflab.cf import lebesgue_quotients
from cflab.errors import DomainError, ResourceLimitError
from cflab.growth import GrowthFunction
from cflab.mc import KeyedStreams, sample_rng
from cflab.series import divisor_table, hurwitz_range, zeta


@lru_cache(maxsize=64)
def zeta_mp(t: float) -> float:
    return float(mpmath.zeta(t))


def tuple_box_le(k: int, cap: int, t: float) -> float:
    """Sum over k-tuples of positive integers with product <= cap of prod a_i^-t."""
    if cap < 1:
        return 0.0
    if k == 0:
        return 1.0
    total = 0.0
    for a in range(1, cap + 1):
        total += a ** (-t) * tuple_box_le(k - 1, cap // a, t)
    return total


def products_le(k: int, cap: int):
    """Yield the product of every k-tuple with product <= cap (with multiplicity)."""
    if cap < 1:
        return
    if k == 0:
        yield 1
        return
    for a in range(1, cap + 1):
        for rest in products_le(k - 1, cap // a):
            yield a * rest


def divisor_counts(k: int, limit: int) -> list[int]:
    """d_k(v) for v = 0..limit (d_k(0) = 0): every ordered k-tuple counted once."""
    counts = [0] * (limit + 1)
    for v in products_le(k, limit):
        counts[v] += 1
    return counts


def _cut(M: float) -> int:
    return math.ceil(M)


def oracle_block_tail(ell: int, M: float) -> float:
    return zeta_mp(2.0) ** ell - tuple_box_le(ell, _cut(M) - 1, 2.0)


def oracle_overlap(r: int, j: int, M: float) -> float:
    z2 = zeta_mp(2.0)
    cut = _cut(M)
    total = (z2**j - tuple_box_le(j, cut - 1, 2.0)) * z2 ** (2 * r)
    for w in products_le(j, cut - 1):
        inner_cut = (cut + w - 1) // w  # ceil(M/w) for integer thresholds
        t_r = z2**r - tuple_box_le(r, inner_cut - 1, 2.0)
        total += w ** (-2.0) * t_r**2
    return total


def oracle_harmonic_box(ell: int, M: float) -> float:
    return tuple_box_le(ell, math.floor(M), 1.0)


def oracle_shifted(ell: int, M: float) -> float:
    z2 = zeta_mp(2.0)
    cut = _cut(M)
    z2_prefix = np.concatenate([[0.0], np.cumsum(np.arange(1, cut + 2, dtype=float) ** -2.0)])
    total = 0.0
    for w in products_le(ell - 1, cut - 1):
        y = (cut + w - 1) // w  # ceil(M/w)
        a1_max = y - 1
        if a1_max < 1:
            continue
        total += w ** (-2.0) * z2_prefix[a1_max] * (z2 - z2_prefix[y - 1])
    return total


def oracle_power_tail(k: int, M: float, t: float) -> float:
    return zeta_mp(t) ** k - tuple_box_le(k, _cut(M) - 1, t)


def oracle_power_box(ell: int, M: float, s: float) -> float:
    return tuple_box_le(ell, math.floor(M), s)


def hp_block_tail(ell: int, M: float, table) -> float:
    """High-precision (30 dps) recomputation of the hybrid block-tail formula."""
    with mpmath.workdps(30):
        total = mpmath.zeta(2) ** ell
        cut = _cut(M)
        head = mpmath.mpf(0)
        for v in range(1, cut):
            head += int(table[v]) / mpmath.mpf(v) ** 2
        return float(total - head)


# ---------------------------------------------------------------------------
# event-detector oracles


def brute_first_F(word, ell: int, phi, horizon: int):
    """Literal scan of the definition: first n with two starts beating phi(n)."""
    prods = [math.prod(word[i : i + ell]) for i in range(horizon)]
    for n in range(1, horizon + 1):
        qual = [i + 1 for i in range(n) if phi.meets_threshold(prods[i], n)]
        if len(qual) >= 2:
            return n, qual[0], qual[-1]
    return None


def brute_first_E(word, ell: int, phi, horizon: int):
    for n in range(1, horizon + 1):
        if phi.meets_threshold(math.prod(word[n - 1 : n - 1 + ell]), n):
            return n
    return None


def brute_F_count(word, ell: int, phi, horizon: int) -> int:
    """Levels n <= horizon where block n and some earlier block both beat phi(n).

    An earlier block beats phi(n) iff the largest earlier product does.
    """
    count, top = 0, 0
    for n in range(1, horizon + 1):
        p = math.prod(word[n - 1 : n - 1 + ell])
        if phi.meets_threshold(p, n) and phi.meets_threshold(top, n):
            count += 1
        top = max(top, p)
    return count


# ---------------------------------------------------------------------------
# the whole-block trimmed-sum reducer


def sums_and_maxes_cumsum(cfg, source, count: int) -> np.ndarray:
    """Running block-product sum (out[0]) and maximum (out[1]) per checkpoint and row.

    Writes a full cumsum and maximum.accumulate of every depth block of the
    whole horizon and reads the checkpoint columns.
    """
    cps = cfg.checkpoints
    out = np.empty((2, len(cps), count))
    run_sum = np.zeros(count)
    run_max = np.zeros(count)
    next_cp = 0
    for start, prod, qa in mc._depth_blocks(cfg, source):
        mx = np.maximum.accumulate(prod, axis=1)
        np.maximum(mx, run_max[:, None], out=mx)
        cs = np.cumsum(prod, axis=1, out=prod)
        cs += run_sum[:, None]
        while next_cp < len(cps) and cps[next_cp] <= start + prod.shape[1]:
            col = cps[next_cp] - start - 1
            out[:, next_cp] = cs[:, col], mx[:, col]
            next_cp += 1
        run_sum = cs[:, -1].copy()
        run_max = mx[:, -1].copy()
        del prod, qa, mx, cs  # the next depth block is drawn without this one
    return out


# ---------------------------------------------------------------------------
# finite-n centre of the ell = 2 trimmed law: X = a_1 a_2 under the Gauss measure
#
# The cylinder {a_1 = i, a_2 = j} has Gauss mass log1p(1/((ij+i+1)(ij+j+1)))/log 2,
# symmetric in i and j, and {a_1 = i, a_2 > J} has mass
# log1p(1/(i((i+1)(J+1)+1)))/log 2. Sums over ij <= t split at s = isqrt(t):
# pairs with i <= s, pairs with j <= s, and the corner i, j > s. The weights
# 1/(i^2 j^2) of series.series_harmonic_box are not these masses: they put
# c(10^6) at 1.218, an O(1/log n) error.

_LOG2 = math.log(2.0)
_CHUNK = 1 << 20


def gauss_pair_tail(t: float) -> float:
    """P(a_1 a_2 > t) under the Gauss measure, in O(sqrt t)."""
    T = math.floor(t)
    s = math.isqrt(T)
    i = np.arange(1, s + 1, dtype=np.float64)

    def beyond(J):  # P(a_1 = i, a_2 > J) for each i <= s
        return np.log1p(1.0 / (i * ((i + 1.0) * (J + 1.0) + 1.0))) / _LOG2

    # corner: P(a_1 > s, a_2 > s) = P(a_2 > s) - P(a_1 <= s, a_2 > s), stationarity
    corner = math.log1p(1.0 / (s + 1)) / _LOG2 - math.fsum(beyond(float(s)))
    return 2.0 * math.fsum(beyond(np.floor(T / i))) + corner


def gauss_pair_truncated_mean(t: float) -> float:
    """E[a_1 a_2; a_1 a_2 <= t] under the Gauss measure, by hyperbola enumeration."""
    T = math.floor(t)
    offsets = np.arange(_CHUNK, dtype=np.float64)
    buf_ij, buf_b, buf_w = (np.empty(_CHUNK) for _ in range(3))
    parts = []
    for i in range(1, math.isqrt(T) + 1):
        top = T // i
        for lo in range(i, top + 1, _CHUNK):  # j >= i, doubled off the diagonal
            m = min(_CHUNK, top + 1 - lo)
            off, ij, b, w = offsets[:m], buf_ij[:m], buf_b[:m], buf_w[:m]
            np.multiply(off, i, out=ij)
            ij += i * lo  # ij
            np.multiply(off, i + 1.0, out=b)
            b += (i + 1.0) * lo + 1.0  # ij + j + 1
            np.add(ij, i + 1.0, out=w)
            w *= b
            np.reciprocal(w, out=w)
            np.log1p(w, out=w)  # log 2 times the cylinder mass
            parts.append(2.0 * float(np.dot(ij, w)) - (float(ij[0] * w[0]) if lo == i else 0.0))
    return math.fsum(parts) / _LOG2


def pair_trim_level(n: int) -> int:
    """t_n: the least integer t >= 0 with n P(a_1 a_2 > t) <= 1."""
    lo, hi = -1, 1
    while n * gauss_pair_tail(hi) > 1.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if n * gauss_pair_tail(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def trimmed_centre_ell2(n: int) -> float:
    """c(n) = E[X; X <= t_n] / log^2 n, the finite-n centre of (S_n - max)/(n log^2 n)."""
    return gauss_pair_truncated_mean(pair_trim_level(n)) / math.log(n) ** 2


# ---------------------------------------------------------------------------
# Chung-Erdos closed forms for iid events


def coin_counts(p: float, N: int, samples: int, seed: int) -> np.ndarray:
    """Each sample's number of events when its N events are iid coins of probability p.

    Sample s reads the N uniforms of its sampler stream, mc.sample_rng(seed, s),
    through the sampler's kernel, mc.KeyedStreams.
    """
    streams, u = KeyedStreams(seed), np.empty(N)
    counts = np.empty(samples, dtype=np.int64)
    for sid in range(samples):
        streams.fill(sid, 0, u)
        counts[sid] = np.count_nonzero(u < p)
    return counts


def coin_closed_forms(p: float, N: int) -> tuple[float, float]:
    lhs = 1.0 - (1.0 - p) ** N
    rhs = (N * p) ** 2 / (N * p + N * (N - 1) * p * p)
    return lhs, rhs


def coin_rhs_sigma(p: float, N: int, samples: int) -> float:
    """Delta-method standard error of the MC rhs estimate for iid coin events.

    Per sample, u = X and d = X^2 with X ~ Binomial(N, p); the estimator is
    rhs = mean(u)^2 / mean(d). Exact binomial moments drive the propagation.
    """
    ks = np.arange(N + 1, dtype=float)
    pmf = np.array([math.comb(N, k) * p**k * (1 - p) ** (N - k) for k in range(N + 1)])
    m = [float(np.dot(pmf, ks**j)) for j in range(5)]
    var_u = m[2] - m[1] ** 2
    var_d = m[4] - m[2] ** 2
    cov_ud = m[3] - m[1] * m[2]
    U, D = m[1], m[2]
    dU = 2.0 * U / D
    dD = -(U**2) / D**2
    var = (dU**2 * var_u + dD**2 * var_d + 2.0 * dU * dD * cov_ud) / samples
    return math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# forced quotient rows


class ForcedStream:
    """mc.QuotientSampler's next_block and keep over the rows stream_fn(sample_id, length), held whole.

    ForcedStream.of(stream_fn, cfg) takes the sampler's (seed, sample_ids) and
    ignores the seed; its rows are cfg's horizon and (ell - 1) d column tail
    long. Patched over mc.QuotientSampler, it feeds every scan of one process
    (threads = 1).
    """

    def __init__(self, stream_fn, length: int, seed: int, sample_ids):
        self._rows = np.vstack([stream_fn(sid, length) for sid in sample_ids])
        self._fed = 0

    @classmethod
    def of(cls, stream_fn, cfg):
        return partial(cls, stream_fn, cfg.horizon + (cfg.ell - 1) * cfg.d)

    def next_block(self, depth: int) -> np.ndarray:
        self._fed += depth
        if self._fed > self._rows.shape[1]:
            raise ValueError("forced rows ended before the scan")
        return self._rows[:, self._fed - depth : self._fed]

    def keep(self, rows: np.ndarray) -> None:
        self._rows = self._rows[rows]


# ---------------------------------------------------------------------------
# exact quotient law, summatory divisor function, word pressure, column and scalar samplers


class ColumnQuotientSampler:
    """The quotient sampler one depth column at a time: the bitwise reference.

    Same streams and recursion r <- 1/(a + r) as mc.QuotientSampler, stepped
    over all samples one column per numpy step.
    """

    def __init__(self, seed: int, sample_ids):
        self._rngs = [sample_rng(seed, sid) for sid in sample_ids]
        self.count = len(self._rngs)
        self._r = np.zeros(self.count)

    def next_block(self, depth: int) -> np.ndarray:
        """Next `depth` quotient columns, shape (samples, depth), float64."""
        out = np.empty((self.count, depth))
        block = np.empty((depth, self.count))
        for i, rng in enumerate(self._rngs):
            block[:, i] = rng.random(depth)
        r = self._r
        scratch = np.empty(self.count)
        for t in range(depth):
            u = block[t]
            np.multiply(1.0 + r, u, out=scratch)
            scratch /= 1.0 - u
            a = np.ceil(scratch)
            np.maximum(a, 1.0, out=a)  # u = 0 (prob 2^-53) lands on a = 1
            out[:, t] = a
            r = 1.0 / (a + r)
        self._r = r
        return out


def sample_quotients(rng, count: int) -> list[int]:
    """First `count` quotients of one scalar stream, cf.lebesgue_quotients(rng)."""
    it = lebesgue_quotients(rng)
    return [next(it) for _ in range(count)]


def quotient_law(k: int, r) -> object:
    """Exact conditional law P(a_{n+1} = k | past) = (1+r)/((k+r)(k+r+1)).

    The past enters only through r = q_{n-1}/q_n: the probability is the
    ratio |I_{n+1}(word, k)| / |I_n(word)| of exact interval lengths, which
    telescopes to the displayed form (sums to 1 over k >= 1).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    return (1 + r) / ((k + r) * (k + r + 1))


def quotient_cdf(m: int, r) -> object:
    """P(a_{n+1} <= m | past) = 1 - (1+r)/(m+1+r), exact for exact r."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m == 0:
        return 0 * r
    return 1 - (1 + r) / (m + 1 + r)


def dirichlet_piltz(k: int, limit: int) -> int:
    """Exact summatory function D_k(M) = sum_{v <= M} d_k(v)."""
    return int(divisor_table(k, limit).sum())


def word_pressure_oracle(s: float, alphabet, n: int, budget: int = 10_000_000) -> float:
    """(1/n) log sum over words in A^n of q_n(word)^{-2s}, continuants exact.

    Evaluates the ergodic sum at the left endpoint of each cylinder, which is
    legitimate because the potential has vanishing variations. Enumeration is
    level-by-level over exact integer continuant pairs.
    """
    A = sorted(set(int(a) for a in alphabet))
    if not A or A[0] < 1:
        raise DomainError("alphabet must contain positive integers")
    if n < 1:
        raise DomainError("n must be >= 1")
    if len(A) ** n > budget:
        raise ResourceLimitError(f"|A|^n = {len(A) ** n} exceeds budget {budget}")
    if (n + 1) * math.log2(max(A) + 1) > 62:
        raise ResourceLimitError("continuants would overflow int64")
    arr = np.asarray(A, dtype=np.int64)
    q_prev = np.ones(1, dtype=np.int64)
    q = None
    for _ in range(n):
        if q is None:
            q = arr.copy()
            q_prev = np.ones(len(arr), dtype=np.int64)
        else:
            q_new = (arr[:, None] * q[None, :] + q_prev[None, :]).reshape(-1)
            q_prev = np.tile(q, len(arr))
            q = q_new
    total = float(np.sum(q.astype(float) ** (-2.0 * s)))
    return math.log(total) / n


def barycentric_rows(y: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Interpolation rows, row p mapping node values to f(y[p]), in whole-array passes."""
    d = y[:, None] - x[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    rows = w[None, :] / d
    with np.errstate(divide="ignore", invalid="ignore"):  # a unit row's weights may sum to 0
        rows /= rows.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    if exact.any():
        rows[exact] = hit[exact].astype(float)
    return rows


def collocation_matrix(s: float, N: int, params) -> np.ndarray:
    """The literal N-branch transfer-operator matrix, from whole-array rows per chunk of branches.

    Chunks of about 4·10^6 row entries (976 branches at 64 points) bound its
    memory; at N <= 976 it is one einsum over all branches, as in the library's
    explicit branches.
    """
    x, w = pressure._cheb_nodes_weights(params.grid_points)
    m = len(x)
    chunk = max(1, 4_000_000 // (m * m))
    A = np.zeros((m, m))
    for lo in range(1, N + 1, chunk):
        a = np.arange(lo, min(lo + chunk, N + 1), dtype=float)
        y = 1.0 / (a[:, None] + x[None, :])
        rows = barycentric_rows(y.reshape(-1), x, w).reshape(len(a), m, m)
        A += np.einsum("ai,aij->ij", y ** (2.0 * s), rows)
    return A


def tail_bracket(s: float, N: int, params) -> tuple[np.ndarray, np.ndarray]:
    """Two N-branch matrices whose pressures bracket the whole Gauss system's, for 2s > 1.

    The branches a > N add sum_{a>N} (a+x)^{-2s} f(1/(a+x)). The leading
    eigenfunction f decreases on [0, 1], so f at those points lies between f
    at the largest one, y* = 1/(N+1+x), and f(0). The lower matrix puts the
    tail mass on the rows at y*; the upper one on the node x = 0.
    """
    x, w = pressure._cheb_nodes_weights(params.grid_points)
    A = collocation_matrix(s, N, params)
    mass = hurwitz_range(2.0 * s, N + x, math.inf)[:, None]
    lower = A + mass * barycentric_rows(1.0 / (N + 1.0 + x), x, w)
    upper = A + mass * (x == 0.0)  # the unit row of the node x = 0
    return lower, upper


@lru_cache(maxsize=1)
def near_half_coefficient() -> float:
    """c2 in P(s) + log e = gamma e + c2 e^2 + O(e^3), e = 2s - 1, for the whole Gauss system.

    c2 = -gamma_1 - gamma^2/2 - sum_{a >= 1} (psi(1 + 1/a) - psi(1))/a, with gamma_1 the first
    Stieltjes constant; test_pressure.TestNearOneHalf derives it.
    """
    tail = mpmath.nsum(lambda a: (mpmath.digamma(1 + 1 / a) - mpmath.digamma(1)) / a, [1, mpmath.inf])
    return float(-mpmath.stieltjes(1) - mpmath.euler**2 / 2 - tail)


def box_log_continuants(m: int, n_trunc: int) -> np.ndarray:
    """log q_m over the box {1..n_trunc}^m, one entry per word, via the closed continuant forms."""
    a = np.arange(1, n_trunc + 1, dtype=float)
    if m == 1:
        q = a
    elif m == 2:
        q = a[:, None] * a[None, :] + 1.0  # q2(a1, a2) = a2 a1 + 1
    else:
        a1 = a[:, None, None]
        a2 = a[None, :, None]
        a3 = a[None, None, :]
        q = a3 * (a2 * a1 + 1.0) + a1  # q3 = a3 q2 + q1
    return np.log(q).reshape(-1)


def continuant_multiset_outer(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """pressure._continuant_multiset at m = 2 by one bincount over every word's q2 = a1 a2 + 1."""
    a = np.arange(1, n_trunc + 1, dtype=np.int64)
    q = np.multiply.outer(a, a)  # a1 a2, indexed (a1, a2)
    q += 1
    counts = np.bincount(q.reshape(-1))
    q = np.flatnonzero(counts)
    return np.log(q.astype(float)), counts[q].astype(float)


def s_m_partial_zeta(B: float, m: int) -> float:
    """pressure.s_m_oracle summing the box word by word and the partial zeta sum Z(2s) directly.

    The library takes zeta(2s) alone at m = 1, where q_1 = a makes the box Z(2s),
    and sums the box over distinct continuants at m = 2, 3.
    """
    n_trunc = pressure.DEFAULT_SM_TRUNC[m]
    logq = box_log_continuants(m, n_trunc)

    def condition(s: float) -> bool:
        t = 2.0 * s
        if t <= 1.0:
            return False
        box = float(np.sum(np.exp(-t * logq)))
        part = float(np.sum(np.arange(1, n_trunc + 1, dtype=float) ** (-t)))
        tail = zeta(t) ** m - part**m
        return box + tail <= math.exp(m * float(pressure.g3(s)) * math.log(B))

    lo, hi = 0.5001, 8.0
    while hi - lo > pressure.DEFAULT_PARAMS.bisect_tol:
        mid = 0.5 * (lo + hi)
        if condition(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the paper's algebra and constructions, which no cflab command runs


def x_functions(s):
    """(X1, X2, X3) = ((1-s)^2, s^2, rest)/(s^2 - s + 1); exact when s rational."""
    s = pressure._lift(s)
    den = s**2 - s + 1
    x1 = (1 - s) ** 2 / den
    x2 = s**2 / den
    return x1, x2, 1 - x1 - x2


def shulga_hussain_dims(A, params=pressure.DEFAULT_PARAMS) -> tuple[list[float], float]:
    """Dimensions d_i of the lower-bound construction with targets a_n ~ A_i^n.

    beta_{-1} = 1, beta_i = A_i beta_{i-1}; d_i is the root of
    P(s) = s log beta_i - (1-s) log beta_{i-1}, that is f(s) = s u - (1-s) v
    with u = log beta_i, v = log beta_{i-1} and log B = 1. Returns (d list, min d_i).
    """
    if not A or any(a <= 1 for a in A):
        raise DomainError("all A_i must exceed 1")
    log_betas = [0.0]
    for a in A:
        log_betas.append(log_betas[-1] + math.log(a))
    dims = [
        pressure._dimension_root(lambda s, u=u, v=v: s * u - (1.0 - s) * v, 1.0, params)[0]
        for v, u in zip(log_betas, log_betas[1:])
    ]
    return dims, min(dims)


def truncated_root(f, log_B: float, N: int, params=pressure.DEFAULT_PARAMS) -> float:
    """Root of the N-branch P(s, N) = f(s) log B, bisected on pressure._BRACKET, whose ends must hold."""
    lo, hi = pressure._bisect(lambda s: not pressure.transfer_pressure(s, N, params) - f(s) * log_B > 0.0,
                              *pressure._BRACKET, params.bisect_tol)
    return 0.5 * (lo + hi)


def wlog_threshold(n: int) -> float:
    """Solution x_n of x / log^2 x = n on the increasing branch x >= e^2.

    Newton iteration from x0 = n log^2(n + e^2), relative tolerance 1e-12.
    The map x -> x/log^2 x attains its minimum e^2/4 at x = e^2, so for
    n < 2 the equation has no root on the branch; such n are clamped to 2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    target = max(n, 2)
    e2 = math.e ** 2
    x = target * math.log(target + e2) ** 2
    for _ in range(200):
        lx = math.log(x)
        fx = x / lx ** 2 - target
        dfx = (lx - 2.0) / lx ** 3
        x_new = x - fx / dfx
        if x_new <= e2:
            x_new = (x + e2) / 2.0
        if abs(x_new - x) <= 1e-12 * abs(x):
            return x_new
        x = x_new
    return x


def normalize_for_main3(f: GrowthFunction, horizon: int) -> GrowthFunction:
    """psi(n) = max(phi(n), x_n) as a table; preserves MAIN3 divergence.

    The returned function dominates phi, satisfies psi(n) >= n log^2 psi(n)
    for all n past the finite patch, and is patched to be non-decreasing.
    """
    x = np.array([wlog_threshold(n) for n in range(1, horizon + 1)])
    return GrowthFunction.table(np.maximum.accumulate(np.maximum(f.phi_array(horizon), x)))
