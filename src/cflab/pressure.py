"""Pressure functions over the Gauss system and Hausdorff-dimension solvers.

The pressure P(s) = P(T, -s log|T'|) is the log of the leading eigenvalue of
the averaging operator (Lf)(x) = sum_a (a+x)^{-2s} f(1/(a+x)). Potentials with
a constant extra term split off: P(T, -f(s) log B - s log|T'|) = P(s) -
f(s) log B, so one spectral computation per s serves every target set.

Discretization: Chebyshev collocation with barycentric interpolation, power
iteration with Rayleigh-quotient stopping. The alphabet is truncated at N;
by default the omitted branches a > N are reinstated through an analytic
Euler-Maclaurin stub evaluated at the largest omitted branch point
y* = 1/(N+1+x). The stub under-counts the omitted mass (the integrand is
decreasing), so eigenvalues, pressures, and dimension roots are approached
from below; set tail_correction=False for the literal truncated-alphabet
operator.

The barycentric rows do not depend on s. A dimension solve builds them once
per alphabet (collocation_rows) and reuses them at every bisection step when
they fit _ROWS_BUDGET bytes (N = 1000 at 64 points takes 33 MB); above that,
and for a single transfer_pressure call, they are streamed chunk by chunk
(about _CHUNK_ENTRIES entries, 32 MB at 64 points) through one chunk buffer
that every chunk of the evaluation reuses. Rows are built in blocks of
_BLOCK_ROWS, small enough to stay in cache, straight into their chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceLimitError
from .growth import GrowthFunction
from .series import hurwitz_tail, zeta

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_CHUNK_ENTRIES = 4_000_000  # barycentric row entries per streamed chunk of branches
_ROWS_BUDGET = 64_000_000  # bytes of rows one alphabet may hold across s
_BLOCK_ROWS = 2_048  # rows built at a time: 1 MB at 64 points, held in L2


# ---------------------------------------------------------------------------
# scalar algebra: g3, X_i, Wang-Wu f_ell


def _lift(s):
    return Fraction(s) if isinstance(s, int) else s


def g3(s):
    """(3s^3 - 5s^2 + 4s - 1)/(s^2 - s + 1); exact when s is rational."""
    s = _lift(s)
    return (3 * s**3 - 5 * s**2 + 4 * s - 1) / (s**2 - s + 1)


def x_functions(s):
    """(X1, X2, X3) = ((1-s)^2, s^2, rest)/(s^2 - s + 1); exact when s rational."""
    s = _lift(s)
    den = s**2 - s + 1
    x1 = (1 - s) ** 2 / den
    x2 = s**2 / den
    return x1, x2, 1 - x1 - x2


def wang_wu_f(ell: int, s):
    """f_1 = s, f_{n+1} = s f_n / (1 - s + f_n), iterated to f_ell.

    At s = 0 every iterate is 0 (the limit value), so no special casing is
    needed for ell > 1.
    """
    if ell < 1:
        raise DomainError("ell must be >= 1")
    s = _lift(s)
    f = s
    for _ in range(ell - 1):
        f = s * f / (1 - s + f)
    return f


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialSpec:
    """Constant part of the potential added to -s log|T'|.

    Families keyed to the target sets: wang_wu(ell) for E_ell, ttw for F1
    (f = 3s-1), tz for F2 (f = 3s-1-s^2), g3 for F3, affine_beta(u, v) for
    the lower-bound potentials -s*u + (1-s)*v with u = log beta_i,
    v = log beta_{i-1}.
    """

    kind: str
    ell: int = 1
    u: float = 0.0
    v: float = 0.0

    @classmethod
    def wang_wu(cls, ell: int) -> "PotentialSpec":
        return cls("wang_wu", ell=ell)

    @classmethod
    def ttw(cls) -> "PotentialSpec":
        return cls("ttw")

    @classmethod
    def tz(cls) -> "PotentialSpec":
        return cls("tz")

    @classmethod
    def g3(cls) -> "PotentialSpec":
        return cls("g3")

    @classmethod
    def affine_beta(cls, u: float, v: float) -> "PotentialSpec":
        return cls("affine_beta", u=u, v=v)

    def f(self, s: float) -> float:
        """Multiplier of log B for the B-scaled families."""
        if self.kind == "wang_wu":
            return float(wang_wu_f(self.ell, s))
        if self.kind == "ttw":
            return 3.0 * s - 1.0
        if self.kind == "tz":
            return 3.0 * s - 1.0 - s * s
        if self.kind == "g3":
            return float(g3(s))
        raise DomainError(f"potential {self.kind!r} has no log-B multiplier")

    def offset(self, s: float, log_B: float) -> float:
        """Constant term of the potential at parameter s."""
        if self.kind == "affine_beta":
            return -s * self.u + (1.0 - s) * self.v
        return -self.f(s) * log_B


@dataclass(frozen=True)
class PressureSolverParams:
    alphabet_max: int = 100_000
    grid_points: int = 64
    power_iter_tol: float = 1e-10
    bisect_tol: float = 1e-4
    max_iter: int = 500
    escalation: tuple[int, ...] = (100, 1_000, 10_000)
    tail_correction: bool = True
    tail_min_s: float = 0.505  # stub needs 2s > 1; below this, pure truncation
    bracket: tuple[float, float] = (0.45, 1.0)

    def __post_init__(self):
        if self.grid_points < 2:
            raise DomainError("grid_points must be >= 2")
        if not self.bisect_tol > 0:
            raise DomainError("bisect_tol must be positive")


DEFAULT_PARAMS = PressureSolverParams()


@dataclass(frozen=True)
class DimensionResult:
    s: float
    bracket: tuple[float, float]
    alphabet_used: int
    branch: str
    diagnostics: tuple = ()


# ---------------------------------------------------------------------------
# transfer-operator pressure


def _cheb_nodes_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points of the second kind on [0, 1] with barycentric weights."""
    k = np.arange(m)
    x = 0.5 * (1.0 + np.cos(np.pi * k / (m - 1)))  # x[0] = 1 down to x[-1] = 0
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _barycentric_rows(y: np.ndarray, x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Interpolation row vectors into out, shape (len(y), m): row p maps node values to f(y[p]).

    Built _BLOCK_ROWS rows at a time, so a block's differences stay in cache in
    one scratch array. Every entry takes the whole-array build's operations:
    w / (y - x), then a division by the row sum. A y on a node divides by a zero
    difference, which makes its row sum inf or NaN; only those rows are checked
    for a node, and one that has one becomes its unit row.
    """
    d = np.empty((min(_BLOCK_ROWS, len(y)), len(x)))
    sums = np.empty((len(d), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(y), _BLOCK_ROWS):
            rows = out[lo : lo + _BLOCK_ROWS]
            k = len(rows)
            np.subtract(y[lo : lo + k, None], x[None, :], out=d[:k])
            np.divide(w[None, :], d[:k], out=rows)
            rows /= np.sum(rows, axis=1, keepdims=True, out=sums[:k])
            odd = np.flatnonzero(~np.isfinite(sums[:k, 0]))
            if len(odd):
                hit = d[odd] == 0.0
                exact = hit.any(axis=1)
                rows[odd[exact]] = hit[exact]
    return out


def _chunk_len(m: int) -> int:
    """Branches a per chunk: about _CHUNK_ENTRIES row entries, at least one branch."""
    return max(1, _CHUNK_ENTRIES // (m * m))


def _grid(params: PressureSolverParams) -> tuple[np.ndarray, np.ndarray]:
    """Collocation nodes and weights, once one chunk of rows is known to fit the budget."""
    m = params.grid_points
    piece = _chunk_len(m) * m * m * 8
    if piece > _ROWS_BUDGET:
        raise ResourceLimitError(
            f"grid_points = {m} needs {piece} bytes of rows per chunk, over {_ROWS_BUDGET}"
        )
    return _cheb_nodes_weights(m)


def _row_chunks(N: int, x: np.ndarray, w: np.ndarray, reuse: bool):
    """Per chunk of branches a <= N: y = 1/(a+x), shape (na, m), and its rows (na, m, m).

    With reuse, every chunk's rows go into one buffer, overwritten by the next chunk.
    """
    m = len(x)
    chunk = _chunk_len(m)
    buf = None
    for lo in range(1, N + 1, chunk):
        a = np.arange(lo, min(lo + chunk, N + 1), dtype=float)
        y = 1.0 / (a[:, None] + x[None, :])
        if buf is None or not reuse:
            buf = np.empty((len(a), m, m))  # the first chunk is the largest
        rows = buf[: len(a)]
        _barycentric_rows(y.reshape(-1), x, w, rows.reshape(-1, m))
        yield y, rows


def _stub_rows(N: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows at the tail stub's point y* = 1/(N+1+x)."""
    m = len(x)
    return _barycentric_rows(1.0 / (N + 1.0 + x), x, w, np.empty((m, m)))


class CollocationRows:  # a plain class: a dataclass adds about 0.6 ms to importing cflab
    """The s-independent part of the collocation matrix for one alphabet N.

    `chunks` holds the streamed path's (y, rows) pairs chunk by chunk and
    `stub` the tail-stub rows, so a matrix built from them is bitwise the
    streamed one.
    """

    def __init__(self, N: int, grid_points: int, chunks: tuple, stub: np.ndarray):
        self.N, self.grid_points, self.chunks, self.stub = N, grid_points, chunks, stub

    @property
    def nbytes(self) -> int:
        return self.stub.nbytes + sum(y.nbytes + rows.nbytes for y, rows in self.chunks)


def collocation_rows(
    N: int, params: PressureSolverParams = DEFAULT_PARAMS
) -> CollocationRows | None:
    """Rows to reuse across s at alphabet N, or None when they exceed _ROWS_BUDGET."""
    x, w = _grid(params)
    m = len(x)
    if 8 * (N * m * (m + 1) + m * m) > _ROWS_BUDGET:
        return None
    return CollocationRows(N, m, tuple(_row_chunks(N, x, w, reuse=False)), _stub_rows(N, x, w))


def _transfer_matrix(
    s: float, N: int, params: PressureSolverParams, rows: CollocationRows | None = None
) -> np.ndarray:
    x, w = _grid(params)
    m = len(x)
    A = np.zeros((m, m))
    for y, piece in rows.chunks if rows is not None else _row_chunks(N, x, w, reuse=True):
        A += np.einsum("ai,aij->ij", y ** (2.0 * s), piece)
    if params.tail_correction and s >= params.tail_min_s and N >= 50:
        c = N + x  # tail over a >= N+1: base c + k with k >= 1
        tail = hurwitz_tail(2.0 * s, c)
        A += tail[:, None] * (rows.stub if rows is not None else _stub_rows(N, x, w))
    return A


def transfer_pressure(
    s: float,
    N: int,
    params: PressureSolverParams = DEFAULT_PARAMS,
    rows: CollocationRows | None = None,
) -> float:
    """log of the leading eigenvalue of the (tail-corrected) truncated operator.

    Power iteration on the collocation matrix, stopping when successive
    Rayleigh quotients differ by less than power_iter_tol (relative). `rows`
    from collocation_rows(N, params) skips rebuilding the s-independent
    rows; without it they are streamed chunk by chunk and nothing is kept.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not 0 < s < math.inf:
        raise DomainError(f"s must be positive and finite, got {s}")
    if N > params.alphabet_max:
        raise ResourceLimitError(f"N exceeds alphabet_max = {params.alphabet_max}")
    if rows is not None and (rows.N, rows.grid_points) != (N, params.grid_points):
        raise DomainError("rows were built for another alphabet or grid")
    A = _transfer_matrix(s, N, params, rows)
    f = np.ones(params.grid_points)
    f /= np.linalg.norm(f)
    trace = []
    prev = None
    for it in range(params.max_iter):
        g = A @ f
        lam = float(f @ g)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            raise ConvergenceError("power iteration collapsed to zero", trace)
        f = g / nrm
        trace.append(lam)
        if prev is not None and abs(lam - prev) <= params.power_iter_tol * max(1.0, abs(lam)):
            return math.log(lam)
        prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {params.max_iter} steps", trace
    )


# ---------------------------------------------------------------------------
# dimension roots


def _pressure_gap(s, log_B, potential, N, params, rows):
    return transfer_pressure(s, N, params, rows) + potential.offset(s, log_B)


def _root_at_alphabet(potential, log_B, N, params):
    rows = collocation_rows(N, params)  # dropped when this alphabet's solve returns
    lo, hi = params.bracket
    g_lo = _pressure_gap(lo, log_B, potential, N, params, rows)
    g_hi = _pressure_gap(hi, log_B, potential, N, params, rows)
    evals = 2
    if g_lo <= 0.0:
        return lo, (lo, lo), evals  # root at or below the bracket floor
    if g_hi > 0.0:
        return hi, (hi, hi), evals  # pressure still positive at s = 1
    while hi - lo > params.bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if _pressure_gap(mid, log_B, potential, N, params, rows) > 0.0:
            lo = mid
        else:
            hi = mid
        evals += 1
    return 0.5 * (lo + hi), (lo, hi), evals


def _escalated_root(potential, log_B, params) -> DimensionResult:
    diagnostics = []
    prev = None
    result = None
    for N in params.escalation:
        if N > params.alphabet_max:
            break
        root, bracket, evals = _root_at_alphabet(potential, log_B, N, params)
        diagnostics.append({"alphabet": N, "root": root, "evaluations": evals})
        result = DimensionResult(root, bracket, N, "B_finite", tuple(diagnostics))
        if prev is not None and abs(root - prev) < 2.0 * params.bisect_tol:
            return result
        prev = root
    return result


SET_POTENTIALS = {
    "E1": PotentialSpec.wang_wu(1),
    "E2": PotentialSpec.wang_wu(2),
    "E3": PotentialSpec.wang_wu(3),
    "F1": PotentialSpec.ttw(),
    "F2": PotentialSpec.tz(),
    "F3": PotentialSpec.g3(),
}


def hausdorff_dim(
    set_id: str, phi: GrowthFunction, params: PressureSolverParams = DEFAULT_PARAMS
) -> DimensionResult:
    """Hausdorff dimension of E_ell(phi) or F_ell(phi) from the growth constants.

    B = 1 gives dimension 1 exactly; B = infinity gives 1/(1+b) exactly; in
    between the dimension is the root of P(s) = f(s) log B with f the set's
    potential multiplier, solved by bisection with alphabet escalation until
    two successive alphabets agree within 2 * bisect_tol.
    """
    if set_id not in SET_POTENTIALS:
        raise DomainError(f"unknown set {set_id!r}; choose from {sorted(SET_POTENTIALS)}")
    gc = phi.growth_constants()
    if gc.log_B == 0.0:
        return DimensionResult(1.0, (1.0, 1.0), 0, "B=1")
    if math.isinf(gc.log_B):
        val = 1.0 / (1.0 + gc.b)
        return DimensionResult(val, (val, val), 0, "B=inf")
    return _escalated_root(SET_POTENTIALS[set_id], gc.log_B, params)


def shulga_hussain_dims(
    A: Sequence[float], params: PressureSolverParams = DEFAULT_PARAMS
) -> tuple[list[float], float]:
    """Dimensions d_i of the lower-bound construction with targets a_n ~ A_i^n.

    beta_{-1} = 1, beta_i = A_i beta_{i-1}; d_i is the root of
    P(s) = s log beta_i - (1-s) log beta_{i-1}. Returns (d list, min d_i).
    """
    if not A or any(a <= 1 for a in A):
        raise DomainError("all A_i must exceed 1")
    log_betas = [0.0]
    for a in A:
        log_betas.append(log_betas[-1] + math.log(a))
    dims = []
    for i in range(len(A)):
        pot = PotentialSpec.affine_beta(u=log_betas[i + 1], v=log_betas[i])
        res = _escalated_root(pot, 0.0, params)
        dims.append(res.s)
    return dims, min(dims)


# ---------------------------------------------------------------------------
# s_m oracle


def _box_log_continuants(m: int, n_trunc: int) -> np.ndarray:
    """log q_m over the box {1..n_trunc}^m via the closed continuant forms."""
    a = np.arange(1, n_trunc + 1, dtype=float)
    if m == 1:
        q = a
    elif m == 2:
        q = a[:, None] * a[None, :] + 1.0  # q2(a1, a2) = a2 a1 + 1
    elif m == 3:
        a1 = a[:, None, None]
        a2 = a[None, :, None]
        a3 = a[None, None, :]
        q = a3 * (a2 * a1 + 1.0) + a1  # q3 = a3 q2 + q1
    else:
        raise ResourceLimitError("s_m oracle supports m in {1, 2, 3}")
    return np.log(q).reshape(-1)


DEFAULT_SM_TRUNC = {1: 100_000, 2: 800, 3: 120}


def s_m_oracle(
    B: float,
    m: int,
    potential: PotentialSpec = PotentialSpec.g3(),
    n_trunc: int | None = None,
    params: PressureSolverParams = DEFAULT_PARAMS,
) -> float:
    """Finite-word upper oracle s_m(B) >= s_B for the dimension root.

    Bisection on s of  sum_{words in N^m} q_m^{-2s} <= B^{m f(s)}, with the
    box {1..n_trunc}^m summed exactly and the complement bounded above via
    q_m >= a_1...a_m by zeta(2s)^m - Z(2s)^m. The per-word threshold carries
    the factor m so that (1/m) log of the condition reproduces the pressure
    equation as m grows; the tail bound makes the reported value an upper
    estimate, and s_m decreases toward the dimension root as m increases.
    """
    if B <= 1:
        raise DomainError("s_m oracle requires B > 1")
    if m not in (1, 2, 3):
        raise ResourceLimitError("s_m oracle supports m in {1, 2, 3}")
    n_trunc = n_trunc or DEFAULT_SM_TRUNC[m]
    logq = _box_log_continuants(m, n_trunc)
    log_B = math.log(B)

    def condition(s: float) -> bool:
        t = 2.0 * s
        if t <= 1.0:
            return False
        box = float(np.sum(np.exp(-t * logq)))
        zt = zeta(t)
        part = float(np.sum(np.arange(1, n_trunc + 1, dtype=float) ** (-t)))
        tail = zt**m - part**m
        return box + tail <= math.exp(m * potential.f(s) * log_B)

    lo, hi = 0.5001, 8.0
    if not condition(hi):
        raise ConvergenceError(f"s_m condition unsatisfied even at s = {hi}")
    while hi - lo > params.bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if condition(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# auxiliary inequality report


@dataclass(frozen=True)
class AuxRow:
    s: float
    identity_gap: float  # g3(s) - ((2s-1) + X1(s) s); identity, ~0
    x2_gap: float  # (3s-1) - X2(s) - g3(s); identity, ~0
    aux2_lhs: float  # g3(s)
    aux2_rhs: float  # (1-s) X1(s) - s
    aux2_holds: bool  # reported only; fails on [0, 1]
    aux3_margin: float  # (3s-1)(X1+X2) + s - g3(s); >= 0 on [1/2, 1]
    strict_513_margin: float  # (3s-1) + X1(s)(s-1) - g3(s); > 0 on [1/2, 1]


def aux_inequality_report(s_grid: Sequence[float]) -> list[AuxRow]:
    """Evaluate the g3/X relations on a grid; assert the trusted ones.

    The identity g3 = (2s-1) + s X1 and the rewrite g3 = (3s-1) - X2 must
    hold to 1e-12 on the whole grid; the bound (3s-1)(X1+X2) + s >= g3 and
    the strict inequality (3s-1) + X1 (s-1) > g3 are asserted for grid points
    in [1/2, 1]. The remaining relation g3 < (1-s) X1 - s is evaluated and
    reported only: it fails numerically (e.g. 1/6 vs -1/3 at s = 1/2), so no
    assertion is attached to it.
    """
    rows = []
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise DomainError("grid points must lie in [0, 1]")
        x1, x2, _ = x_functions(s)
        val = float(g3(s))
        identity_gap = val - ((2 * s - 1) + float(x1) * s)
        x2_gap = (3 * s - 1) - float(x2) - val
        aux2_rhs = (1 - s) * float(x1) - s
        aux3_margin = (3 * s - 1) * float(x1 + x2) + s - val
        strict_margin = (3 * s - 1) + float(x1) * (s - 1) - val
        rows.append(
            AuxRow(
                s=float(s),
                identity_gap=identity_gap,
                x2_gap=x2_gap,
                aux2_lhs=val,
                aux2_rhs=aux2_rhs,
                aux2_holds=val < aux2_rhs,
                aux3_margin=aux3_margin,
                strict_513_margin=strict_margin,
            )
        )
    for row in rows:
        if abs(row.identity_gap) > 1e-12 or abs(row.x2_gap) > 1e-12:
            raise ConvergenceError(f"g3/X identity violated at s = {row.s}")
        if 0.5 <= row.s <= 1.0:
            if row.aux3_margin < -1e-12:
                raise ConvergenceError(f"auxiliary bound violated at s = {row.s}")
            if row.strict_513_margin <= 0.0:
                raise ConvergenceError(f"strict inequality violated at s = {row.s}")
    return rows
