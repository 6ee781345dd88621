"""Pressure functions over the Gauss system and Hausdorff-dimension solvers.

The pressure P(s) = P(T, -s log|T'|) is the log of the leading eigenvalue of
the averaging operator (Lf)(x) = sum_a (a+x)^{-2s} f(1/(a+x)). Potentials with
a constant extra term split off: P(T, -f(s) log B - s log|T'|) = P(s) -
f(s) log B, so one spectral computation per s serves every target set; each
set is its multiplier f in SET_POTENTIALS. A dimension is a root of the whole
Gauss system's P(s) = f(s) log B; one bisection (_bisect) finds it on _BRACKET
= (0.45, 1), whose ends are known to hold, and the same loop bisects the s_m
oracles' conditions. Each step of a root is screened on a 16-point operator;
only a step whose gap P(s) - f(s) log B is within 1e-6 of 0 evaluates the
caller's grid (_dimension_root). The bits are the caller's grid's, and a root
at the default tolerance rarely builds a 64-point matrix (dim F3 exp 2: none).

Discretization: Chebyshev collocation with barycentric interpolation, power
iteration with Rayleigh-quotient stopping. The operator's size does not
depend on the alphabet. The branches a <= _K = 200 enter through their
barycentric rows at y = 1/(a+x). For the branches a > _K, y lies in (0, h]
with h = 1/(_K+1); there the rows are expanded to degree _DEGREE = 10 in y/h
(monomial rows D_k, fitted at 11 Chebyshev points of [0, h]), and D_k is
weighted by h^{-k} times a Hurwitz sum of (a+x)^{-(2s+k)} over a > _K.

The alphabet N is a value: N = inf (the default) is the whole Gauss system,
where that sum runs over every a > _K and P(1) = 0 to the power iteration's
tolerance. For 2s <= 1 that sum diverges: P = +inf, no matrix is built, and a
dimension root, which lies above 1/2, has its bracket's lower end raised to
1/2. A finite N in [1, 2^53] is the literal truncated operator over a <= N: the
sum runs over _K < a <= N, a difference of two Hurwitz tails. That matrix
equals the literal N-branch matrix bitwise for N <= _K; above that the
pressures differ by at most 1.4e-15 (measured for N from 201 to 10^4 and s
from 0.45 to 1).

The rows for a <= _K and the D_k depend on neither s nor N: they are built
once per grid size and kept for two grids (_operator_parts), 6.6 MB at 64
points and 0.4 MB at 16. A grid whose _K rows would exceed _ROWS_BUDGET
(64 MB, so more than 200 points) is refused before anything is allocated. At large s the grid no longer resolves
(1+x)^{-2s}: a matrix that is not finite, or whose leading eigenvalue is zero,
negative or not single (power iteration does not settle), is refused with a
DomainError that names s and the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceLimitError
from .growth import GrowthFunction
from .series import hurwitz_range, zeta

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_K = 200  # branches with explicit rows; the rest enter through the Taylor-Hurwitz sum
_DEGREE = 10  # degree in y/h of the rows of the branches a > _K
_MAX_N = 2**53  # the alphabet enters as the float N + x, exact up to here
_ROWS_BUDGET = 64_000_000  # bytes of the _K branches' rows


# ---------------------------------------------------------------------------
# scalar algebra: g3, Wang-Wu f_ell


def _lift(s):
    return Fraction(s) if isinstance(s, int) else s


def g3(s):
    """(3s^3 - 5s^2 + 4s - 1)/(s^2 - s + 1); exact when s is rational."""
    s = _lift(s)
    return (3 * s**3 - 5 * s**2 + 4 * s - 1) / (s**2 - s + 1)


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
# solver settings


@dataclass(frozen=True)
class PressureSolverParams:
    grid_points: int = 64
    bisect_tol: float = 1e-4

    def __post_init__(self):
        if self.grid_points < 2:
            raise DomainError("grid_points must be >= 2")
        if not self.bisect_tol > 0:
            raise DomainError("bisect_tol must be positive")


DEFAULT_PARAMS = PressureSolverParams()
_POWER_ITER_TOL = 1e-10  # power iteration stops when Rayleigh quotients agree to this, relative
_MAX_ITER = 500  # power iteration steps before the leading eigenvalue counts as unresolved
_BRACKET = (0.45, 1.0)  # where the dimension roots are sought
_SCREEN = PressureSolverParams(grid_points=16)  # decides the bisection steps whose gap is past _SCREEN_MARGIN
_SCREEN_MARGIN = 1e-6  # over 3e4 times sup |P_16 - P_m| measured on [1/2 + 10^-12, 1]


@dataclass(frozen=True)
class DimensionResult:
    s: float
    bracket: tuple[float, float]
    branch: str


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

    out takes w / (y - x) in place, then a division by the row sum. A y on a
    node divides by a zero difference, an inf entry that makes its row sum inf
    or NaN; only those rows are checked for a node, and one that has one
    becomes its unit row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(y[:, None], x[None, :], out=out)
        np.divide(w[None, :], out, out=out)
        sums = np.sum(out, axis=1, keepdims=True)
        odd = np.flatnonzero(~np.isfinite(sums[:, 0]))
        hit = np.isinf(out[odd])
        out /= sums
    exact = hit.any(axis=1)
    out[odd[exact]] = hit[exact]
    return out


def _check_rows_budget(m: int) -> None:
    """Refuse a grid whose _K branches' rows would exceed _ROWS_BUDGET, before anything is allocated."""
    need = _K * m * m * 8
    if need > _ROWS_BUDGET:
        raise ResourceLimitError(
            f"grid_points = {m} needs {need} bytes of rows for {_K} branches, over {_ROWS_BUDGET}"
        )


@functools.lru_cache(maxsize=2)  # the caller's grid and the dimension roots' _SCREEN grid
def _operator_parts(m: int):
    """Nodes x, weights w, and the s- and N-independent parts of the operator on m points.

    y = 1/(a+x) and its rows for a <= _K, shapes (_K, m) and (_K, m, m), and
    the monomial rows D, shape (_DEGREE+1, m): the rows at y = h u, u in [0, 1],
    are about sum_k u^k D[k]. The arrays are shared by every caller, so read-only.
    """
    _check_rows_budget(m)
    x, w = _cheb_nodes_weights(m)
    a = np.arange(1, _K + 1, dtype=float)
    y = 1.0 / (a[:, None] + x[None, :])
    rows = _barycentric_rows(y.reshape(-1), x, w, np.empty((_K * m, m))).reshape(_K, m, m)
    u, _ = _cheb_nodes_weights(_DEGREE + 1)
    fit = _barycentric_rows(u / (_K + 1), x, w, np.empty((_DEGREE + 1, m)))
    D = np.linalg.solve(np.vander(u, increasing=True), fit)
    for part in (x, w, y, rows, D):
        part.flags.writeable = False
    return x, w, y, rows, D


def _transfer_matrix(s: float, N, params: PressureSolverParams) -> np.ndarray:
    x, _, y, rows, D = _operator_parts(params.grid_points)
    n = min(N, _K)
    A = np.einsum("ai,aij->ij", y[:n] ** (2.0 * s), rows[:n])
    if N > _K:  # sum over _K < a <= N of y^(2s) sum_k (y/h)^k D[k], with y = 1/(a+x)
        top = N + x if N < math.inf else N  # a scalar inf: an array of them costs array powers
        sums = np.array([hurwitz_range(2.0 * s + k, _K + x, top) for k in range(_DEGREE + 1)])
        A += (sums * (_K + 1.0) ** np.arange(_DEGREE + 1)[:, None]).T @ D
    return A


def transfer_pressure(s: float, N=math.inf, params: PressureSolverParams = DEFAULT_PARAMS) -> float:
    """log of the leading eigenvalue of the N-branch operator; N = inf is the Gauss system (+inf at s <= 1/2).

    Power iteration on the collocation matrix, stopping when successive
    Rayleigh quotients differ by less than _POWER_ITER_TOL (relative). A
    matrix that is not finite, an iterate that collapses to zero, a limit
    that is not positive, or no limit within _MAX_ITER steps (a complex or
    +- pair of leading eigenvalues) means the grid cannot resolve the
    operator at this s: DomainError.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if _MAX_N < N < math.inf:
        raise DomainError("N must be <= 2**53")
    if not 0 < s < math.inf:
        raise DomainError(f"s must be positive and finite, got {s}")
    if N == math.inf and s <= 0.5:
        return math.inf
    unresolved = f"s = {s} is too large for the {params.grid_points}-point grid"
    with np.errstate(invalid="ignore"):  # inf * 0 in the Euler-Maclaurin terms at huge s
        A = _transfer_matrix(s, N, params)
    if not np.isfinite(A).all():
        raise DomainError(f"{unresolved}: the collocation matrix is not finite")
    f = np.ones(params.grid_points)
    f /= np.linalg.norm(f)
    prev = None
    for _ in range(_MAX_ITER):
        g = A @ f
        lam = float(f @ g)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            raise DomainError(f"{unresolved}: power iteration collapsed to zero")
        f = g / nrm
        if prev is not None and abs(lam - prev) <= _POWER_ITER_TOL * max(1.0, abs(lam)):
            if lam <= 0.0:
                raise DomainError(f"{unresolved}: its leading eigenvalue is {lam:.3g}")
            return math.log(lam)
        prev = lam
    raise DomainError(f"{unresolved}: power iteration did not settle in {_MAX_ITER} steps")


# ---------------------------------------------------------------------------
# dimension roots


def _bisect(holds, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi], keeping holds(hi) true and holds(lo) false, to width tol or adjacent floats."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _dimension_root(f, log_B, params):
    """Root of the whole Gauss system's P(s) - f(s) log B on _BRACKET, with the bracket bisected to.

    P = +inf at the floor s = 0.45, and P(1) is 0 to the power iteration's
    tolerance, below f(1) log B whenever f(1) > 0 and log B > 0: the ends
    hold as _bisect needs them, so neither is evaluated. The root lies above
    1/2, where P is finite, so lo is raised to 1/2.

    A grid of more than 16 points decides each step on the _SCREEN grid, and
    on its own only where that gap is within _SCREEN_MARGIN = 1e-6 of 0.
    Collocation converges geometrically: |P_16 - P_m| <= 2.7e-11 was measured
    for m from 17 to 200 and s from 1/2 + 10^-12 to 1, so a gap past the
    margin has the caller's sign, and every bit of the root and its bracket
    is the caller's grid's alone. That grid is checked against the rows
    budget first: a root whose gaps all pass the margin never builds it.
    """
    _check_rows_budget(params.grid_points)
    screen = params.grid_points > _SCREEN.grid_points

    def holds(s):
        if screen:
            gap = transfer_pressure(s, math.inf, _SCREEN) - f(s) * log_B
            if abs(gap) > _SCREEN_MARGIN:
                return gap < 0.0
        return not transfer_pressure(s, math.inf, params) - f(s) * log_B > 0.0

    lo, hi = _bisect(holds, *_BRACKET, params.bisect_tol)
    lo = max(lo, 0.5)
    return 0.5 * (lo + hi), (lo, hi)


# The multiplier f(s) of log B in each target set's potential: the Wang-Wu f_ell for
# E_ell, 3s - 1 for F1, 3s - 1 - s^2 for F2 and g3 for F3.
SET_POTENTIALS = {
    "E1": lambda s: float(wang_wu_f(1, s)),
    "E2": lambda s: float(wang_wu_f(2, s)),
    "E3": lambda s: float(wang_wu_f(3, s)),
    "F1": lambda s: 3.0 * s - 1.0,
    "F2": lambda s: 3.0 * s - 1.0 - s * s,
    "F3": lambda s: float(g3(s)),
}


def hausdorff_dim(
    set_id: str, phi: GrowthFunction, params: PressureSolverParams = DEFAULT_PARAMS
) -> DimensionResult:
    """Hausdorff dimension of E_ell(phi) or F_ell(phi) from the growth constants.

    B = 1 gives dimension 1 exactly; B = infinity gives 1/(1+b) exactly; in
    between the dimension is the root of P(s) = f(s) log B with f the set's
    multiplier in SET_POTENTIALS, solved by bisection on _BRACKET with the
    pressure of the whole Gauss system (one operator, no alphabet to choose),
    whose root lies in (1/2, 1].
    """
    if set_id not in SET_POTENTIALS:
        raise DomainError(f"unknown set {set_id!r}; choose from {sorted(SET_POTENTIALS)}")
    gc = phi.growth_constants()
    if gc.log_B == 0.0:
        return DimensionResult(1.0, (1.0, 1.0), "B=1")
    if math.isinf(gc.log_B):
        val = 1.0 / (1.0 + gc.b)
        return DimensionResult(val, (val, val), "B=inf")
    root, bracket = _dimension_root(SET_POTENTIALS[set_id], gc.log_B, params)
    return DimensionResult(root, bracket, "B_finite")


# ---------------------------------------------------------------------------
# s_m oracle


DEFAULT_SM_TRUNC = {1: 100_000, 2: 800, 3: 120}
_LOG_DBL_MAX = math.log(np.finfo(float).max)  # math.exp overflows exactly above this


def _continuant_multiset(m: int, n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """log of the distinct q2 = a1 a2 + 1 or q3 = a3 q2 + a1 over {1..n_trunc}^m, and their counts."""
    a = np.arange(1, n_trunc + 1, dtype=np.int64)
    if m == 2:  # a divisor-count sieve on q2 = k j + 1: the pairs (k, j >= k) and (j, k), a square once
        counts = np.zeros(n_trunc * n_trunc + 2, dtype=np.int32)  # counts <= n_trunc; int64 is twice the traffic
        for k in range(1, n_trunc + 1):
            counts[k * k + 1 : k * n_trunc + 2 : k] += 2
        counts[a * a + 1] -= 1
    else:
        q = np.multiply.outer(np.multiply.outer(a, a) + 1, a)  # a3 q2, indexed (a1, a2, a3)
        q += a[:, None, None]
        counts = np.bincount(q.reshape(-1))
    q = np.flatnonzero(counts != 0)  # the distinct q_m; nonzero is several times faster on a bool
    return np.log(q.astype(float)), counts[q].astype(float)


def s_m_oracle(B: float, m: int, params: PressureSolverParams = DEFAULT_PARAMS) -> float:
    """Finite-word upper oracle s_m(B) >= s_B for the dimension root.

    Bisection on s of  sum_{words in N^m} q_m^{-2s} <= B^{m g3(s)}, with the
    box {1..n_trunc}^m (n_trunc = DEFAULT_SM_TRUNC[m]) summed exactly and the
    complement bounded above via q_m >= a_1...a_m by zeta(2s)^m - Z(2s)^m. The per-word threshold carries
    the factor m so that (1/m) log of the condition reproduces the pressure
    equation as m grows; the tail bound makes the reported value an upper
    estimate, and s_m decreases toward the dimension root as m increases.

    At m = 1, q_1 = a, so the box and its complement bound add up to zeta(2s)
    exactly: the condition is zeta(2s) <= B^{g3(s)}, and no box is built.
    At m = 2, 3 the box is built once per call as the multiset of its integer
    continuants (160,611 distinct q2 of 640,000 at n_trunc = 800; 421,302 q3
    of 1,728,000 at 120), and each condition takes one power per distinct q_m,
    weighted by its count. A bound B^{m g3(s)} past the largest float is +inf:
    the condition holds.
    """
    if B <= 1:
        raise DomainError("s_m oracle requires B > 1")
    if m not in (1, 2, 3):
        raise ResourceLimitError("s_m oracle supports m in {1, 2, 3}")
    log_B = math.log(B)
    if m > 1:
        n_trunc = DEFAULT_SM_TRUNC[m]
        logq, counts = _continuant_multiset(m, n_trunc)
        terms = np.empty_like(logq)
        a = np.arange(1, n_trunc + 1, dtype=float)

    def condition(s: float) -> bool:
        t = 2.0 * s
        if t <= 1.0:
            return False
        lhs = zeta(t)
        if m > 1:
            np.multiply(logq, -t, out=terms)
            np.exp(terms, out=terms)
            np.multiply(terms, counts, out=terms)  # the box: one power per distinct q_m
            lhs = float(np.sum(terms)) + (lhs**m - float(np.sum(a ** (-t))) ** m)
        bound = m * float(g3(s)) * log_B
        return bound > _LOG_DBL_MAX or lhs <= math.exp(bound)

    lo, hi = 0.5001, 8.0
    if not condition(hi):
        raise ConvergenceError(f"s_m condition unsatisfied even at s = {hi}")
    lo, hi = _bisect(condition, lo, hi, params.bisect_tol)
    return 0.5 * (lo + hi)
