"""Parametric growth functions, their (B, b) constants, and series classification.

Families are clamped so that phi is non-decreasing with phi(n) >= 2 everywhere;
for the power-log family the log factor is clamped below at log 2 (this only
affects n = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, InsufficientDataError

LOG2 = math.log(2.0)
LOG_BAND = 1e-9  # meets_threshold decides in log space outside this band
_TABLE_LIMINF_VALUES = 2000  # a table's liminf estimates read its first values up to here

POWERLOG = "powerlog"
EXPONENTIAL = "exp"
DOUBLY_EXPONENTIAL = "doubleexp"
TABLE = "table"
FAMILIES = (POWERLOG, EXPONENTIAL, DOUBLY_EXPONENTIAL, TABLE)

THEOREMS = ("HWX", "TTW", "TZ", "MAIN3")

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class GrowthConstants:
    """liminf log phi(n)/n and liminf log log phi(n)/n, and B, b = their exps.

    Closed-form families set B and b directly, so that the exact dimension
    branches (B = 1, B = infinity) do not round through exp(log).
    """

    log_B: float
    log_b: float
    B: float
    b: float


@dataclass(frozen=True)
class GrowthFunction:
    family: str
    params: tuple[float, ...] = ()
    values: tuple[float, ...] = field(default=(), repr=False)

    # -- constructors -------------------------------------------------------
    @classmethod
    def power_log(cls, alpha: float, beta: float) -> "GrowthFunction":
        """phi(n) = max(n^alpha (log n)^beta, 2); alpha, beta >= 0."""
        if alpha < 0 or beta < 0:
            raise DomainError("power_log requires alpha, beta >= 0")
        return cls(POWERLOG, (float(alpha), float(beta)))

    @classmethod
    def exponential(cls, base: float) -> "GrowthFunction":
        """phi(n) = max(base^n, 2) with base > 1."""
        if base <= 1:
            raise DomainError("exponential base must exceed 1")
        return cls(EXPONENTIAL, (float(base),))

    @classmethod
    def doubly_exponential(cls, base: float, rate: float) -> "GrowthFunction":
        """phi(n) = max(base^(rate^n), 2) with base > 1, rate > 1."""
        if base <= 1 or rate <= 1:
            raise DomainError("doubly_exponential requires base > 1 and rate > 1")
        return cls(DOUBLY_EXPONENTIAL, (float(base), float(rate)))

    @classmethod
    def table(cls, values) -> "GrowthFunction":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise DomainError("table needs at least one value")
        if any(v < 2 for v in vals):
            raise DomainError("table values must be >= 2")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("table values must be non-decreasing")
        return cls(TABLE, (), vals)

    @classmethod
    def from_spec(cls, family: str, params: str) -> "GrowthFunction":
        """The growth function named by a family and its comma-separated parameters.

        The one map from family names to constructors; a wrong parameter
        count or a parameter that is not a finite number is a DomainError.
        """
        try:
            values = [float(x) for x in params.split(",") if x.strip()]
        except ValueError:
            raise DomainError(f"phi parameters must be numbers, got {params!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"phi parameters must be finite, got {params!r}")
        if family == TABLE:
            return cls.table(values)
        constructors = {
            POWERLOG: (cls.power_log, 2),
            EXPONENTIAL: (cls.exponential, 1),
            DOUBLY_EXPONENTIAL: (cls.doubly_exponential, 2),
        }
        if family not in constructors:
            raise DomainError(f"unknown phi family {family!r}")
        make, arity = constructors[family]
        if len(values) != arity:
            raise DomainError(f"phi family {family!r} takes {arity} parameter(s), got {len(values)}")
        return make(*values)

    # -- evaluation ---------------------------------------------------------
    def phi(self, n: int) -> float:
        """phi(n) as a float, +inf on overflow; bitwise phi_array(N)[n - 1] for every N >= n."""
        if n < 1:
            raise DomainError("n must be >= 1")
        return float(self.phi_array(n, first=n)[0])

    def _powerlog_log(self, n: int) -> float:
        """alpha log n + beta log max(log n, log 2): log phi(n) before the clamp at 2."""
        alpha, beta = self.params
        return alpha * math.log(n) + beta * math.log(max(math.log(n), LOG2))

    def log_phi(self, n: int) -> float:
        """log phi(n); exact in log space for the (doubly) exponential families."""
        if n < 1:
            raise DomainError("n must be >= 1")
        if self.family == POWERLOG:
            return max(self._powerlog_log(n), LOG2)
        if self.family == EXPONENTIAL:
            (base,) = self.params
            return max(n * math.log(base), LOG2)
        if self.family == DOUBLY_EXPONENTIAL:
            base, rate = self.params
            try:
                inner = rate ** n
            except OverflowError:
                return math.inf
            return max(inner * math.log(base), LOG2)
        if self.family == TABLE:
            return math.log(self.phi(n))
        raise DomainError(f"unknown family {self.family!r}")

    def phi_array(self, n_max: int, first: int = 1) -> np.ndarray:
        """[phi(first), ..., phi(n_max)] as float64, +inf on overflow.

        The one evaluation of phi: each entry depends on its level alone, so a
        window holds bitwise the entries of the full array and phi(n) is the
        window [n, n]. Where phi_exact(n) exists the entry is its correctly
        rounded value, so float comparisons against integer block products
        see exact ties.
        """
        n = np.arange(first, n_max + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == POWERLOG:
                alpha, beta = self.params
                lf = np.maximum(np.log(n), LOG2)
                v = n ** alpha * lf ** beta
                odd = ~np.isfinite(v)  # n^alpha overflowed: inf, or NaN where lf^beta is 0
                if odd.any():
                    v[odd] = np.exp(alpha * np.log(n[odd]) + beta * np.log(lf[odd]))
            elif self.family == EXPONENTIAL:
                (base,) = self.params
                v = np.exp(n * math.log(base))
                if base.is_integer() and first * math.log(base) < 710.0:  # else exp() is inf
                    b = int(base)
                    power = b**first
                    for i in range(len(v)):
                        try:
                            v[i] = float(power)  # int -> float rounds correctly
                        except OverflowError:  # past float64, where exp() may not be inf yet
                            v[i:] = math.inf
                            break
                        power *= b
            elif self.family == DOUBLY_EXPONENTIAL:
                base, rate = self.params
                v = np.exp(np.minimum(rate ** n, 1e308) * math.log(base))
            elif self.family == TABLE:
                if n_max > len(self.values):
                    raise DomainError(f"table covers n <= {len(self.values)}")
                v = np.asarray(self.values[first - 1 : n_max], dtype=float)
            else:
                raise DomainError(f"unknown family {self.family!r}")
        return np.maximum(v, 2.0)

    def phi_exact(self, n: int) -> Fraction | None:
        """Exact rational phi(n) when the family supports it, else None.

        Available where the power-log clamp decides (the unclamped log lies
        more than LOG_BAND below log 2, so phi_array clamps to exactly 2), for
        exponential bases that are exactly integers, and for tables.
        """
        if self.family == POWERLOG:
            return Fraction(2) if self._powerlog_log(n) < LOG2 - LOG_BAND else None
        if self.family == EXPONENTIAL:
            (base,) = self.params
            if float(base).is_integer():
                return max(Fraction(int(base)) ** n, Fraction(2))
            return None
        if self.family == TABLE and n <= len(self.values):
            return Fraction(self.values[n - 1])
        return None

    def meets_threshold(self, product: int, n: int) -> bool:
        """Exact verdict on product >= phi(n) for an integer block product.

        phi >= 2, so products below 2 never qualify. Otherwise the float logs
        decide when they differ by more than LOG_BAND, and the comparison is
        exact inside the band.
        """
        if product < 2:
            return False
        gap = math.log(product) - self.log_phi(n)
        if abs(gap) > LOG_BAND:
            return gap > 0
        exact = self.phi_exact(n)
        if exact is not None:
            return product >= exact
        v = self.phi(n)
        if math.isfinite(v):
            return product >= v  # int-vs-float comparison is exact in Python
        return gap >= 0

    # -- analysis -----------------------------------------------------------
    def growth_constants(self) -> GrowthConstants:
        """Closed-form (B, b) for parametric families; running liminf for tables."""
        if self.family == POWERLOG:
            return GrowthConstants(0.0, 0.0, 1.0, 1.0)
        if self.family == EXPONENTIAL:
            return GrowthConstants(math.log(self.params[0]), 0.0, self.params[0], 1.0)
        if self.family == DOUBLY_EXPONENTIAL:
            return GrowthConstants(math.inf, math.log(self.params[1]), math.inf, self.params[1])
        if self.family == TABLE:
            if len(self.values) < 100:
                raise InsufficientDataError("table needs >= 100 values for liminf estimates")
            m = min(len(self.values), _TABLE_LIMINF_VALUES)
            tail = range(m // 2, m)
            log_B = min(self.log_phi(n + 1) / (n + 1) for n in tail)
            log_b = max(min(math.log(max(self.log_phi(n + 1), 1e-300)) / (n + 1) for n in tail), 0.0)
            return GrowthConstants(log_B, log_b, math.exp(log_B), math.exp(log_b))
        raise DomainError(f"unknown family {self.family!r}")


def _powerlog_divergent(alpha: float, beta: float, beta_cutoff: float) -> bool:
    # comparison against sum n^-p (log n)^-q: divergent iff p < 1 or (p = 1, q <= 1)
    return alpha < 1.0 or (alpha == 1.0 and beta <= beta_cutoff)


def classify_series(f: GrowthFunction, theorem: str, ell: int = 1) -> str:
    """Convergent/Divergent classification of the theorem's series for phi = f.

    HWX(ell):  sum log^{ell-1} phi / phi
    TTW:       sum n / phi^2
    TZ:        sum (n log phi / phi^2 + 1/phi)
    MAIN3:     sum (n log^4 phi / phi^2 + log phi / phi)

    Classification is analytic per family (integral test on the closed-form
    general term); partial summation cannot decide boundaries like 1/(n log n).
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}")
    if theorem == "HWX" and ell < 1:
        raise DomainError("HWX requires ell >= 1")
    if f.family in (EXPONENTIAL, DOUBLY_EXPONENTIAL):
        # phi grows at least geometrically: every series above converges
        return CONVERGENT
    if f.family == POWERLOG:
        alpha, beta = f.params
        cutoff = {"TTW": 0.5, "TZ": 1.0, "MAIN3": 2.5}.get(theorem, float(ell))
        return DIVERGENT if _powerlog_divergent(alpha, beta, cutoff) else CONVERGENT
    if f.family == TABLE:
        return _classify_table(f, theorem, ell)
    raise DomainError(f"unknown family {f.family!r}")


def _classify_table(f: GrowthFunction, theorem: str, ell: int) -> str:
    """Partial-sum heuristic: local decay exponent of the general term."""
    m = len(f.values)
    ns = np.arange(max(2, m // 2), m + 1, dtype=float)
    lp = np.array([math.log(v) for v in f.phi_array(m, first=int(ns[0])).tolist()])  # log_phi
    if theorem == "HWX":
        lt = (ell - 1) * np.log(np.maximum(lp, 1e-12)) - lp
    elif theorem == "TTW":
        lt = np.log(ns) - 2 * lp
    elif theorem == "TZ":
        lt = np.logaddexp(np.log(ns) + np.log(np.maximum(lp, 1e-12)) - 2 * lp, -lp)
    else:  # MAIN3
        lt = np.logaddexp(np.log(ns) + 4 * np.log(np.maximum(lp, 1e-12)) - 2 * lp, np.log(np.maximum(lp, 1e-12)) - lp)
    slope = np.polyfit(np.log(ns), lt, 1)[0]  # ~ -p for terms ~ n^-p
    if slope < -1.1:
        return CONVERGENT
    if slope > -0.9:
        return DIVERGENT
    return INCONCLUSIVE
