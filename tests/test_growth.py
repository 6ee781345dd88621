import math

import numpy as np
import pytest

from cflab import growth
from cflab.errors import DomainError, InsufficientDataError
from cflab.growth import GrowthFunction, classify_series

import oracles


class TestLogPhi:
    def test_exponential_exact(self):
        f = GrowthFunction.exponential(2.0)
        assert f.log_phi(10) == 10 * math.log(2.0)

    def test_powerlog(self):
        f = GrowthFunction.power_log(1, 2)
        n = 7  # nearest integer to e^2
        assert f.log_phi(n) == pytest.approx(math.log(n) + 2 * math.log(math.log(n)))

    def test_doubly_exponential(self):
        f = GrowthFunction.doubly_exponential(2, 3)
        assert f.log_phi(4) == pytest.approx(81 * math.log(2.0))

    def test_floor_at_two(self):
        f = GrowthFunction.power_log(0, 0)
        assert f.phi(1) == 2.0
        assert f.log_phi(123) == math.log(2.0)
        g = GrowthFunction.exponential(1.05)
        assert g.phi(1) == 2.0  # 1.05 < 2 clamps
        assert g.log_phi(1) == math.log(2.0)

    def test_overflow_saturates(self):
        f = GrowthFunction.doubly_exponential(2, 3)
        assert f.log_phi(1000) == math.inf
        assert f.phi(1000) == math.inf

    @pytest.mark.parametrize("alpha, beta", [(1100, 3000), (1100, 100), (400, 3000), (1.2, 1)])
    def test_powerlog_overflowing_power_at_the_clamp(self, alpha, beta):
        # n^alpha overflows at n <= 2 where lf^beta = log(2)^beta may underflow: the logs decide
        f = GrowthFunction.power_log(alpha, beta)
        arr = f.phi_array(2000)
        n = np.arange(1.0, 2001.0)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = np.maximum(n**alpha * np.maximum(np.log(n), growth.LOG2) ** beta, 2.0)
        finite = np.isfinite(direct)
        assert np.array_equal(arr[finite], direct[finite])  # finite entries are unchanged
        assert not np.isnan(arr).any()
        for k in (1, 2, 3, 1999):
            want = math.exp(f.log_phi(k)) if f.log_phi(k) < 709 else math.inf
            assert f.phi(k) == arr[k - 1] == pytest.approx(want, rel=1e-12), k
        assert (arr[:2].tolist() == [2.0, 2.0]) == (f.log_phi(2) == growth.LOG2)

    def test_monotonicity_grid(self):
        grid = list(range(1, 200)) + [10**3, 10**4, 10**5, 10**6]
        for f in (
            GrowthFunction.power_log(1, 2),
            GrowthFunction.power_log(0.3, 0),
            GrowthFunction.exponential(1.01),
            GrowthFunction.doubly_exponential(1.5, 1.2),
        ):
            vals = [f.log_phi(n) for n in grid]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_phi_array_matches_scalar(self):
        for f in (
            GrowthFunction.power_log(1.2, 1),
            GrowthFunction.power_log(0, 0),
            GrowthFunction.exponential(1.5),
            GrowthFunction.exponential(2),
            GrowthFunction.exponential(3),
            GrowthFunction.table([2.0 + 0.5 * (n // 3) for n in range(700)]),
        ):
            arr = f.phi_array(700)
            for n in range(1, 701):
                exact = f.phi_exact(n)
                if exact is None:
                    if n <= 50:
                        assert arr[n - 1] == pytest.approx(f.phi(n), rel=1e-15)
                else:  # correctly rounded wherever an exact value exists
                    want = float(exact) if exact < 2**1024 else math.inf
                    assert arr[n - 1] == want, (f, n)
        for base in (2, 3):  # integer bases: phi is the correctly rounded b^n, like phi_array
            f = GrowthFunction.exponential(base)
            arr = f.phi_array(1100)
            for n in range(1, 1101):
                assert f.phi(n) == arr[n - 1], (f, n)
        # 1023 log 2 > 709, where exp(n log b) would already be saturated
        assert GrowthFunction.exponential(2).phi(1023) == 2.0**1023
        assert GrowthFunction.exponential(2).phi(1024) == math.inf

    @pytest.mark.parametrize("f", [
        GrowthFunction.exponential(2.5),
        GrowthFunction.exponential(3),
        GrowthFunction.power_log(1.2, 1),
        GrowthFunction.power_log(1, 2),
        GrowthFunction.doubly_exponential(1.5, 1.01),
        GrowthFunction.table([2.0 + 0.25 * n**0.5 for n in range(10**5)]),
    ], ids=lambda f: f"{f.family}{f.params}")
    def test_phi_is_phi_array_bitwise(self, f):
        # one kernel: meets_threshold's phi(n) and the engine's searched array agree
        N = 10**5
        arr = f.phi_array(N)
        assert all(f.phi(n) == arr[n - 1] for n in range(1, N + 1))
        for first in (2, 700, 1023, 1025, 5000):  # windows, as the engine reads them
            assert np.array_equal(f.phi_array(first + 4000, first=first), arr[first - 1 : first + 4000])


class TestGrowthConstants:
    def test_closed_forms(self):
        gc = GrowthFunction.exponential(2).growth_constants()
        assert (gc.B, gc.b) == (2.0, 1.0)
        gc = GrowthFunction.power_log(3, 5).growth_constants()
        assert (gc.B, gc.b) == (1.0, 1.0)
        gc = GrowthFunction.doubly_exponential(2, 3).growth_constants()
        assert math.isinf(gc.B) and gc.b == 3.0

    def test_invariant_logb_implies_logB(self):
        for f in (
            GrowthFunction.power_log(1, 1),
            GrowthFunction.exponential(5),
            GrowthFunction.doubly_exponential(3, 2),
        ):
            gc = f.growth_constants()
            if gc.log_b > 0:
                assert math.isinf(gc.log_B)

    def test_table_liminf(self):
        vals = [2.0 * 1.5**n for n in range(300)]
        gc = GrowthFunction.table(vals).growth_constants()
        assert gc.log_B == pytest.approx(math.log(1.5), rel=1e-2)
        assert (gc.B, gc.b) == (math.exp(gc.log_B), math.exp(gc.log_b))

    def test_table_insufficient(self):
        with pytest.raises(InsufficientDataError):
            GrowthFunction.table([2.0] * 99).growth_constants()


class TestClassify:
    def test_paper_examples(self):
        assert classify_series(GrowthFunction.power_log(1, 2), "MAIN3") == "Divergent"
        assert classify_series(GrowthFunction.power_log(1.2, 0), "MAIN3") == "Convergent"
        assert classify_series(GrowthFunction.power_log(1, 1), "HWX", 1) == "Divergent"

    def test_boundaries(self):
        # exponent bookkeeping at alpha = 1: the beta cutoffs are ell, 1/2, 1, 5/2
        assert classify_series(GrowthFunction.power_log(1, 2), "HWX", 2) == "Divergent"
        assert classify_series(GrowthFunction.power_log(1, 2.01), "HWX", 2) == "Convergent"
        assert classify_series(GrowthFunction.power_log(1, 0.5), "TTW") == "Divergent"
        assert classify_series(GrowthFunction.power_log(1, 0.6), "TTW") == "Convergent"
        assert classify_series(GrowthFunction.power_log(1, 1.0), "TZ") == "Divergent"
        assert classify_series(GrowthFunction.power_log(1, 1.1), "TZ") == "Convergent"
        assert classify_series(GrowthFunction.power_log(1, 2.5), "MAIN3") == "Divergent"
        assert classify_series(GrowthFunction.power_log(1, 2.6), "MAIN3") == "Convergent"

    def test_exponential_always_convergent(self):
        for thm in growth.THEOREMS:
            assert classify_series(GrowthFunction.exponential(1.01), thm, 3) == "Convergent"
            assert classify_series(GrowthFunction.doubly_exponential(1.1, 1.1), thm, 3) == "Convergent"

    def test_constant_phi_divergent(self):
        for thm in growth.THEOREMS:
            assert classify_series(GrowthFunction.power_log(0, 0), thm, 2) == "Divergent"

    def test_monotone_consistency(self):
        # pointwise larger phi within the family never flips Divergent -> Convergent
        # while the smaller one's partial sums dominate
        pairs = [((0.5, 0), (0.9, 0)), ((1, 0.2), (1, 0.4)), ((1, 3), (1.5, 3))]
        for small, large in pairs:
            for ell in (1, 2, 3):
                small_c = classify_series(GrowthFunction.power_log(*small), "HWX", ell)
                large_c = classify_series(GrowthFunction.power_log(*large), "HWX", ell)
                if small_c == "Convergent":
                    assert large_c == "Convergent"

    def test_table_heuristic(self):
        conv = GrowthFunction.table([2.0 + n**2 for n in range(1, 400)])
        assert classify_series(conv, "HWX", 1) in ("Convergent", "Inconclusive")
        div = GrowthFunction.table([2.0 + 0.001 * n for n in range(400)])
        assert classify_series(div, "HWX", 1) in ("Divergent", "Inconclusive")

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            classify_series(GrowthFunction.power_log(1, 1), "NOPE")


class TestWlogNormalizer:
    def test_threshold_solves_equation(self):
        for n in (2, 5, 100, 10**4, 10**6):
            x = oracles.wlog_threshold(n)
            assert x / math.log(x) ** 2 == pytest.approx(n, rel=1e-10)

    def test_threshold_increasing(self):
        xs = [oracles.wlog_threshold(n) for n in range(2, 200)]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_normalized_dominates_and_self_bounds(self):
        phi = GrowthFunction.power_log(1, 0.5)  # MAIN3-divergent, phi < x_n eventually
        psi = oracles.normalize_for_main3(phi, 3000)
        for n in range(1, 3001, 37):
            assert psi.phi(n) >= phi.phi(n) - 1e-9
        vals = [psi.phi(n) for n in range(1, 3001)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        # past the finite patch, psi(n) >= n log^2 psi(n)
        for n in range(10, 3001, 29):
            v = psi.phi(n)
            assert v >= n * math.log(v) ** 2 * (1 - 1e-9)

    def test_normalized_keeps_main3_divergence(self):
        # phi = n log^2 n diverges for MAIN3; the patched psi must keep
        # n * (term at n) bounded away from zero along the grid
        phi = GrowthFunction.power_log(1, 2)
        psi = oracles.normalize_for_main3(phi, 5000)
        for n in (50, 500, 5000):
            v = psi.phi(n)
            term = n * math.log(v) ** 4 / v**2 + math.log(v) / v
            assert n * term > 0.5


def _threshold_cases():
    """(phi, n) pairs at exact ties, small and giant, for every family."""
    cases = [(GrowthFunction.power_log(0, 0), n) for n in (1, 7, 10**6)]
    cases += [(GrowthFunction.power_log(1, 2), n) for n in (3, 100, 10**13)]
    cases += [(GrowthFunction.exponential(2), n) for n in (1, 2, 24, 53, 60, 1023, 1100)]
    cases += [(GrowthFunction.exponential(3), n) for n in (1, 5, 40, 646, 700)]
    cases += [(GrowthFunction.exponential(2.5), n) for n in (3, 50)]
    cases += [(GrowthFunction.doubly_exponential(2, 2), n) for n in (1, 3, 6, 9)]
    cases += [(GrowthFunction.doubly_exponential(3, 1.5), n) for n in (2, 10)]
    table = GrowthFunction.table([2.0, 3.0, 3.5, 1e17, 2.0**60, 1e20])
    cases += [(table, n) for n in range(1, 7)]
    return cases


@pytest.mark.parametrize(
    "f, n", _threshold_cases(), ids=lambda v: repr(v) if isinstance(v, int) else v.family
)
def test_meets_threshold_at_ties(f, n):
    exact = f.phi_exact(n)
    tie = math.ceil(exact if exact is not None else f.phi(n))
    for p in (0, 1, 2, 3, tie - 1, tie, tie + 1, 2 * tie):
        want = p >= exact if exact is not None else p >= f.phi(n)
        assert f.meets_threshold(p, n) == want, (p, tie)


def test_meets_threshold_decides_the_clamp_without_phi(monkeypatch):
    # phi(1) = phi(2) = 2 by the clamp: the tie needs no numpy window
    f = GrowthFunction.power_log(1, 2)

    def no_phi(self, n):
        raise AssertionError(f"phi({n}) evaluated")

    monkeypatch.setattr(GrowthFunction, "phi", no_phi)
    assert [f.meets_threshold(p, n) for n in (1, 2) for p in (1, 2, 3)] == [False, True, True] * 2
    assert f.phi_exact(1) == f.phi_exact(2) == 2


@pytest.mark.parametrize("f", [
    GrowthFunction.power_log(1, 2),
    GrowthFunction.power_log(0.5, 1),  # clamped at n <= 3, phi(4) = 2.77
    GrowthFunction.power_log(1, 0),  # phi(2) = 2 unclamped: no exact value, a float tie
], ids=lambda f: f"{f.family}{f.params}")
def test_meets_threshold_small_products_match_phi(f):
    N = 10**4
    phi = f.phi_array(N)
    for p in range(1, 5):
        assert [f.meets_threshold(p, n) for n in range(1, N + 1)] == (p >= phi).tolist(), p
