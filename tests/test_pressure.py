import math
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cflab import pressure as pr
from cflab.errors import DomainError, ResourceLimitError
from cflab.growth import GrowthFunction

import oracles

TRUNCATED = pr.PressureSolverParams(tail_correction=False)
FAST = pr.PressureSolverParams(bisect_tol=1e-4)


class TestAlgebra:
    def test_g3_examples(self):
        assert pr.g3(1) == 1
        assert pr.g3(Fraction(1, 2)) == Fraction(1, 6)

    def test_g3_equals_3s_minus_1_minus_x2(self):
        for s in (0.4, 0.6, 0.8, 1.0):
            sf = Fraction(s).limit_denominator(10)
            _, x2, _ = pr.x_functions(sf)
            assert pr.g3(sf) == 3 * sf - 1 - x2

    def test_x_functions(self):
        assert pr.x_functions(1) == (0, 1, 0)
        assert pr.x_functions(Fraction(1, 2)) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        for k in range(0, 11):
            x1, x2, x3 = pr.x_functions(Fraction(k, 10))
            assert x1 + x2 + x3 == 1
            assert 0 <= min(x1, x2, x3) and max(x1, x2, x3) <= 1

    def test_wang_wu(self):
        s = Fraction(1, 2)
        assert pr.wang_wu_f(1, s) == s
        assert pr.wang_wu_f(2, s) == Fraction(1, 4)
        for n in (1, 2, 5):
            assert pr.wang_wu_f(n, 1) == 1
        assert pr.wang_wu_f(3, 0) == 0  # limit value at s = 0

    def test_wang_wu_f3_closed_form(self):
        s = Fraction(3, 7)
        assert pr.wang_wu_f(3, s) == s**3 / (1 - s + s**2)


class TestAuxReport:
    def test_identity_at_grid(self):
        rows = pr.aux_inequality_report([k / 100 for k in range(101)])
        assert all(abs(r.identity_gap) <= 1e-12 for r in rows)
        assert all(abs(r.x2_gap) <= 1e-12 for r in rows)

    def test_g3_below_3s_minus_1_gap(self):
        s = Fraction(2, 5)
        _, x2, _ = pr.x_functions(s)
        assert x2 == Fraction(4, 19)
        assert pr.g3(s) == 3 * s - 1 - Fraction(4, 19)

    def test_aux3_at_one(self):
        (row,) = pr.aux_inequality_report([1.0])
        assert row.aux3_margin == pytest.approx(3 - 1)

    def test_aux2_documented_failure(self):
        rows = pr.aux_inequality_report([0.5, 1.0])
        assert not rows[0].aux2_holds and not rows[1].aux2_holds
        assert rows[0].aux2_lhs == pytest.approx(1 / 6)
        assert rows[0].aux2_rhs == pytest.approx(-1 / 3)

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            pr.aux_inequality_report([1.5])


class TestWordOracle:
    def test_fibonacci_alphabet(self):
        # A = {1}: q_n are Fibonacci numbers, the only word contributes q_n^-2s
        fib = [1, 1]  # fib[i] = F_{i+1}, so q_n of the all-ones word is fib[n]
        for _ in range(20):
            fib.append(fib[-1] + fib[-2])
        for s, n in ((0.7, 10), (1.0, 14)):
            want = -2.0 * s * math.log(fib[n]) / n
            assert oracles.word_pressure_oracle(s, [1], n) == pytest.approx(want, abs=1e-12)

    def test_counting_at_s_zero(self):
        for m in (2, 5, 9):
            assert oracles.word_pressure_oracle(0.0, range(1, m + 1), 1) == pytest.approx(math.log(m))

    def test_cauchy_convergence(self):
        a = oracles.word_pressure_oracle(1.0, [1, 2], 8)
        b = oracles.word_pressure_oracle(1.0, [1, 2], 12)
        assert abs(a - b) < 0.05

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            oracles.word_pressure_oracle(0.8, range(1, 100), 6)


class TestTransferPressure:
    def test_fibonacci_limit(self):
        want = -2.0 * 0.7 * math.log(pr.GOLDEN)
        assert pr.transfer_pressure(0.7, 1, TRUNCATED) == pytest.approx(want, abs=1e-6)

    def test_strictly_decreasing_in_s(self):
        vals = [pr.transfer_pressure(s, 1000) for s in (0.6, 0.7, 0.8, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_alphabet(self):
        for params in (pr.DEFAULT_PARAMS, TRUNCATED):
            v100 = pr.transfer_pressure(0.8, 100, params)
            v1000 = pr.transfer_pressure(0.8, 1000, params)
            assert v1000 >= v100 - 1e-12

    def test_gauss_kuzmin_wirsing_eigenvalue(self):
        # the Gauss operator's second eigenvalue, -0.30366... (Wirsing), through the explicit
        # rows, the Taylor-Hurwitz tail and the barycentric rows at once
        ev = np.linalg.eigvals(pr._transfer_matrix(1.0, pr._MAX_N, pr.DEFAULT_PARAMS))
        second = ev[np.argsort(-np.abs(ev))[1]]
        assert abs(second - -0.3036630028987326586) <= 1e-14

    def test_word_oracle_agreement(self):
        # the two-point difference of word counts extracts the n -> infinity
        # limit (the raw n = 14 value carries an O(1/n) bias of ~0.03)
        for s in (0.6, 0.8):
            for N in (2, 3):
                lam14 = 14 * oracles.word_pressure_oracle(s, range(1, N + 1), 14)
                lam7 = 7 * oracles.word_pressure_oracle(s, range(1, N + 1), 7)
                limit = (lam14 - lam7) / 7
                assert abs(limit - pr.transfer_pressure(s, N, TRUNCATED)) < 0.02

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            pr.transfer_pressure(0.8, 0)
        with pytest.raises(DomainError):
            pr.transfer_pressure(0.8, 2**53 + 1)
        big = pr.transfer_pressure(0.8, 10**7)  # the operator's size does not depend on N
        assert math.isfinite(big) and big >= pr.transfer_pressure(0.8, 10**4)

    def test_cli_astronomical_alphabet_exits_domain(self):
        done = _python("-m", "cflab.cli", "pressure", "--s", "0.7", "--alphabet", str(10**400))
        assert done.returncode == 1 and done.stderr.startswith("error[domain]")
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("s", ["10", "1e5", "1e10", "1e103"])
    def test_cli_unresolved_large_s_exits_domain(self, s):
        # at s = 10 and 1e5 the 64-point matrix has a negative leading eigenvalue; at 1e10
        # every entry but one underflows and power iteration collapses to zero; at 1e103
        # an Euler-Maclaurin term is inf * 0
        done = _python("-m", "cflab.cli", "pressure", "--s", s)
        assert done.returncode == 1 and done.stderr.startswith("error[domain]: s = ")
        assert "64-point grid" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("points, s", [("3", "3"), ("2", "6")])
    def test_cli_unsettled_power_iteration_exits_domain(self, points, s):
        # the 3-point matrix has a complex pair of leading eigenvalues at s = 3, the 2-point
        # one a +- pair at s = 6: the Rayleigh quotient never settles
        done = _python("-m", "cflab.cli", "pressure", "--grid-points", points, "--s", s)
        assert done.returncode == 1 and done.stderr.startswith("error[domain]: s = ")
        assert f"{points}-point grid" in done.stderr and "did not settle" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert done.stdout == ""


def _pressure_of(monkeypatch, A, s, params=pr.DEFAULT_PARAMS):
    """transfer_pressure's power iteration run on the matrix A."""
    with monkeypatch.context() as patch:
        patch.setattr(pr, "_transfer_matrix", lambda *_: A)
        return pr.transfer_pressure(s, 1, params)


class TestExactOracles:
    """Values of the whole Gauss system and of a two-letter alphabet known in closed form."""

    def test_pressure_vanishes_at_one(self):
        assert abs(pr.transfer_pressure(1.0, 1000)) <= 1e-10

    def test_derivative_at_one_is_minus_the_lyapunov_exponent(self):
        h = 1e-4
        slope = (pr.transfer_pressure(1.0 + h, 1000) - pr.transfer_pressure(1.0 - h, 1000)) / (2 * h)
        assert abs(slope + math.pi**2 / (6 * math.log(2))) <= 1e-6

    def test_dimension_of_the_two_letter_set(self):
        # Jenkinson and Pollicott (2001): dim E_{1,2} = 0.5312805062772051...
        lo, hi = 0.5, 0.6
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if pr.transfer_pressure(mid, 2, TRUNCATED) > 0.0 else (lo, mid)
        assert abs(0.5 * (lo + hi) - 0.5312805062772051) <= 1e-10


class TestCollocationRows:
    """One operator of _K explicit branches plus the Taylor-Hurwitz sum, built once per grid."""

    @pytest.mark.parametrize("N", [1, 50, 100, 200, 201, 1000, 10**4])
    def test_operator_matches_the_literal_matrix(self, monkeypatch, N):
        for s in (0.45, 0.5, pr._TAIL_MIN_S, 0.8284, 1.0):
            want = oracles.collocation_matrix(s, N, TRUNCATED)
            if N <= pr._K:
                assert np.array_equal(pr._transfer_matrix(s, N, TRUNCATED), want)
            got = pr.transfer_pressure(s, N, TRUNCATED)
            assert abs(got - _pressure_of(monkeypatch, want, s, TRUNCATED)) <= 1e-14
        for s in (0.45, 0.5):  # below _TAIL_MIN_S the default operator is the truncated one
            assert np.array_equal(pr._transfer_matrix(s, N, pr.DEFAULT_PARAMS),
                                  pr._transfer_matrix(s, N, TRUNCATED))

    @pytest.mark.parametrize("N", [50, 100, 1000])
    def test_full_alphabet_lies_in_the_tail_bracket(self, monkeypatch, N):
        for s in (pr._TAIL_MIN_S, 0.6, 0.8284, 1.0):
            full = pr.transfer_pressure(s, N)
            lower, upper = oracles.tail_bracket(s, N, pr.DEFAULT_PARAMS)
            p_lower, p_upper = (_pressure_of(monkeypatch, A, s) for A in (lower, upper))
            assert p_lower - 1e-12 <= full <= p_upper + 1e-12

    def test_single_evaluation_keeps_nothing(self):
        """Nothing outlives an evaluation but the cached operator parts."""
        rows = pr._K * pr.DEFAULT_PARAMS.grid_points ** 2 * 8
        for N in (1000, 10**6):
            pr._operator_parts.cache_clear()
            tracemalloc.start()
            try:
                pr.transfer_pressure(0.7, N)
                cached, _ = tracemalloc.get_traced_memory()
                pr._operator_parts.cache_clear()
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cached <= rows + 1_000_000
            assert current < 1_000_000

    def test_single_evaluation_peaks_at_one_chunk_buffer(self):
        """The _K branches' rows are the one chunk; the peak does not grow with N."""
        rows = pr._K * pr.DEFAULT_PARAMS.grid_points ** 2 * 8
        for N in (2500, 10**4, 10**6):
            pr._operator_parts.cache_clear()
            tracemalloc.start()
            try:
                pr.transfer_pressure(0.7, N)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= rows + 4_000_000

    def test_solver_builds_the_rows_once(self):
        pr._operator_parts.cache_clear()
        pr.hausdorff_dim("F3", GrowthFunction.exponential(2.0), FAST)
        assert pr._operator_parts.cache_info().misses == 1

    def test_grid_limit_is_200_points(self):
        # _K rows of 200^2 entries are exactly _ROWS_BUDGET bytes
        with pytest.raises(ResourceLimitError):
            pr.transfer_pressure(0.7, 10, pr.PressureSolverParams(grid_points=201))
        try:
            assert math.isfinite(pr.transfer_pressure(0.7, 10, pr.PressureSolverParams(grid_points=200)))
        finally:
            pr._operator_parts.cache_clear()

    def test_grid_over_budget_rejected_before_allocation(self):
        # 10^9 points would need 8e18 bytes of rows; the child may map only 2 GiB
        code = (
            "import tracemalloc\n"
            "from cflab import pressure as pr\n"
            "from cflab.errors import ResourceLimitError\n"
            "from cflab.growth import GrowthFunction\n"
            "huge = pr.PressureSolverParams(grid_points=10**9)\n"
            "tracemalloc.start()\n"
            "for call in (lambda: pr.transfer_pressure(0.7, 10, huge),\n"
            "             lambda: pr.hausdorff_dim('F3', GrowthFunction.exponential(2), huge)):\n"
            "    try:\n"
            "        call()\n"
            "    except ResourceLimitError:\n"
            "        continue\n"
            "    raise SystemExit('not refused')\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        done = _python("-c", code, address_space=2**31)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1_000_000

    def test_cli_grid_over_budget_exits_resource(self):
        done = _python("-m", "cflab.cli", "pressure", "--s", "0.7", "--grid-points", str(10**9),
                       address_space=2**31)
        assert done.returncode == 2 and done.stderr.startswith("error[resource]")
        assert done.stdout == ""


class TestBlockedRows:
    """The rows, built whole-array in place, are the oracle's; a y on a node gives a unit row."""

    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_nodes_on_block_boundaries(self, m):
        x, w = pr._cheb_nodes_weights(m)
        y = np.random.default_rng(m).random(7 * 5 + 3)
        on_node = [0, 6, 7, 13, 14, 20, 36, 37]  # the first and last rows, and rows in between
        y[on_node] = x[np.arange(len(on_node)) % m]
        got = pr._barycentric_rows(y, x, w, np.empty((len(y), m)))
        want = oracles.barycentric_rows(y, x, w)
        assert np.array_equal(got, want)
        assert all(np.count_nonzero(got[p]) == 1 for p in on_node)
        for short in (1, 6, 7, 8):  # a single row, and a few
            assert np.array_equal(pr._barycentric_rows(y[:short], x, w, np.empty((short, m))),
                                  want[:short])

    def test_chunks(self):
        """The _K branches' rows, built as one chunk."""
        pr._operator_parts.cache_clear()
        try:
            x, w, y, rows, _ = pr._operator_parts(64)
        finally:
            pr._operator_parts.cache_clear()
        want = oracles.barycentric_rows(y.reshape(-1), x, w).reshape(rows.shape)
        assert np.array_equal(rows, want)
        assert y[0, -1] == x[0] and np.count_nonzero(rows[0, -1]) == 1  # a = 1 at the node x = 0

    @pytest.mark.parametrize("N", [100, 1000])
    def test_small_blocks_keep_the_matrix(self, N):
        """Rebuilt operator parts give the same matrix bitwise."""
        params = pr.DEFAULT_PARAMS
        svals = (0.46, pr._TAIL_MIN_S, 0.8)
        pr._operator_parts.cache_clear()
        want = [pr._transfer_matrix(s, N, params) for s in svals]
        pr._operator_parts.cache_clear()
        try:
            for s, default in zip(svals, want):
                assert np.array_equal(pr._transfer_matrix(s, N, params), default)
        finally:
            pr._operator_parts.cache_clear()


class TestSmOracle:
    def test_m1_matches_zeta_condition(self):
        # for m = 1 the condition is zeta(2s) <= B^{g3(s)}; verify at the root
        B = 2.0
        s1 = pr.s_m_oracle(B, 1)
        from cflab.series import zeta

        gap = zeta(2 * s1) - B ** float(pr.g3(s1))
        assert abs(gap) < 5e-3

    def test_decreasing_in_B(self):
        vals = [pr.s_m_oracle(B, 1) for B in (10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.5

    def test_nonincreasing_in_m(self):
        s1 = pr.s_m_oracle(2.0, 1)
        s2 = pr.s_m_oracle(2.0, 2)
        assert s2 <= s1

    def test_box_sum_replaces_the_partial_zeta_sum_at_m1(self):
        # the library takes zeta(2s) alone at m = 1 and the distinct continuants at m = 2, 3;
        # the oracle sums every word of the box and the partial zeta sum directly
        for m in (1, 2, 3):
            for B in (1.5, 2.0, 10.0, 100.0, 1000.0):
                assert pr.s_m_oracle(B, m) == oracles.s_m_partial_zeta(B, m)
        for m in (1, 2):
            for B in np.geomspace(1.001, 1e7, 20):
                assert pr.s_m_oracle(float(B), m) == oracles.s_m_partial_zeta(float(B), m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_continuant_multiset_is_the_box(self, m):
        n_trunc = pr.DEFAULT_SM_TRUNC[m]
        logq, counts = pr._continuant_multiset(m, n_trunc)
        assert counts.sum() == n_trunc**m and np.all(np.diff(logq) > 0)
        words = oracles.box_log_continuants(m, n_trunc)
        for t in (1.2, 2.0, 8.0):
            grouped = float(np.sum(counts * np.exp(-t * logq)))
            exact = math.fsum(np.exp(-t * words))
            assert abs(grouped - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("n_trunc", [1, 2, 3, 7, 64, 333, 800])
    def test_continuant_sieve_is_the_bincount(self, n_trunc):
        got = pr._continuant_multiset(2, n_trunc)
        want = oracles.continuant_multiset_outer(n_trunc)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_huge_B_bound_is_infinite(self):
        # B^{m g3(8)} overflows a float from these B on; the condition then holds
        for m, B in ((3, 6e4), (2, 2e7), (1, 2e14)):
            assert 0.5 < pr.s_m_oracle(B, m) < 8.0
        vals = [pr.s_m_oracle(B, 1) for B in (1e14, 2e14, 1e20, 1e100, 1e300)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_m_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            pr.s_m_oracle(2.0, 4)


class TestHausdorffDim:
    def test_b1_branch(self):
        res = pr.hausdorff_dim("F3", GrowthFunction.power_log(1, 2))
        assert res.s == 1.0 and res.branch == "B=1"

    def test_binf_branch_exact(self):
        res = pr.hausdorff_dim("F3", GrowthFunction.doubly_exponential(2, 3))
        assert res.s == 0.25 and res.branch == "B=inf"
        res = pr.hausdorff_dim("E1", GrowthFunction.doubly_exponential(5, 4))
        assert res.s == 0.2

    def test_result_invariants(self):
        res = pr.hausdorff_dim("F3", GrowthFunction.exponential(2.0), FAST)
        lo, hi = res.bracket
        assert lo <= res.s <= hi and hi - lo <= 2 * FAST.bisect_tol
        assert 0.5 <= res.s <= 1.0

    def test_dimension_ordering_and_B_monotone(self):
        d_f2 = pr.hausdorff_dim("F2", GrowthFunction.exponential(2.0), FAST).s
        d_f3 = pr.hausdorff_dim("F3", GrowthFunction.exponential(2.0), FAST).s
        d_e3 = pr.hausdorff_dim("E3", GrowthFunction.exponential(2.0), FAST).s
        assert d_f2 <= d_f3 <= d_e3  # F2 in F3 in E3
        d_f3_bigB = pr.hausdorff_dim("F3", GrowthFunction.exponential(8.0), FAST).s
        assert d_f3_bigB < d_f3

    def test_unknown_set(self):
        with pytest.raises(DomainError):
            pr.hausdorff_dim("F9", GrowthFunction.exponential(2.0))


class TestShulgaHussain:
    def test_single_block_matches_e1(self):
        B = 3.0
        dims, mn = pr.shulga_hussain_dims([B], FAST)
        e1 = pr.hausdorff_dim("E1", GrowthFunction.exponential(B), FAST)
        assert abs(dims[0] - e1.s) <= 2 * FAST.bisect_tol

    def test_trend_toward_one(self):
        _, m_11 = pr.shulga_hussain_dims([1.1], FAST)
        _, m_101 = pr.shulga_hussain_dims([1.01], FAST)
        assert m_101 > m_11
        assert m_101 > 0.9

    def test_domain(self):
        with pytest.raises(DomainError):
            pr.shulga_hussain_dims([1.0, 2.0])


# float.hex() of the solvers' results. The golden outputs reach the bisection only through
# `dim F3 exp 2`; these pin every set, three bases, two tolerances, the lower-bound
# construction and the s_m oracles, so a moved bracket, bisection step or potential fails here.
# (set, base of phi = base^n, bisect_tol) -> (s, lo, hi) of hausdorff_dim
DIM_PINS = {
    ("E1", 1.5, 0.0001): ("0x1.bc20666666668p-1", "0x1.bc1c000000001p-1", "0x1.bc24ccccccccep-1"),
    ("E1", 1.5, 1e-09): ("0x1.bc246f3900001p-1", "0x1.bc246f36ccccep-1", "0x1.bc246f3b33334p-1"),
    ("E1", 2.0, 0.0001): ("0x1.9b9b99999999ap-1", "0x1.9b97333333333p-1", "0x1.9ba0000000000p-1"),
    ("E1", 2.0, 1e-09): ("0x1.9b9d809500000p-1", "0x1.9b9d8092cccccp-1", "0x1.9b9d809733333p-1"),
    ("E1", 50.0, 0.0001): ("0x1.1e2399999999ap-1", "0x1.1e1f333333334p-1", "0x1.1e28000000000p-1"),
    ("E1", 50.0, 1e-09): ("0x1.1e244615ccccfp-1", "0x1.1e2446139999cp-1", "0x1.1e24461800002p-1"),
    ("E2", 1.5, 0.0001): ("0x1.c2a8666666668p-1", "0x1.c2a4000000001p-1", "0x1.c2acccccccccep-1"),
    ("E2", 1.5, 1e-09): ("0x1.c2a5d561ccccep-1", "0x1.c2a5d55f9999ap-1", "0x1.c2a5d56400001p-1"),
    ("E2", 2.0, 0.0001): ("0x1.a7fb99999999ap-1", "0x1.a7f7333333333p-1", "0x1.a800000000000p-1"),
    ("E2", 2.0, 1e-09): ("0x1.a7fb520a33333p-1", "0x1.a7fb520800000p-1", "0x1.a7fb520c66666p-1"),
    ("E2", 50.0, 0.0001): ("0x1.3d1c666666666p-1", "0x1.3d18000000000p-1", "0x1.3d20cccccccccp-1"),
    ("E2", 50.0, 1e-09): ("0x1.3d1ad5c033334p-1", "0x1.3d1ad5be00000p-1", "0x1.3d1ad5c266667p-1"),
    ("E3", 1.5, 0.0001): ("0x1.c358666666666p-1", "0x1.c354000000000p-1", "0x1.c35cccccccccdp-1"),
    ("E3", 1.5, 1e-09): ("0x1.c358140766666p-1", "0x1.c358140533332p-1", "0x1.c358140999999p-1"),
    ("E3", 2.0, 0.0001): ("0x1.a9ce000000000p-1", "0x1.a9c9999999999p-1", "0x1.a9d2666666666p-1"),
    ("E3", 2.0, 1e-09): ("0x1.a9cf636dcccccp-1", "0x1.a9cf636b99998p-1", "0x1.a9cf636ffffffp-1"),
    ("E3", 50.0, 0.0001): ("0x1.4825333333332p-1", "0x1.4820cccccccccp-1", "0x1.4829999999999p-1"),
    ("E3", 50.0, 1e-09): ("0x1.48270012ffffep-1", "0x1.48270010ccccbp-1", "0x1.4827001533332p-1"),
    ("F1", 1.5, 0.0001): ("0x1.99f5333333332p-1", "0x1.99f0ccccccccbp-1", "0x1.99f9999999998p-1"),
    ("F1", 1.5, 1e-09): ("0x1.99f8dbb433331p-1", "0x1.99f8dbb1ffffep-1", "0x1.99f8dbb666664p-1"),
    ("F1", 2.0, 0.0001): ("0x1.7795333333334p-1", "0x1.7790ccccccccdp-1", "0x1.779999999999ap-1"),
    ("F1", 2.0, 1e-09): ("0x1.77924b7433334p-1", "0x1.77924b7200000p-1", "0x1.77924b7666667p-1"),
    ("F1", 50.0, 0.0001): ("0x1.1679333333334p-1", "0x1.1674ccccccccep-1", "0x1.167d99999999bp-1"),
    ("F1", 50.0, 1e-09): ("0x1.167940689999bp-1", "0x1.1679406666668p-1", "0x1.1679406accccep-1"),
    ("F2", 1.5, 0.0001): ("0x1.bd31333333332p-1", "0x1.bd2ccccccccccp-1", "0x1.bd35999999999p-1"),
    ("F2", 1.5, 1e-09): ("0x1.bd2eb12b66665p-1", "0x1.bd2eb12933332p-1", "0x1.bd2eb12d99998p-1"),
    ("F2", 2.0, 0.0001): ("0x1.9eb399999999ap-1", "0x1.9eaf333333333p-1", "0x1.9eb8000000000p-1"),
    ("F2", 2.0, 1e-09): ("0x1.9eb110fc99999p-1", "0x1.9eb110fa66666p-1", "0x1.9eb110fecccccp-1"),
    ("F2", 50.0, 0.0001): ("0x1.31bb99999999ap-1", "0x1.31b7333333334p-1", "0x1.31c0000000001p-1"),
    ("F2", 50.0, 1e-09): ("0x1.31bb4a1966666p-1", "0x1.31bb4a1733333p-1", "0x1.31bb4a1b9999ap-1"),
    ("F3", 1.5, 0.0001): ("0x1.c2a8666666668p-1", "0x1.c2a4000000001p-1", "0x1.c2acccccccccep-1"),
    ("F3", 1.5, 1e-09): ("0x1.c2a9336766669p-1", "0x1.c2a9336533336p-1", "0x1.c2a933699999cp-1"),
    ("F3", 2.0, 0.0001): ("0x1.a80d333333334p-1", "0x1.a808ccccccccdp-1", "0x1.a81199999999ap-1"),
    ("F3", 2.0, 1e-09): ("0x1.a81019ea33333p-1", "0x1.a81019e800000p-1", "0x1.a81019ec66666p-1"),
    ("F3", 50.0, 0.0001): ("0x1.4110666666666p-1", "0x1.410c000000000p-1", "0x1.4114cccccccccp-1"),
    ("F3", 50.0, 1e-09): ("0x1.410d7b1433333p-1", "0x1.410d7b1200000p-1", "0x1.410d7b1666666p-1"),
}
# A -> (d_i, min d_i) of shulga_hussain_dims at the default tolerance
SHULGA_PINS = {
    (2.0,): (("0x1.9b9b99999999ap-1",), "0x1.9b9b99999999ap-1"),
    (1.1,): (("0x1.ecc4666666666p-1",), "0x1.ecc4666666666p-1"),
    (2.0, 4.0, 8.0): (
        ("0x1.9b9b99999999ap-1", "0x1.565799999999ap-1", "0x1.337c666666666p-1"),
        "0x1.337c666666666p-1",
    ),
}
# (B, m) -> s_m_oracle(B, m)
SM_PINS = {
    (1.5, 1): "0x1.0c7eb2f9db22dp+0",
    (1.5, 2): "0x1.d640a044d0138p-1",
    (1.5, 3): "0x1.d21f23e0ded26p-1",
    (2.0, 1): "0x1.d9db1d1eb851ep-1",
    (2.0, 2): "0x1.b534bd25460a8p-1",
    (2.0, 3): "0x1.b2dcbf318fc4ep-1",
    (10.0, 1): "0x1.685c804b5dcc6p-1",
    (10.0, 2): "0x1.62bc8535a8588p-1",
    (10.0, 3): "0x1.62d30521ff2e4p-1",
    (1000000.0, 1): "0x1.0e20cf2474538p-1",
    (1000000.0, 2): "0x1.0e194f2b020c4p-1",
    (1000000.0, 3): "0x1.0e20cf2474538p-1",
}


class TestSolverPins:
    def test_hausdorff_dim(self):
        for (set_id, base, tol), want in DIM_PINS.items():
            res = pr.hausdorff_dim(
                set_id, GrowthFunction.exponential(base), pr.PressureSolverParams(bisect_tol=tol)
            )
            assert res.branch == "B_finite"
            got = (res.s.hex(), res.bracket[0].hex(), res.bracket[1].hex())
            assert got == want, (set_id, base, tol)

    def test_shulga_hussain_dims(self):
        for A, (dims, low) in SHULGA_PINS.items():
            got, got_low = pr.shulga_hussain_dims(list(A))
            assert (tuple(d.hex() for d in got), got_low.hex()) == (dims, low), A

    def test_s_m_oracle(self):
        for (B, m), want in SM_PINS.items():
            assert pr.s_m_oracle(B, m).hex() == want, (B, m)


def _python(*args, address_space=None, text=True):
    """Run the interpreter on cflab in a child process that cannot hang the suite.

    `address_space` caps the child's virtual memory in bytes, so a budget
    check that fails to refuse a huge allocation ends in MemoryError there
    instead of exhausting the machine's memory.
    With text=False the output is bytes, line ends as written.
    """
    src = os.path.dirname(os.path.dirname(pr.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, timeout=60, env=env,
        preexec_fn=cap if address_space else None,
    )


class TestBisectionTolerance:
    def test_bad_params_rejected(self):
        for kwargs in ({"bisect_tol": 0.0}, {"bisect_tol": -1.0}, {"bisect_tol": math.nan},
                       {"grid_points": 1}):
            with pytest.raises(DomainError):
                pr.PressureSolverParams(**kwargs)

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_cli_non_positive_exits_domain(self, tol):
        done = _python("-m", "cflab.cli", "dim", "--set", "F3", "--phi-family", "exp",
                       "--phi-params", "2", "--tol", tol)
        assert done.returncode == 1 and done.stderr.startswith("error[domain]")

    def test_sub_ulp_tolerance_ends_at_adjacent_floats(self):
        code = (
            "from cflab import pressure as pr\n"
            "from cflab.growth import GrowthFunction\n"
            "p = pr.PressureSolverParams(bisect_tol=1e-17)\n"
            "lo, hi = pr.hausdorff_dim('F3', GrowthFunction.exponential(2), p).bracket\n"
            "print(lo.hex(), hi.hex(), pr.s_m_oracle(2.0, 1, params=p).hex())\n"
        )
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        lo, hi, s_m = (float.fromhex(x) for x in done.stdout.split())
        assert math.nextafter(lo, math.inf) == hi
        assert 0.5 < s_m < 8.0
