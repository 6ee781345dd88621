import gc
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from cflab import pressure as pr
from cflab.errors import DomainError, ResourceLimitError
from cflab.growth import GrowthFunction

import oracles

TRUNCATED = pr.PressureSolverParams(tail_correction=False)
FAST = pr.PressureSolverParams(escalation=(100, 1000), bisect_tol=1e-4)


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
        with pytest.raises(ResourceLimitError):
            pr.transfer_pressure(0.8, 10**7)


class TestCollocationRows:
    @pytest.mark.parametrize("N", [100, 1000, 2500])
    def test_reused_rows_give_the_streamed_matrix(self, monkeypatch, N):
        params = pr.DEFAULT_PARAMS
        if N == 2500:  # 82 MB of rows: streamed by default, reused under a larger budget
            assert pr.collocation_rows(N, params) is None
            monkeypatch.setattr(pr, "_ROWS_BUDGET", 128_000_000)
        rows = pr.collocation_rows(N, params)
        assert rows is not None
        for s in (0.46, 0.5, params.tail_min_s, 0.7, 1.0):  # below and above the tail
            streamed = pr._transfer_matrix(s, N, params)
            assert np.array_equal(streamed, oracles.collocation_matrix(s, N, params))
            assert np.array_equal(pr._transfer_matrix(s, N, params, rows), streamed)
            assert pr.transfer_pressure(s, N, params, rows) == pr.transfer_pressure(s, N, params)

    def test_rows_of_another_alphabet_rejected(self):
        rows = pr.collocation_rows(100)
        with pytest.raises(DomainError):
            pr.transfer_pressure(0.7, 101, pr.DEFAULT_PARAMS, rows)
        with pytest.raises(DomainError):
            pr.transfer_pressure(0.7, 100, pr.PressureSolverParams(grid_points=32), rows)

    def test_solver_reuses_one_rows_object_per_alphabet_and_drops_it(self, monkeypatch):
        seen = []  # (N, id of the rows passed, weak reference to them)
        evaluate = pr.transfer_pressure

        def recording(s, N, params=pr.DEFAULT_PARAMS, rows=None):
            assert rows is not None and rows.nbytes <= pr._ROWS_BUDGET
            seen.append((N, id(rows), weakref.ref(rows)))
            return evaluate(s, N, params, rows)

        monkeypatch.setattr(pr, "transfer_pressure", recording)
        pr.hausdorff_dim("F3", GrowthFunction.exponential(2.0), FAST)
        for N in (100, 1000):
            ids = [key for n, key, _ in seen if n == N]
            assert len(ids) > 2 and len(set(ids)) == 1
        gc.collect()
        assert all(ref() is None for _, _, ref in seen)

    def test_single_evaluation_keeps_nothing(self):
        tracemalloc.start()
        try:
            pr.transfer_pressure(0.7, 1000)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1_000_000

    def test_single_evaluation_peaks_at_one_chunk_buffer(self):
        m = pr.DEFAULT_PARAMS.grid_points
        tracemalloc.start()
        try:
            pr.transfer_pressure(0.7, 2500)  # 3 chunks of 976 branches
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pr._chunk_len(m) * m * m * 8 + 4_000_000

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
    """The rows are built in blocks of _BLOCK_ROWS; every entry is the whole-array build's."""

    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_nodes_on_block_boundaries(self, monkeypatch, m):
        monkeypatch.setattr(pr, "_BLOCK_ROWS", 7)
        x, w = pr._cheb_nodes_weights(m)
        y = np.random.default_rng(m).random(7 * 5 + 3)
        on_node = [0, 6, 7, 13, 14, 20, 36, 37]  # first and last rows of blocks, ragged last block
        y[on_node] = x[np.arange(len(on_node)) % m]
        got = pr._barycentric_rows(y, x, w, np.empty((len(y), m)))
        want = oracles.barycentric_rows(y, x, w)
        assert np.array_equal(got, want)
        assert all(np.count_nonzero(got[p]) == 1 for p in on_node)
        for short in (1, 6, 7, 8):  # fewer rows than one block, and exactly one
            assert np.array_equal(pr._barycentric_rows(y[:short], x, w, np.empty((short, m))),
                                  want[:short])

    @pytest.mark.parametrize("block", [7, 64, pr._BLOCK_ROWS])
    def test_chunks_and_stub(self, monkeypatch, block):
        monkeypatch.setattr(pr, "_BLOCK_ROWS", block)
        x, w = pr._cheb_nodes_weights(64)
        monkeypatch.setattr(pr, "_CHUNK_ENTRIES", 3 * 64 * 64 + 5)  # 3 branches a chunk
        for reuse in (True, False):
            chunks = []
            for y, rows in pr._row_chunks(10, x, w, reuse):  # a = 1, x = 0 gives y = 1 = x[0]
                want = oracles.barycentric_rows(y.reshape(-1), x, w).reshape(rows.shape)
                assert np.array_equal(rows, want)
                chunks.append(rows)
            assert [len(rows) for rows in chunks] == [3, 3, 3, 1]
            buffers = {id(rows.base) for rows in chunks}
            assert len(buffers) == (1 if reuse else 4)
        for N in (1, 50, 1000, 10**4):
            want = oracles.barycentric_rows(1.0 / (N + 1.0 + x), x, w)
            assert np.array_equal(pr._stub_rows(N, x, w), want)

    @pytest.mark.parametrize("N", [100, 1000])
    def test_small_blocks_keep_the_matrix(self, monkeypatch, N):
        monkeypatch.setattr(pr, "_BLOCK_ROWS", 7)
        params = pr.DEFAULT_PARAMS
        for s in (0.46, params.tail_min_s, 0.8):
            want = oracles.collocation_matrix(s, N, params)
            assert np.array_equal(pr._transfer_matrix(s, N, params), want)
            assert np.array_equal(pr._transfer_matrix(s, N, params, pr.collocation_rows(N, params)), want)


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


def _python(*args, address_space=None):
    """Run the interpreter on cflab in a child process that cannot hang the suite.

    `address_space` caps the child's virtual memory in bytes, so a budget
    check that fails to refuse a huge allocation ends in MemoryError there
    instead of exhausting the machine's memory.
    """
    src = os.path.dirname(os.path.dirname(pr.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env,
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
            "p = pr.PressureSolverParams(bisect_tol=1e-17, escalation=(100,))\n"
            "lo, hi = pr.hausdorff_dim('F3', GrowthFunction.exponential(2), p).bracket\n"
            "print(lo.hex(), hi.hex(), pr.s_m_oracle(2.0, 1, n_trunc=1000, params=p).hex())\n"
        )
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        lo, hi, s_m = (float.fromhex(x) for x in done.stdout.split())
        assert math.nextafter(lo, math.inf) == hi
        assert 0.5 < s_m < 8.0
