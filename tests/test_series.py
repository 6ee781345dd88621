import math
import tracemalloc
from itertools import product as iproduct

import mpmath
import numpy as np
import pytest

from cflab import series as se
from cflab.errors import DomainError, ResourceLimitError

import oracles


class TestDivisorSieve:
    def test_d1_is_one(self):
        assert np.all(se.divisor_table(1, 100)[1:] == 1)

    def test_small_values(self):
        assert se.divisor_table(2, 10)[6] == 4
        # ordered triples with product 4: enumerate directly
        count = sum(1 for t in iproduct(range(1, 5), repeat=3) if math.prod(t) == 4)
        assert se.divisor_table(3, 10)[4] == count == 6

    def test_convolution_identity(self):
        # d_{a+b} = d_a * d_b (Dirichlet convolution) on v <= 1000
        limit = 1000
        d1 = se.divisor_table(1, limit)
        d2 = se.divisor_table(2, limit)
        d3 = se.divisor_table(3, limit)
        for v in range(1, limit + 1, 7):
            conv = sum(int(d2[e]) * int(d1[v // e]) for e in range(1, v + 1) if v % e == 0)
            assert conv == int(d3[v])

    def test_dirichlet_piltz(self):
        assert oracles.dirichlet_piltz(1, 77) == 77
        assert oracles.dirichlet_piltz(2, 10) == 27
        assert oracles.dirichlet_piltz(3, 1) == 1

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            se.divisor_table(4, 10**9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_tuple_enumeration(self, k):
        # the slice split changes at isqrt(limit): cover limits around squares
        for limit in (1, 2, 3, 15, 16, 17, 99, 100, 101, 120, 121, 122, 1023, 1024, 1025):
            assert se.divisor_table(k, limit).tolist() == oracles.divisor_counts(k, limit)

    def test_peak_memory_three_tables(self):
        limit = 10**6
        tracemalloc.start()
        try:
            se.divisor_table(2, limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (limit + 1)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_non_finite_M_rejected(self, M):
        for fn in (lambda: se.series_block_tail(2, M), lambda: se.series_harmonic_box(2, M)):
            with pytest.raises(DomainError):
                fn()
        with pytest.raises(DomainError):
            se.geometric_grid(100.0, M, 3)


class TestZeta:
    def test_zeta2(self):
        assert se.zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-14)

    @pytest.mark.parametrize("t", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_vs_mpmath(self, t):
        assert se.zeta(t) == pytest.approx(float(mpmath.zeta(t)), abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            se.zeta(1.0)

    def test_bits_pinned(self):
        # float.hex() from the solver that had a separate Hurwitz-tail entry point
        pins = {1.5: "0x1.4e6250bfbd89dp+1", 2.0: "0x1.a51a6625307d4p+0", 3.7: "0x1.1b35b4c90a471p+0",
                12.0: "0x1.001020a5b2cd3p+0"}
        for t, want in pins.items():
            got = se.zeta(t)
            assert type(got) is float and got.hex() == want, t

    @pytest.mark.parametrize("t", [1.0 + 1e-6, 1.5, 2.0, 3.7, 12.0])
    def test_hurwitz_range_to_infinity_is_the_tail(self, t):
        # sum_{k >= 1} (c + k)^{-t} = zeta(t, c + 1), scalar and array c
        c = np.array([200.0, 200.5, 201.0, 1e5])
        with mpmath.workdps(30):  # 15 digits lose about 1e-8 of zeta(12, 201)
            want = [float(mpmath.zeta(t, ci + 1)) for ci in c]
        assert np.allclose(se.hurwitz_range(t, c, math.inf), want, rtol=1e-11, atol=0.0)
        assert se.hurwitz_range(t, 1e5, math.inf) == pytest.approx(want[-1], rel=1e-15)

    # the three-term remainder is relatively about t^5 c^-6 / 30240: 3e-12 at t = 12, c = 200
    @pytest.mark.parametrize("t, rtol", [(0.9, 1e-15), (1.0, 1e-15), (1.0 + 1e-9, 1e-15),
                                         (2.0, 1e-15), (12.0, 5e-12)])
    def test_hurwitz_range_is_the_finite_sum(self, t, rtol):
        # sum of (a + x)^{-t} over 200 < a <= 3000, finite at t = 1 where each tail diverges
        x = np.array([0.0, 0.5, 1.0])
        got = se.hurwitz_range(t, 200.0 + x, 3000.0 + x)
        want = [math.fsum((a + c) ** -t for a in range(201, 3001)) for c in x]
        assert np.allclose(got, want, rtol=rtol, atol=0.0)


class TestClosedForms:
    def test_block_tail(self):
        assert se.series_block_tail(1, 1).value == pytest.approx(math.pi**2 / 6, abs=1e-13)
        assert se.series_block_tail(1, 2).value == pytest.approx(math.pi**2 / 6 - 1, abs=1e-13)

    def test_overlap_unconstrained(self):
        z2 = se.zeta(2.0)
        assert se.series_overlap(1, 1, 1).value == pytest.approx(z2**3, rel=1e-14)

    def test_harmonic(self):
        assert se.series_harmonic_box(1, 1).value == 1.0
        assert se.series_harmonic_box(1, 10).value == pytest.approx(7381 / 2520, rel=1e-14)

    def test_shifted_forced(self):
        z2 = se.zeta(2.0)
        assert se.series_shifted(1, 2).value == pytest.approx(z2 - 1, rel=1e-13)

    def test_power_tail_full(self):
        assert se.series_power_tail(1, 1, 2.0).value == pytest.approx(math.pi**2 / 6, abs=1e-13)

    def test_power_domain(self):
        with pytest.raises(DomainError):
            se.series_power_tail(2, 10, 1.0)


BRUTE_CASES = [
    ("block_tail", dict(ell=1)),
    ("block_tail", dict(ell=2)),
    ("block_tail", dict(ell=3)),
    ("overlap", dict(r=1, j=1)),
    ("overlap", dict(r=1, j=2)),
    ("overlap", dict(r=2, j=1)),
    ("harmonic", dict(ell=1)),
    ("harmonic", dict(ell=2)),
    ("shifted", dict(ell=1)),
    ("shifted", dict(ell=2)),
    ("power_tail", dict(k=2, t=1.5)),
    ("power_tail", dict(k=2, t=2.0)),
    ("power_box", dict(ell=2, s=0.5)),
]


@pytest.mark.parametrize("name,params", BRUTE_CASES)
@pytest.mark.parametrize("M", [50, 200])
def test_hybrid_matches_brute_force(name, params, M):
    got, want = _evaluate_pair(name, params, M)
    assert got == pytest.approx(want, rel=1e-10)


def _evaluate_pair(name, params, M):
    if name == "block_tail":
        return se.series_block_tail(params["ell"], M).value, oracles.oracle_block_tail(params["ell"], M)
    if name == "overlap":
        return (
            se.series_overlap(params["r"], params["j"], M).value,
            oracles.oracle_overlap(params["r"], params["j"], M),
        )
    if name == "harmonic":
        return se.series_harmonic_box(params["ell"], M).value, oracles.oracle_harmonic_box(params["ell"], M)
    if name == "shifted":
        return se.series_shifted(params["ell"], M).value, oracles.oracle_shifted(params["ell"], M)
    if name == "power_tail":
        return (
            se.series_power_tail(params["k"], M, params["t"]).value,
            oracles.oracle_power_tail(params["k"], M, params["t"]),
        )
    if name == "power_box":
        return (
            se.series_power_box(params["ell"], M, params["s"]).value,
            oracles.oracle_power_box(params["ell"], M, params["s"]),
        )
    raise AssertionError(name)


def test_tail_certificates_cover_residual():
    # ten spot checks against 30-digit recomputation of the same formulas
    rng = np.random.default_rng(42)
    with mpmath.workdps(30):
        z2 = mpmath.zeta(2)
        for _ in range(10):
            ell = int(rng.integers(1, 4))
            M = int(rng.integers(5, 400))
            sv = se.series_block_tail(ell, M)
            table = se.divisor_table(ell, max(M - 1, 1))
            head = mpmath.fsum(int(table[v]) / mpmath.mpf(v) ** 2 for v in range(1, M))
            true = float(z2**ell - head)
            assert abs(sv.value - true) <= sv.abs_error_bound


def test_power_tail_asymptotic_band():
    # ratio to M^{1-t} log M / (t-1) stays in a fixed band for t = 1.5
    scan = se.asymptotic_ratio_scan("S6", {"t": 1.5}, se.geometric_grid(1e2, 1e6, 5))
    assert scan.within_band


def test_scan_examples():
    grid = se.geometric_grid(1e3, 1e6, 4)
    s1 = se.asymptotic_ratio_scan("S1", {"ell": 2}, grid)
    assert s1.within_band and s1.top_decade_spread < 3
    s3 = se.asymptotic_ratio_scan("S3", {"ell": 1}, [10**6])
    assert abs(s3.rows[-1].ratio - 1.0) < 0.05
    e2 = se.asymptotic_ratio_scan("E0102", {}, grid)
    assert e2.within_band  # value * M inside the frozen band


def test_scan_unknown_id():
    with pytest.raises(DomainError):
        se.asymptotic_ratio_scan("S99", {}, [10.0])


def test_series_value_float_protocol():
    sv = se.series_harmonic_box(1, 10)
    assert float(sv) == sv.value
