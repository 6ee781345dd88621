import math
import tracemalloc
from itertools import product as iproduct
from unittest import mock

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


# float.hex() of (value, abs_error_bound) of every registered series, recorded before each
# evaluation read all its sums from one sieve per table; None where M lies below the series'
# domain (DomainError). The goldens print 12 digits; these pin every bit.
# (series id, params) -> one entry per M in PIN_MS
PIN_MS = (1.0, 2.0, 2.5, 7.3, 100.0, 999.5, 1e4, 123456.7)
SERIES_PINS = {
    ("S1", (("ell", 1),)): (
        ("0x1.a51a6625307d4p+0", "0x1.c9c4a15ca707fp-44"),  # M = 1.0
        ("0x1.4a34cc4a60fa8p-1", "0x1.ce458d4460dd7p-44"),  # M = 2.0
        ("0x1.94699894c1f50p-2", "0x1.cf65c83e4f52ep-44"),  # M = 2.5
        ("0x1.10aa239ffbc68p-3", "0x1.d0939d184ce51p-44"),  # M = 7.3
        ("0x1.4952e891b6000p-7", "0x1.d12185eb971fap-44"),  # M = 100.0
        ("0x1.06466dfb5dc00p-10", "0x1.d12bf4e90ee94p-44"),  # M = 999.5
        ("0x1.a3738d214c000p-14", "0x1.d12cfeb08ca07p-44"),  # M = 10000.0
        ("0x1.0fcaa23e80000p-17", "0x1.d12d19d0b1803p-44"),  # M = 123456.7
    ),
    ("S1", (("ell", 2),)): (
        ("0x1.5a57eb579ce5cp+1", "0x1.7573e398ad3c7p-42"),  # M = 1.0
        ("0x1.b4afd6af39cb8p+0", "0x1.76941e929bb1dp-42"),  # M = 2.0
        ("0x1.34afd6af39cb8p+0", "0x1.77243c0f92ec8p-42"),  # M = 2.5
        ("0x1.20d95f7d3dbe0p-1", "0x1.77dd2d72f6bffp-42"),  # M = 7.3
        ("0x1.16347997c89c0p-4", "0x1.786c354c489a4p-42"),  # M = 100.0
        ("0x1.29423ef4e3700p-7", "0x1.787d2ba04929ep-42"),  # M = 999.5
        ("0x1.29ef08d1e3800p-10", "0x1.787f7521ea054p-42"),  # M = 10000.0
        ("0x1.d77d6843a0000p-14", "0x1.787fc0b2e671fp-42"),  # M = 123456.7
    ),
    ("S1", (("ell", 3),)): (
        ("0x1.1cdb269329ffdp+2", "0x1.cb79d9e210e17p-41"),  # M = 1.0
        ("0x1.b9b64d2653ffap+1", "0x1.cc09f75f081c2p-41"),  # M = 2.0
        ("0x1.59b64d2653ffap+1", "0x1.cc760d7cc1882p-41"),  # M = 2.5
        ("0x1.8fb28a8e6a474p+0", "0x1.cd1a47c0182e7p-41"),  # M = 7.3
        ("0x1.16f79070e3570p-2", "0x1.cdd4075f806c8p-41"),  # M = 100.0
        ("0x1.7efd0ccb16d80p-5", "0x1.cdf48d64b7ef6p-41"),  # M = 999.5
        ("0x1.d4be6eacb3400p-8", "0x1.cdfa425741d3cp-41"),  # M = 10000.0
        ("0x1.bca17da984000p-11", "0x1.cdfb2aee9cb79p-41"),  # M = 123456.7
    ),
    ("S2", (("r", 1), ("j", 1))): (
        ("0x1.1cdb269329ffdp+2", "0x1.3f7772fba4ab5p-39"),  # M = 1.0
        ("0x1.149be70123826p+1", "0x1.3c3e6fed04fa3p-39"),  # M = 2.0
        ("0x1.541d67dd16877p+0", "0x1.3b12856f56477p-39"),  # M = 2.5
        ("0x1.e996c2ce07587p-2", "0x1.39e01c638a51dp-39"),  # M = 7.3
        ("0x1.28ae75034ecf8p-5", "0x1.3940e67a02d4bp-39"),  # M = 100.0
        ("0x1.d8f232be03f8ep-9", "0x1.393526f24740ep-39"),  # M = 999.5
        ("0x1.7a26d4eb25910p-12", "0x1.3933fb671ac06p-39"),  # M = 10000.0
        ("0x1.ea0fb47c23502p-16", "0x1.3933dcd595e75p-39"),  # M = 123456.7
    ),
    ("S2", (("r", 2), ("j", 2))): (
        ("0x1.3cf6f9318ac97p+4", "0x1.1a4a4a681aedep-36"),  # M = 1.0
        ("0x1.ecc1fcb747201p+3", "0x1.19839bef662e8p-36"),  # M = 2.0
        ("0x1.7796070b78ad3p+3", "0x1.18deb45ffb60dp-36"),  # M = 2.5
        ("0x1.9e764d23d314ap+2", "0x1.17f1c4191f599p-36"),  # M = 7.3
        ("0x1.d98b851cc71fap-1", "0x1.16f7c486cd66ep-36"),  # M = 100.0
        ("0x1.11c299c2f057cp-3", "0x1.16d4225fb37d5p-36"),  # M = 999.5
        ("0x1.1e89abd0cf793p-6", "0x1.16cee6dfca6cdp-36"),  # M = 10000.0
        ("0x1.d38b2d3ef2f2ap-10", "0x1.16ce31cdcea12p-36"),  # M = 123456.7
    ),
    ("S2", (("r", 1), ("j", 3))): (
        ("0x1.8162067bac3f7p+3", "0x1.2cd9b56b9217ap-37"),  # M = 1.0
        ("0x1.381b6cf260202p+3", "0x1.2c0b74a7ea2b5p-37"),  # M = 2.0
        ("0x1.f1a9a6d228019p+2", "0x1.2b5959a6aa888p-37"),  # M = 2.5
        ("0x1.2c2a9db69eebfp+2", "0x1.2a4366225d134p-37"),  # M = 7.3
        ("0x1.b96943ef9a91ep-1", "0x1.28ea9b28c345bp-37"),  # M = 100.0
        ("0x1.37f7896258491p-3", "0x1.28aaac33ae670p-37"),  # M = 999.5
        ("0x1.84c07f54f0065p-6", "0x1.289f16e2d848fp-37"),  # M = 10000.0
        ("0x1.75dda938308acp-9", "0x1.289d35899e399p-37"),  # M = 123456.7
    ),
    ("S3", (("ell", 1),)): (
        ("0x1.0000000000000p+0", "0x1.8bd1193f95807p-47"),  # M = 1.0
        ("0x1.8000000000000p+0", "0x1.769950994a3e0p-46"),  # M = 2.0
        ("0x1.8000000000000p+0", "0x1.769950994a3e0p-46"),  # M = 2.5
        ("0x1.4be2be2be2be2p+1", "0x1.0092f82345f00p-44"),  # M = 7.3
        ("0x1.4bfdfe4591243p+2", "0x1.0e1ebba76b3c8p-42"),  # M = 100.0
        ("0x1.df0192117b6fdp+2", "0x1.23179ec506850p-41"),  # M = 999.5
        ("0x1.39341192de2b8p+3", "0x1.fb7e9a686cbd4p-41"),  # M = 10000.0
        ("0x1.89a0a4c13760bp+3", "0x1.95eb03cb5ff57p-40"),  # M = 123456.7
    ),
    ("S3", (("ell", 3),)): (
        ("0x1.0000000000000p+0", "0x1.8bd1193f95807p-47"),  # M = 1.0
        ("0x1.4000000000000p+1", "0x1.382a6dd51333bp-45"),  # M = 2.0
        ("0x1.4000000000000p+1", "0x1.382a6dd51333bp-45"),  # M = 2.5
        ("0x1.e1d41d41d41d4p+2", "0x1.747deb6aec3c1p-43"),  # M = 7.3
        ("0x1.476f88ef16645p+5", "0x1.0a69a9be210dcp-39"),  # M = 100.0
        ("0x1.a41511cda7837p+6", "0x1.fe9185d871112p-38"),  # M = 999.5
        ("0x1.aeacdc0afcf70p+7", "0x1.5ceb4e29dd0b6p-36"),  # M = 10000.0
        ("0x1.9243f6791ddd7p+8", "0x1.9ed3612f8b59bp-35"),  # M = 123456.7
    ),
    ("S4", (("ell", 1),)): (
        None,  # M = 1.0
        ("0x1.4a34cc4a60fa8p-1", "0x1.196f7152b5260p-41"),  # M = 2.0
        ("0x1.f983feb9f2724p-2", "0x1.189571d74b5ddp-41"),  # M = 2.5
        ("0x1.9c36ab10342c9p-3", "0x1.16f01070d5bd8p-41"),  # M = 7.3
        ("0x1.0d3400f06f540p-6", "0x1.15e5ac90bb1dfp-41"),  # M = 100.0
        ("0x1.af29b19c9434dp-10", "0x1.15d05d7515299p-41"),  # M = 999.5
        ("0x1.58f6c59140b47p-13", "0x1.15ce3b56157f8p-41"),  # M = 10000.0
        ("0x1.bf13b36e3c256p-17", "0x1.15ce0390b2cf2p-41"),  # M = 123456.7
    ),
    ("S4", (("ell", 2),)): (
        None,  # M = 1.0
        ("0x1.4a34cc4a60fa8p-1", "0x1.32765508b7d02p-40"),  # M = 2.0
        ("0x1.4f4f326f9177cp-1", "0x1.327d83a09053ap-40"),  # M = 2.5
        ("0x1.ccafc3ec6f84dp-2", "0x1.31e9c99d427afp-40"),  # M = 7.3
        ("0x1.3549c1caa1a7fp-4", "0x1.30dc04cbad7dcp-40"),  # M = 100.0
        ("0x1.72bc0c2f3145dp-7", "0x1.30adc2bf517c2p-40"),  # M = 999.5
        ("0x1.8b8b1d6dbdf7fp-10", "0x1.30a6b20946b08p-40"),  # M = 10000.0
        ("0x1.4686f718d0659p-13", "0x1.30a5b86b3f64bp-40"),  # M = 123456.7
    ),
    ("S4", (("ell", 3),)): (
        None,  # M = 1.0
        ("0x1.4a34cc4a60fa8p-1", "0x1.3a1c36cefd813p-39"),  # M = 2.0
        ("0x1.a1dc658229b66p-1", "0x1.3a59e545b076cp-39"),  # M = 2.5
        ("0x1.8c9daa2a0dec9p-1", "0x1.3a4af21adddb1p-39"),  # M = 7.3
        ("0x1.c7165ab2c80dep-3", "0x1.3983e9737aaf0p-39"),  # M = 100.0
        ("0x1.797e169e0430fp-5", "0x1.39447454083fap-39"),  # M = 999.5
        ("0x1.01720b41dc2a9p-7", "0x1.3936aec8e84efp-39"),  # M = 10000.0
        ("0x1.07748916d6692p-10", "0x1.393436d5d2651p-39"),  # M = 123456.7
    ),
    ("S5", (("ell", 2), ("s", 0.5))): (
        ("0x1.0000000000000p+0", "0x1.8bd1193f95807p-47"),  # M = 1.0
        ("0x1.3504f333f9de6p+1", "0x1.2d7433093f1f6p-45"),  # M = 2.0
        ("0x1.3504f333f9de6p+1", "0x1.2d7433093f1f6p-45"),  # M = 2.5
        ("0x1.0b45bde49f1c0p+3", "0x1.9d3eea4bfaf0dp-43"),  # M = 7.3
        ("0x1.379c4cc8f5918p+6", "0x1.fb12e1eefb9d1p-39"),  # M = 100.0
        ("0x1.813d98bd5a851p+8", "0x1.d438c95e7d9c3p-36"),  # M = 999.5
        ("0x1.a2d262a574f0bp+10", "0x1.5350df5221bf1p-33"),  # M = 10000.0
        ("0x1.dde7cd05ca0efp+12", "0x1.ecd3d42231feep-31"),  # M = 123456.7
    ),
    ("S5", (("ell", 3), ("s", 0.25))): (
        ("0x1.0000000000000p+0", "0x1.8bd1193f95807p-47"),  # M = 1.0
        ("0x1.c2e77b3041ec2p+1", "0x1.b7dd7ada4e818p-45"),  # M = 2.0
        ("0x1.c2e77b3041ec2p+1", "0x1.b7dd7ada4e818p-45"),  # M = 2.5
        ("0x1.3a55a60a68794p+4", "0x1.e602e61f0d8edp-42"),  # M = 7.3
        ("0x1.1868775e37dfap+9", "0x1.c84c8a0f40517p-36"),  # M = 100.0
        ("0x1.93a8a3441ab58p+12", "0x1.ea9b73c760aefp-32"),  # M = 999.5
        ("0x1.e75ce71e1c2cap+15", "0x1.8ad87e768d286p-28"),  # M = 10000.0
        ("0x1.3da1a739a24e4p+19", "0x1.478c914300badp-24"),  # M = 123456.7
    ),
    ("S6", (("t", 1.5),)): (
        ("0x1.b4c4b0763ed92p+2", "0x1.29f81b95ea93cp-41"),  # M = 1.0
        ("0x1.74c4b0763ed92p+2", "0x1.2a883912e1ce7p-41"),  # M = 2.0
        ("0x1.478373a940618p+2", "0x1.2aee20b59bcf0p-41"),  # M = 2.5
        ("0x1.e633d859114b0p+1", "0x1.2bac350b185c1p-41"),  # M = 7.3
        ("0x1.8e1f0a3709de8p+0", "0x1.2cef800f4e425p-41"),  # M = 100.0
        ("0x1.45fbd15c72998p-1", "0x1.2d73ddc7b3234p-41"),  # M = 999.5
        ("0x1.fa78a35b245a0p-3", "0x1.2dabfb9a8fb9ep-41"),  # M = 10000.0
        ("0x1.5ae11aeb1e340p-4", "0x1.2dc36af7a95efp-41"),  # M = 123456.7
    ),
    ("S6", (("t", 3.0),)): (
        ("0x1.71e7a3e1edb7ep+0", "0x1.104e56a7f8ac2p-42"),  # M = 1.0
        ("0x1.c79e8f87b6df8p-2", "0x1.116e91a1e7218p-42"),  # M = 2.0
        ("0x1.8f3d1f0f6dbf0p-3", "0x1.11b6a06062bedp-42"),  # M = 2.5
        ("0x1.1399056245a60p-5", "0x1.11e51e1ad6838p-42"),  # M = 7.3
        ("0x1.4b9d57e795000p-12", "0x1.11eeb9221e516p-42"),  # M = 100.0
        ("0x1.1fee9aa4c0000p-18", "0x1.11eed026e9255p-42"),  # M = 999.5
        ("0x1.d2ae65a000000p-25", "0x1.11eed076ee1e4p-42"),  # M = 10000.0
        ("0x1.e289d00000000p-32", "0x1.11eed077f2b6dp-42"),  # M = 123456.7
    ),
    ("S7", (("t", 2.5),)): (
        ("0x1.350207b23f517p+1", "0x1.31484db72edd2p-41"),  # M = 1.0
        ("0x1.6a040f647ea2ep+0", "0x1.31d86b342617dp-41"),  # M = 2.0
        ("0x1.c480b1fb06782p-1", "0x1.3224d8ee31983p-41"),  # M = 2.5
        ("0x1.4cc67addbe628p-2", "0x1.327561b179677p-41"),  # M = 7.3
        ("0x1.0d07f4e2e5f00p-6", "0x1.32a1d9622009ap-41"),  # M = 100.0
        ("0x1.df2e0aa913000p-11", "0x1.32a41577d8edep-41"),  # M = 999.5
        ("0x1.787de2b970000p-15", "0x1.32a435881796ap-41"),  # M = 10000.0
        ("0x1.9b26048600000p-20", "0x1.32a4372184a5ep-41"),  # M = 123456.7
    ),
    ("E0101", (("j", 2),)): (
        ("0x1.d491c65aa203ap+2", "0x1.3a453f71b0cb2p-38"),  # M = 1.0
        ("0x1.4204934809c50p+2", "0x1.38a8bdea60f29p-38"),  # M = 2.0
        ("0x1.d03559f42f2c2p+1", "0x1.37aba849b5a31p-38"),  # M = 2.5
        ("0x1.cb2b006473ff5p+0", "0x1.366173eee3ae2p-38"),  # M = 7.3
        ("0x1.cead6f482ef7ap-3", "0x1.35470a27acd31p-38"),  # M = 100.0
        ("0x1.f8ff1bdf7620ap-6", "0x1.3523e505f05cfp-38"),  # M = 999.5
        ("0x1.00296bdd7a9dfp-8", "0x1.351f0bd79aecfp-38"),  # M = 10000.0
        ("0x1.98f4b6928cb74p-12", "0x1.351e699208126p-38"),  # M = 123456.7
    ),
    ("E0102", ()): (
        ("0x1.8162067bac3f6p+3", "0x1.2cd9b56b9217ap-37"),  # M = 1.0
        ("0x1.e86c219fbb990p+2", "0x1.2b4c587a2898cp-37"),  # M = 2.0
        ("0x1.44aa311e05eccp+2", "0x1.2a65e097ad5d3p-37"),  # M = 2.5
        ("0x1.114464b114b54p+1", "0x1.295d3f33ac58ep-37"),  # M = 7.3
        ("0x1.6ba9aa4b3a48ep-3", "0x1.28acf23eb8e99p-37"),  # M = 100.0
        ("0x1.26bf4358d5578p-6", "0x1.289e929609dc8p-37"),  # M = 999.5
        ("0x1.d85888cb20e77p-10", "0x1.289d1d507aa7cp-37"),  # M = 10000.0
        ("0x1.32311a72b5b4cp-13", "0x1.289cf7220cbd5p-37"),  # M = 123456.7
    ),
}


def test_every_series_keeps_its_bits():
    assert {sid for sid, _ in SERIES_PINS} == set(se._SCANS)
    for (sid, params), want in SERIES_PINS.items():
        evaluate = se._SCANS[sid][2]
        for M, pin in zip(PIN_MS, want, strict=True):
            if pin is None:
                with pytest.raises(DomainError):
                    evaluate(M, dict(params))
                continue
            got = evaluate(M, dict(params))
            assert (got.value.hex(), got.abs_error_bound.hex()) == pin, (sid, params, M)


@pytest.mark.parametrize("r, j, tables", [(2, 2, [(2, 999)]), (1, 2, [(2, 999), (1, 999)]),
                                          (2, 1, [(1, 999), (2, 999)])])
def test_overlap_sieves_each_table_once(r, j, tables):
    # d_j serves the tail and the weights, and d_r too when r = j; the budget of d_j is read first
    with mock.patch.object(se, "divisor_table", wraps=se.divisor_table) as sieve:
        se.series_overlap(r, j, 999.5)
    assert [c.args for c in sieve.call_args_list] == tables
