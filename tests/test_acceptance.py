"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Stochastic criteria run at committed seeds. Criterion 8's ell = 2 clause
takes its 15% tolerance about the finite-n centre c(n) = E[X; X <= t_n] /
log^2 n of the trimmed statistic (X = a_1 a_2 under the Gauss measure,
n P(X > t_n) = 1), not about the n -> oo limit 1/(2 log 2) = 0.7213. At
n = 10^6 the centre is c = 0.9932 and the seed-7 median 0.9771, 1.6% apart;
the median is still 35% above the limit, a gap that closes only near
n ~ 10^21. The check also asserts that the centre oracle carries the limit
constant and that the median moves towards the limit from n = 10^4 to 10^6.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cflab import cf, mc, series as se, pressure as pr
from cflab.growth import GrowthFunction

import oracles


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_exactness_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)

    dens = rng.integers(2, 10**9, size=10**4)
    for den in dens:
        num = int(rng.integers(0, den))
        terms = cf.expand_rational(num, int(den), 128)
        if terms:
            last = cf.convergents(terms, len(terms))[-1]
            assert Fraction(last.p, last.q) == Fraction(num, int(den))
        else:
            assert num == 0

    for _ in range(10**3):
        n = int(rng.integers(1, 31))
        word = [int(x) for x in rng.integers(1, 101, n)]
        cs = cf.convergents(word, n)
        q = cs[-1].q
        q_prev = cs[-2].q if n >= 2 else 1
        iv = cf.fundamental_interval(word, n)
        assert iv.length == Fraction(1, q * (q + q_prev))
        assert Fraction(1, 2 * q * q) <= iv.length <= Fraction(1, q * q)

    for _ in range(10**3):
        a = [int(x) for x in rng.integers(1, 101, int(rng.integers(1, 16)))]
        b = [int(x) for x in rng.integers(1, 101, int(rng.integers(1, 16)))]
        qa, qb, qab = cf.continuant(a), cf.continuant(b), cf.continuant(a + b)
        assert qa * qb <= qab <= 2 * qa * qb
        word = a + b
        k = int(rng.integers(1, len(word) + 1))
        q_full = cf.continuant(word)
        q_del = cf.continuant(word[: k - 1] + word[k:])
        ratio = Fraction(q_full, q_del)
        assert Fraction(word[k - 1] + 1, 2) <= ratio <= word[k - 1] + 1

    elapsed = time.monotonic() - start
    _report("01 exactness suite", elapsed < 10.0, f"10^4 roundtrips + 2x10^3 word checks in {elapsed:.1f}s (< 10 s)")


def test_c02_sampler_law():
    start = time.monotonic()
    S, depth = 10**6, 50
    counts1 = np.zeros(22, dtype=np.int64)
    count50 = 0
    chunk = 20000
    for lo in range(0, S, chunk):
        qa = mc.sample_quotient_block(1, range(lo, lo + chunk), depth)
        a1 = qa[:, 0].astype(np.int64)
        small = a1[a1 <= 21]
        counts1 += np.bincount(small, minlength=22)
        count50 += int(np.count_nonzero(qa[:, depth - 1] == 1.0))
    worst = 0.0
    for k in range(1, 21):
        p = 1.0 / (k * (k + 1))
        z = abs(counts1[k] / S - p) / math.sqrt(p * (1 - p) / S)
        worst = max(worst, z)
    gk_target = math.log(4 / 3) / math.log(2)
    gk_gap = abs(count50 / S - gk_target)
    ok = worst <= 3.0 and gk_gap <= 0.01
    _report(
        "02 sampler law (seed 1)",
        ok,
        f"worst |z| over k<=20 = {worst:.2f} (<=3); |P(a50=1) - log2(4/3)| = {gk_gap:.5f} (<=0.01); {time.monotonic()-start:.0f}s",
    )


SERIES_COMBOS = [
    ("S1 ell=1", lambda M: se.series_block_tail(1, M).value, lambda M: oracles.oracle_block_tail(1, M)),
    ("S1 ell=2", lambda M: se.series_block_tail(2, M).value, lambda M: oracles.oracle_block_tail(2, M)),
    ("S1 ell=3", lambda M: se.series_block_tail(3, M).value, lambda M: oracles.oracle_block_tail(3, M)),
    ("S2 r=1 j=1", lambda M: se.series_overlap(1, 1, M).value, lambda M: oracles.oracle_overlap(1, 1, M)),
    ("S2 r=1 j=2", lambda M: se.series_overlap(1, 2, M).value, lambda M: oracles.oracle_overlap(1, 2, M)),
    ("S2 r=2 j=1", lambda M: se.series_overlap(2, 1, M).value, lambda M: oracles.oracle_overlap(2, 1, M)),
    ("S2 r=2 j=2", lambda M: se.series_overlap(2, 2, M).value, lambda M: oracles.oracle_overlap(2, 2, M)),
    ("S3 ell=1", lambda M: se.series_harmonic_box(1, M).value, lambda M: oracles.oracle_harmonic_box(1, M)),
    ("S3 ell=2", lambda M: se.series_harmonic_box(2, M).value, lambda M: oracles.oracle_harmonic_box(2, M)),
    ("S3 ell=3", lambda M: se.series_harmonic_box(3, M).value, lambda M: oracles.oracle_harmonic_box(3, M)),
    ("S4 ell=1", lambda M: se.series_shifted(1, M).value, lambda M: oracles.oracle_shifted(1, M)),
    ("S4 ell=2", lambda M: se.series_shifted(2, M).value, lambda M: oracles.oracle_shifted(2, M)),
    ("S4 ell=3", lambda M: se.series_shifted(3, M).value, lambda M: oracles.oracle_shifted(3, M)),
    ("S5 ell=2 s=0.5", lambda M: se.series_power_box(2, M, 0.5).value, lambda M: oracles.oracle_power_box(2, M, 0.5)),
    ("S5 ell=3 s=0.7", lambda M: se.series_power_box(3, M, 0.7).value, lambda M: oracles.oracle_power_box(3, M, 0.7)),
    ("S6 t=1.5", lambda M: se.series_power_tail(2, M, 1.5).value, lambda M: oracles.oracle_power_tail(2, M, 1.5)),
    ("S6 t=2.0", lambda M: se.series_power_tail(2, M, 2.0).value, lambda M: oracles.oracle_power_tail(2, M, 2.0)),
    ("S7 t=1.5", lambda M: se.series_power_tail(3, M, 1.5).value, lambda M: oracles.oracle_power_tail(3, M, 1.5)),
    ("S7 t=2.0", lambda M: se.series_power_tail(3, M, 2.0).value, lambda M: oracles.oracle_power_tail(3, M, 2.0)),
]


def test_c03_series_equivalence():
    start = time.monotonic()
    worst = 0.0
    for label, impl, oracle in SERIES_COMBOS:
        for M in (50, 200, 500):
            got, want = impl(M), oracle(M)
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            assert rel <= 1e-10, f"{label} M={M}: rel={rel:.2e}"
    elapsed = time.monotonic() - start
    _report(
        "03 series equivalence",
        elapsed < 60.0,
        f"{len(SERIES_COMBOS)} combos x M in {{50,200,500}} worst rel = {worst:.1e} (<=1e-10) in {elapsed:.0f}s (< 60 s)",
    )


def test_c04_series_asymptotics():
    grid = se.geometric_grid(1e2, 1e6, 9)
    s1 = se.asymptotic_ratio_scan("S1", {"ell": 2}, grid)
    s3 = se.asymptotic_ratio_scan("S3", {"ell": 1}, grid)
    e0102 = se.asymptotic_ratio_scan("E0102", {}, grid)
    s3_gap = abs(s3.rows[-1].ratio - 1.0)
    ok = s1.top_decade_spread <= 3.0 and s3_gap <= 0.05 and e0102.within_band
    _report(
        "04 series asymptotics",
        ok,
        f"S1(l=2) top-decade spread {s1.top_decade_spread:.3f} (<=3); S3(l=1) ratio@1e6 - 1 = {s3_gap:.3f} (<=0.05); "
        f"E0102 value*M in {e0102.band}",
    )


def test_c05_pressure_normalization():
    p_by_n = {N: pr.transfer_pressure(1.0, N) for N in (100, 1000, 10000)}
    monotone = p_by_n[100] < p_by_n[1000] < p_by_n[10000] <= 0.0
    p_full = pr.transfer_pressure(1.0)  # the whole Gauss system, N = inf
    normalized = abs(p_full) <= 1e-10
    grid = [pr.transfer_pressure(s) for s in (0.6, 0.7, 0.8, 0.9)]
    decreasing = all(a > b for a, b in zip(grid, grid[1:]))
    _report(
        "05 pressure normalization",
        normalized and monotone and decreasing,
        f"P(1) = {p_full:.2e} (|P| <= 1e-10); truncated P(1, N) monotone in N "
        f"{[f'{p:.2e}' for p in p_by_n.values()]}: {monotone}; s-decreasing {decreasing}",
    )


def test_c06_dimension_cross_oracles(monkeypatch):
    start = time.monotonic()
    params = pr.PressureSolverParams(bisect_tol=1e-4)
    tol = params.bisect_tol
    phi = GrowthFunction.exponential(2.0)
    res = pr.hausdorff_dim("F3", phi, params)

    f3, log_B = pr.SET_POTENTIALS["F3"], phi.growth_constants().log_B

    # truncated alphabets approach the root from below
    root_3, root_4 = (oracles.truncated_root(f3, log_B, N, params) for N in (10**3, 10**4))
    truncation_ok = root_3 <= root_4 <= res.s + tol

    # the branches a > 10^3 put on either side of oracles.tail_bracket pin the root from both sides
    tail_roots = []
    for side in (0, 1):
        with monkeypatch.context() as patch:  # N = inf: at s <= 1/2, P = +inf before any matrix is built
            patch.setattr(pr, "_transfer_matrix", lambda s, N, p: oracles.tail_bracket(s, 10**3, p)[side])
            tail_roots.append(pr._dimension_root(f3, log_B, params)[0])
    lower, upper = tail_roots
    tail_gap = upper - lower
    two_sided_ok = lower - tol <= res.s <= upper + tol and tail_gap < 2e-4

    s1 = pr.s_m_oracle(2.0, 1)
    s2 = pr.s_m_oracle(2.0, 2)
    bracket_ok = s1 >= s2 >= res.s - 1e-3

    x1, x2, x3 = (float(v) for v in oracles.x_functions(res.s))
    dims, minimum = oracles.shulga_hussain_dims([2.0**x1, 2.0**x2, 2.0**x3, 2.0**x1], params)
    shulga_gap = abs(minimum - res.s)

    lo_end = pr.hausdorff_dim("F3", GrowthFunction.exponential(1.05), params)
    hi_end = pr.hausdorff_dim("F3", GrowthFunction.exponential(1e6), params)
    closed = pr.hausdorff_dim("F3", GrowthFunction.doubly_exponential(2, 3))
    half_ok = all(r >= 0.5 for r in (res.s, lo_end.s, hi_end.s, minimum, *dims))

    ok = (
        truncation_ok
        and two_sided_ok
        and bracket_ok
        and shulga_gap < 3e-4
        and lo_end.s > 0.9
        and hi_end.s < 0.55
        and half_ok
        and closed.s == 0.25
    )
    _report(
        "06 dimension cross-oracles",
        ok,
        f"dim(F3,B=2) = {res.s:.5f}; truncated roots N=1e3 {root_3:.5f} <= N=1e4 {root_4:.5f} "
        f"<= dim + tol: {truncation_ok}; N=1e3 tail bracket [{lower:.5f}, {upper:.5f}] holds dim: "
        f"{two_sided_ok}, width {tail_gap:.1e} (<2e-4); "
        f"s1 = {s1:.4f} >= s2 = {s2:.4f} >= dim - 1e-3: {bracket_ok}; shulga gap {shulga_gap:.1e} (<3e-4); "
        f"dim(B=1.05) = {lo_end.s:.3f} (>0.9); dim(B=1e6) = {hi_end.s:.3f} (<0.55); all >= 1/2: {half_ok}; "
        f"B=inf exact 1/4: {closed.s == 0.25}; {time.monotonic()-start:.0f}s",
    )


def test_c07_dichotomy_trend():
    start = time.monotonic()
    divergent = mc.ExperimentConfig(
        kind="dichotomy", ell=3, phi=GrowthFunction.power_log(1, 2),
        horizon=10**5, samples=10**3, seed=42, checkpoints=(10**3, 10**4, 10**5),
    )
    rows_d = mc.run_dichotomy(divergent)
    fr = [r["fraction_hit_F"] for r in rows_d]
    divergent_ok = fr[-1] >= 0.9 and fr == sorted(fr)

    convergent = mc.ExperimentConfig(
        kind="dichotomy", ell=3, phi=GrowthFunction.power_log(1.2, 0),
        horizon=10**5, samples=10**3, seed=42, checkpoints=(10**4, 10**5),
    )
    rows_c = mc.run_dichotomy(convergent)
    increase = rows_c[1]["fraction_hit_F"] - rows_c[0]["fraction_hit_F"]
    elapsed = time.monotonic() - start
    ok = divergent_ok and increase < 0.05 and elapsed < 600.0
    _report(
        "07 dichotomy trend (seed 42)",
        ok,
        f"divergent fractions {fr} (last >= 0.9, non-decreasing); convergent increase {increase:.3f} (< 0.05); "
        f"{elapsed:.0f}s (< 600 s)",
    )


def _trimmed_medians(ell):
    cfg = mc.ExperimentConfig(
        kind="trimmed", ell=ell, horizon=10**6, samples=100, seed=7,
        checkpoints=(10**4, 10**6),
    )
    rows = mc.run_trimmed(cfg)
    return rows[0]["median_norm"], rows[1]["median_norm"]


def test_c08a_trimmed_law_ell1():
    target = 1.0 / math.log(2.0)
    _, med = _trimmed_medians(1)
    rel = abs(med - target) / target
    _report(
        "08a trimmed law ell=1 (seed 7)",
        rel <= 0.10,
        f"median@1e6 = {med:.4f} vs 1/log2 = {target:.4f}, rel = {rel:.3f} (<= 0.10)",
    )


def test_c08b_trimmed_law_ell2():
    # The a.e. limit 1/(2 log 2) is reached only as n -> oo. At n = 10^6 the
    # statistic is centred at c(n) = E[X; X <= t_n] / log^2 n, X = a_1 a_2 under
    # the Gauss measure and n P(X > t_n) = 1: c(10^6) = 0.9932 against the limit
    # 0.7213, and c(n) comes within 15% of the limit only near n ~ 10^21. So
    # the 15% tolerance is taken about c(10^6); the oracle must carry the limit
    # constant (its second log-difference is 1/log 2), and, as in c08c, the
    # median must move towards the limit from 10^4 to 10^6.
    log2 = math.log(2.0)
    target = 1.0 / (2.0 * log2)

    # Oracle pin: a literal double loop over the cylinders {a_1 = i, a_2 = j}
    # with ij <= 10^4, each measured from its endpoints j/(ij+1), (j+1)/(ij+i+1).
    cap = 10**4
    mass = mean = 0.0
    for i in range(1, cap + 1):
        for j in range(1, cap // i + 1):
            lo_num, lo_den, hi_num, hi_den = j, i * j + 1, j + 1, i * j + i + 1
            num, den = (hi_den + hi_num) * lo_den, hi_den * (lo_den + lo_num)
            mu = math.log1p((num - den) / den) / log2  # log2((1 + hi) / (1 + lo))
            mass += mu
            mean += i * j * mu
    pin_ok = (
        mass <= 1.0
        and abs(oracles.gauss_pair_truncated_mean(cap) - mean) <= 1e-12 * mean
        and abs(oracles.gauss_pair_tail(cap) - (1.0 - mass)) <= 1e-12
    )

    t = 1e5
    d2 = (
        oracles.gauss_pair_truncated_mean(math.e**2 * t)
        - 2.0 * oracles.gauss_pair_truncated_mean(math.e * t)
        + oracles.gauss_pair_truncated_mean(t)
    )
    d2_ok = abs(d2 - 1.0 / log2) <= 1e-3

    centre = oracles.trimmed_centre_ell2(10**6)
    med4, med6 = _trimmed_medians(2)
    rel = abs(med6 - centre) / centre
    gap = abs(med6 - target) / target
    trend_ok = abs(med6 - target) < abs(med4 - target)
    _report(
        "08b trimmed law ell=2 (seed 7)",
        pin_ok and d2_ok and rel <= 0.15 and trend_ok,
        f"median@1e6 = {med6:.4f} vs c(1e6) = {centre:.4f}, rel = {rel:.3f} (<= 0.15); "
        f"gap to 1/(2 log2) = {target:.4f}: {gap:.3f}; "
        f"oracle second log-difference at 1e5 = {d2:.4f} vs 1/log2 = {1.0 / log2:.4f} (<= 1e-3); "
        f"median@1e4 = {med4:.4f} -> 1e6 strictly closer to the limit: {trend_ok}; "
        f"oracle = literal loop over ij <= 1e4 (mass {mass:.6f} <= 1): {pin_ok}",
    )


def test_c08c_trimmed_law_ell3_trend():
    target = 1.0 / (3.0 * math.log(2.0))
    med4, med6 = _trimmed_medians(3)
    ok = abs(med6 - target) < abs(med4 - target)
    _report(
        "08c trimmed law ell=3 trend (seed 7)",
        ok,
        f"median@1e4 = {med4:.4f}, median@1e6 = {med6:.4f}, target = {target:.4f} (1e6 strictly closer)",
    )


def test_c09_chung_erdos():
    p, N, S = 0.3, 50, 10**5
    synth = mc._chung_erdos(oracles.coin_counts(p, N, S, seed=5))
    lhs_cf, rhs_cf = oracles.coin_closed_forms(p, N)
    sigma_lhs = math.sqrt(lhs_cf * (1 - lhs_cf) / S)
    sigma_rhs = oracles.coin_rhs_sigma(p, N, S)
    synth_ok = abs(synth.lhs - lhs_cf) <= 3 * sigma_lhs + 1e-9 and abs(synth.rhs - rhs_cf) <= 3 * sigma_rhs

    cf_inst = mc.chung_erdos_check(
        mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=GrowthFunction.power_log(0, 0),
            horizon=20, samples=S, seed=9,
        )
    )
    ok = synth_ok and cf_inst.holds
    _report(
        "09 Chung-Erdos",
        ok,
        f"synthetic |lhs-closed| = {abs(synth.lhs-lhs_cf):.1e} (<= {3*sigma_lhs:.1e}), "
        f"|rhs-closed| = {abs(synth.rhs-rhs_cf):.1e} (<= {3*sigma_rhs:.1e}); "
        f"cf instance lhs = {cf_inst.lhs:.3f} >= rhs - 3se = {cf_inst.rhs - 3*cf_inst.stderr:.3f}: {cf_inst.holds}",
    )


def test_c10_g3_x_algebra():
    rows = []
    for s in (k / 100 for k in range(101)):
        x1, x2, _ = (float(x) for x in oracles.x_functions(s))
        g = float(pr.g3(s))
        rows.append((s, g, x1, x2))
    identity_ok = all(abs(g - ((2 * s - 1) + x1 * s)) <= 1e-12 for s, g, x1, _ in rows)
    x2_ok = all(abs((3 * s - 1) - x2 - g) <= 1e-12 for s, g, _, x2 in rows)
    upper = [r for r in rows if 0.5 <= r[0] <= 1.0]
    aux3_ok = all((3 * s - 1) * (x1 + x2) + s - g >= -1e-12 for s, g, x1, x2 in upper)
    strict_ok = all((3 * s - 1) + x1 * (s - 1) - g > 0 for s, g, x1, _ in upper)
    s, g, x1, _ = rows[50]  # s = 1/2
    aux2_rhs = (1 - s) * x1 - s
    aux2_fixture = not g < aux2_rhs and abs(g - 1 / 6) < 1e-12 and abs(aux2_rhs + 1 / 3) < 1e-12
    ok = identity_ok and x2_ok and aux3_ok and strict_ok and aux2_fixture
    _report(
        "10 g3/X algebra",
        ok,
        f"identity to 1e-12 on 101 points: {identity_ok}; g3 = 3s-1-X2: {x2_ok}; "
        f"aux3 and strict 5.1.3 on [1/2,1]: {aux3_ok and strict_ok}; "
        f"aux2 documented failure at s=1/2 (1/6 vs -1/3): {aux2_fixture}",
    )
