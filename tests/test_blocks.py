import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import blocks, growth
from cflab.growth import GrowthFunction

from oracles import brute_first_E, brute_first_F

PHI2 = GrowthFunction.power_log(0, 0)  # constant 2
PHI_N = GrowthFunction.power_log(1, 0)  # max(n, 2)


class TestBlockProducts:
    def test_examples(self):
        # the exact window products behind every scan: multiply the new quotient in, divide the old one out
        assert list(blocks._products([1, 2, 3, 4], 3, 2)) == [6, 24]
        assert list(blocks._products([2, 2, 2], 3, 1)) == [8]
        assert list(blocks._products([5, 1, 1, 5], 1, 4)) == [5, 1, 1, 5]


class TestFirstEvents:
    def test_f_example(self):
        word = [5, 1, 5] + [1] * 20
        hit = blocks.first_F_event(word, 1, PHI2, 20)
        assert hit is not None
        n, rec = hit
        assert (n, rec.j, rec.k, rec.overlap) == (3, 1, 3, 0)

    def test_f_no_event(self):
        word = [5] + [1] * 30
        assert blocks.first_F_event(word, 1, PHI2, 30) is None

    def test_e_examples(self):
        phi3 = GrowthFunction.table([3.0] * 40)
        assert blocks.first_E_event([1, 1, 4] + [1] * 20, 1, phi3, 20) == 3
        assert blocks.first_E_event([1] * 30, 1, PHI2, 29) is None

    def test_overlap_recorded(self):
        # blocks starting at 1 and 2 overlap in ell - 1 positions
        word = [9, 9, 9, 1, 1, 1, 1]
        n, rec = blocks.first_F_event(word, 3, GrowthFunction.table([20.0] * 10), 5)
        assert (rec.j, rec.k) == (1, 2)
        assert rec.overlap == 2

    def test_brute_force_fixed(self):
        rng = np.random.default_rng(7)
        word = [int(x) for x in rng.integers(1, 50, 202)]
        got = blocks.first_F_event(word, 3, PHI_N, 200)
        want = brute_first_F(word, 3, PHI_N, 200)
        assert got is not None and (got[0], got[1].j, got[1].k) == want
        assert blocks.first_E_event(word, 2, PHI_N, 200) == brute_first_E(word, 2, PHI_N, 200)

    def test_exact_tie_resolution(self):
        # product 8 = 2*2*2 equals the threshold exactly; float log would be
        # within the band and the exact integer path must include it
        phi8 = GrowthFunction.table([8.0] * 10)
        word = [2, 2, 2, 2, 1, 1, 1]
        assert blocks.first_E_event(word, 3, phi8, 4) == 1
        hit = blocks.first_F_event(word, 3, phi8, 4)
        assert hit is not None and hit[0] == 2

    def test_monotone_phi_never_decreases_tau(self):
        rng = np.random.default_rng(3)
        lo = GrowthFunction.power_log(0.5, 0)
        hi = GrowthFunction.power_log(1.0, 1)
        for _ in range(20):
            word = [int(x) for x in rng.integers(1, 40, 80)]
            t_lo = blocks.first_F_event(word, 2, lo, 79)
            t_hi = blocks.first_F_event(word, 2, hi, 79)
            if t_hi is not None:
                assert t_lo is not None and t_lo[0] <= t_hi[0]


class TestANK:
    def test_union_structure_at_event_level(self):
        # an F event at level n has a qualifying pair; membership in some
        # A_{n,k} (the blocks at k and at n both reach phi(n)) holds exactly
        # when the block at n itself qualifies
        rng = np.random.default_rng(5)
        phi = GrowthFunction.power_log(0.7, 0)
        for _ in range(40):
            word = [int(x) for x in rng.integers(1, 25, 64)]
            hit = blocks.first_F_event(word, 3, phi, 60)
            if hit is None:
                continue
            n = hit[0]
            pn = math.prod(word[n - 1 : n + 2])
            some_ank = any(
                phi.meets_threshold(math.prod(word[k - 1 : k + 2]), n) and phi.meets_threshold(pn, n)
                for k in range(1, n)
            )
            assert some_ank == phi.meets_threshold(pn, n)


class TestTrimmedAndMax:
    def test_constant_twos(self):
        rows = list(blocks.trimmed_sum_trajectory([2] * 12, 1, 10))
        last = rows[-1]
        assert (last.n, last.total, last.max_block) == (10, 20, 2)
        assert last.normalized == pytest.approx(18 / (10 * math.log(10)))

    def test_all_ones(self):
        rows = list(blocks.trimmed_sum_trajectory([1] * 30, 3, 20))
        assert [r.total for r in rows] == list(range(1, 21))
        assert all(r.max_block == 1 for r in rows)

    def test_trim_bounds(self):
        rng = np.random.default_rng(2)
        word = [int(x) for x in rng.integers(1, 60, 40)]
        for row in blocks.trimmed_sum_trajectory(word, 2, 30):
            assert 0 <= row.total - row.max_block <= row.total

    def test_progression_examples(self):
        assert blocks.progression_sum([1, 2, 3, 4, 5], 2, 2, 3) == 26
        rng = np.random.default_rng(4)
        word = [int(x) for x in rng.integers(1, 9, 40)]
        # d = 1 equals the consecutive-block sum
        rows = list(blocks.trimmed_sum_trajectory(word, 3, 10))
        assert blocks.progression_sum(word, 3, 1, 10) == rows[-1].total

    def test_progression_brute(self):
        rng = np.random.default_rng(9)
        word = [int(x) for x in rng.integers(1, 9, 50)]
        for ell, d, n in ((2, 3, 8), (3, 2, 10), (1, 5, 12)):
            want = sum(
                math.prod(word[j - 1 + t * d] for t in range(ell)) for j in range(1, n + 1)
            )
            assert blocks.progression_sum(word, ell, d, n) == want

    def test_running_max(self):
        vals = {r.n: r.max_block for r in blocks.trimmed_sum_trajectory([3, 1, 4, 1], 2, 3)}
        assert vals[3] == 4
        rng = np.random.default_rng(8)
        word = [int(x) for x in rng.integers(1, 99, 30)]
        seq = [r.max_block for r in blocks.trimmed_sum_trajectory(word, 2, 25)]
        assert seq == sorted(seq)  # non-decreasing
        brute = [max(math.prod(word[i : i + 2]) for i in range(n)) for n in range(1, 26)]
        assert seq == brute


def test_log_exact_agreement_outside_band():
    # away from the band the float-log verdict must equal the exact one
    rng = np.random.default_rng(17)
    phi = GrowthFunction.power_log(1, 1)
    for _ in range(30):
        word = [int(x) for x in rng.integers(1, 200, 40)]
        prods = [math.prod(word[i : i + 3]) for i in range(len(word) - 2)]
        for n in range(1, len(prods) + 1):
            thr = phi.log_phi(n)
            for p in prods:
                if abs(math.log(p) - thr) > growth.LOG_BAND:
                    assert (math.log(p) >= thr) == (p >= phi.phi(n))


def test_detectors_read_at_most_horizon_plus_ell_minus_one():
    def counted_ones(read):
        while True:  # all ones: no block ever beats phi >= 2, so every level is scanned
            read.append(1)
            yield 1

    horizon = 25
    for ell in (1, 3):
        scans = (
            lambda s: blocks.first_F_event(s, ell, PHI2, horizon),
            lambda s: blocks.first_E_event(s, ell, PHI2, horizon),
            lambda s: list(blocks.trimmed_sum_trajectory(s, ell, horizon)),
            lambda s: list(accumulate(blocks._products(s, ell, horizon), max)),  # the running maximum
        )
        for scan in scans:
            read = []
            scan(counted_ones(read))
            assert len(read) == horizon + ell - 1


@given(
    st.lists(st.integers(min_value=1, max_value=25), min_size=4, max_size=40),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_detector_equivalence_property(word, ell):
    horizon = len(word) - ell + 1
    got = blocks.first_F_event(word, ell, PHI_N, horizon)
    want = brute_first_F(word, ell, PHI_N, horizon)
    if want is None:
        assert got is None
    else:
        assert got is not None and (got[0], got[1].j, got[1].k) == want
    assert blocks.first_E_event(word, ell, PHI_N, horizon) == brute_first_E(
        word, ell, PHI_N, horizon
    )
