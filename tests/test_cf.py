import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import cf
from cflab.errors import DomainError

import oracles


class TestExpandRational:
    def test_examples(self):
        assert cf.expand_rational(2, 5, 10) == [2, 2]
        assert cf.expand_rational(1, 2, 10) == [2]
        assert cf.expand_rational(113, 355, 10) == [3, 7, 16]

    def test_zero_and_gcd(self):
        assert cf.expand_rational(0, 7, 5) == []
        assert cf.expand_rational(2, 4, 5) == [2]

    def test_truncation(self):
        full = cf.expand_rational(113, 355, 10)
        assert cf.expand_rational(113, 355, 2) == full[:2]

    def test_errors(self):
        with pytest.raises(DomainError):
            cf.expand_rational(1, 0, 5)
        with pytest.raises(DomainError):
            cf.expand_rational(5, 3, 5)

    def test_canonical_last_term(self):
        # Euclid never emits a trailing 1 for words of length > 1
        for den in range(2, 200):
            for num in range(1, den):
                terms = cf.expand_rational(num, den, 64)
                if len(terms) > 1:
                    assert terms[-1] >= 2


class TestConvergents:
    def test_fibonacci(self):
        qs = [c.q for c in cf.convergents([1, 1, 1, 1], 4)]
        assert qs == [1, 2, 3, 5]

    def test_examples(self):
        assert cf.convergents([2, 2], 2)[-1] == (2, 5)
        assert cf.convergents([5], 1) == [(1, 5)]

    def test_coprime_and_increasing(self):
        cs = cf.convergents([3, 7, 15, 1, 292], 5)
        for p, q in cs:
            assert math.gcd(p, q) == 1
        assert all(a.q < b.q for a, b in zip(cs, cs[1:]))

    def test_length_error(self):
        with pytest.raises(DomainError):
            cf.convergents([1, 2], 3)


class TestFundamentalInterval:
    def test_depth_one(self):
        iv = cf.fundamental_interval([1], 1)
        assert (iv.left, iv.right) == (Fraction(1, 2), Fraction(1))
        assert iv.length == Fraction(1, 2)
        assert cf.fundamental_interval([2], 1).length == Fraction(1, 6)

    def test_depth_two(self):
        iv = cf.fundamental_interval([1, 1], 2)
        assert iv.length == Fraction(1, 6)
        assert iv.left == Fraction(1, 2)

    def test_exact_identity(self):
        word = [2, 1, 4, 1, 3]
        for n in range(1, 6):
            cs = cf.convergents(word, n)
            q = cs[-1].q
            q_prev = cs[-2].q if n >= 2 else 1
            iv = cf.fundamental_interval(word, n)
            assert iv.length == Fraction(1, q * (q + q_prev))


class TestGaussStep:
    def test_rational(self):
        assert cf.gauss_step(Fraction(2, 5)) == (2, Fraction(1, 2))
        assert cf.gauss_step(Fraction(1, 2)) == (2, 0)

    def test_golden_ratio_fixed_point(self):
        x = (math.sqrt(5) - 1) / 2
        a, y = cf.gauss_step(x)
        assert a == 1
        assert abs(y - x) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.gauss_step(0.0)


class TestSampler:
    def test_inversion_examples(self):
        state = cf.ContinuantRatioState()
        assert cf.sample_next_quotient(state, 0.6)[0] == 2
        assert cf.sample_next_quotient(state, 0.4)[0] == 1

    def test_state_recursion(self):
        state = cf.ContinuantRatioState()
        a, state = cf.sample_next_quotient(state, 0.7)
        assert state.r == 1.0 / a
        assert state.depth == 1
        b, state2 = cf.sample_next_quotient(state, 0.7)
        assert state2.r == pytest.approx(1.0 / (b + 1.0 / a))

    def test_endpoints_rejected(self):
        state = cf.ContinuantRatioState()
        for u in (0.0, 1.0):
            with pytest.raises(DomainError):
                cf.sample_next_quotient(state, u)

    def test_root_law(self):
        # at depth 0 the law is the Lebesgue measure of I_1(k)
        for k in range(1, 8):
            assert oracles.quotient_law(k, Fraction(0)) == Fraction(1, k * (k + 1))

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 2), Fraction(9, 10)])
    def test_telescoping(self, r):
        # partial sums plus the exact tail equal 1 for any r in [0, 1)
        partial = sum(oracles.quotient_law(k, r) for k in range(1, 200))
        tail = (1 + r) / (200 + r)
        assert partial + tail == 1

    def test_cdf_matches_law(self):
        r = Fraction(1, 3)
        acc = Fraction(0)
        for k in range(1, 30):
            acc += oracles.quotient_law(k, r)
            assert oracles.quotient_cdf(k, r) == acc

    def test_stream_buffering_invariance(self):
        rng1 = np.random.Generator(np.random.Philox(key=7))
        rng2 = np.random.Generator(np.random.Philox(key=7))
        a = oracles.sample_quotients(rng1, 100)
        it = cf.lebesgue_quotients(rng2, buffer=13)
        b = [next(it) for _ in range(100)]
        assert a == b


@st.composite
def rationals(draw):
    den = draw(st.integers(min_value=2, max_value=10**9))
    num = draw(st.integers(min_value=0, max_value=den - 1))
    return num, den


@given(rationals())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_roundtrip_property(nd):
    num, den = nd
    terms = cf.expand_rational(num, den, 128)
    if not terms:
        assert num == 0
        return
    last = cf.convergents(terms, len(terms))[-1]
    assert Fraction(last.p, last.q) == Fraction(num, den)


words = st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=30)


@given(words)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_interval_bounds_property(word):
    n = len(word)
    q = cf.continuant(word)
    iv = cf.fundamental_interval(word, n)
    assert Fraction(1, 2 * q * q) <= iv.length <= Fraction(1, q * q)


@given(words, words)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_continuant_product_property(a, b):
    qa, qb, qab = cf.continuant(a), cf.continuant(b), cf.continuant(a + b)
    assert qa * qb <= qab <= 2 * qa * qb


@given(words.filter(lambda w: len(w) >= 2), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_deletion_ratio_property(word, data):
    k = data.draw(st.integers(min_value=1, max_value=len(word)))
    q_full = cf.continuant(word)
    q_del = cf.continuant(word[: k - 1] + word[k:])
    ratio = Fraction(q_full, q_del)
    ak = word[k - 1]
    assert Fraction(ak + 1, 2) <= ratio <= ak + 1
