import collections
import dataclasses
import inspect
import math
import os
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from cflab import blocks, cf, mc
from cflab.errors import DomainError, ResourceLimitError
from cflab.growth import GrowthFunction

import oracles

PHI2 = GrowthFunction.power_log(0, 0)


def ones_stream(sid, length):
    return np.ones(length)


def twos_stream(sid, length):
    return np.full(length, 2.0)


def near_power_stream(sid, length):
    """a_n = 2^(n + delta_n), delta_n in -2..1: ties a_n = 2^n with exp(2) past 2^53 (ell = 1)."""
    delta = np.random.default_rng(sid).choice([-2, -1, 0, 1], size=length, p=[0.6, 0.3, 0.05, 0.05])
    return 2.0 ** np.maximum(np.arange(1, length + 1) + delta, 0)


def powers_of_two_stream(sid, length):
    """Quotients 2^k, k in 1..60: products of three reach 2^180 and tie with GIANT_TABLE."""
    return 2.0 ** np.random.default_rng(sid).integers(1, 61, length)


def rare_giant_stream(sid, length):
    """Ones with a rare 2^60: a giant block is carried far across depth blocks."""
    return np.where(np.random.default_rng(sid).random(length) < 0.002, 2.0**60, 1.0)


def giant_single_stream(sid, length):
    """Ones with a_5 = 2^60 and a_8 = 3: at ell = 1, S - M is 11 at n = 10 and 51 at n = 50."""
    a = np.ones(length)
    a[4], a[7] = 2.0**60, 3.0
    return a


def giant_pair_stream(sid, length):
    """a_1 near 2^60, then quotients 1..9: at ell = 2 block 1 is the only giant block."""
    a = np.random.default_rng(sid).integers(1, 10, length).astype(float)
    a[0] = 2.0**60 + 2.0**9 * 5
    return a


def giant_triple_stream(sid, length):
    """a_1, a_2 near 2^60, then quotients 1..9: at ell = 3 block 1 is near 2^120, block 2 near 2^63."""
    a = giant_pair_stream(sid, length)
    a[1] = 2.0**60 - 2.0**7 * 3
    return a


GIANT_TABLE = GrowthFunction.table([2.0 ** (168 + n // 400) for n in range(2000)])

# forced streams of giant products: exact ties with 2^n past 2^53, and a giant carried across blocks
GIANT_STREAMS = [
    (near_power_stream, GrowthFunction.exponential(2), 1, 1000),
    (powers_of_two_stream, GIANT_TABLE, 3, 2000),
    (rare_giant_stream, GrowthFunction.power_log(1, 2), 1, 2000),
]


def forced(monkeypatch, stream_fn, cfg):
    """cfg's scans in this process read stream_fn's rows in place of the sampler's."""
    monkeypatch.setattr(mc, "QuotientSampler", oracles.ForcedStream.of(stream_fn, cfg))


def reference_hits(word, ell, phi, horizon):
    """(tau_F, tau_E) of one quotient word from the blocks detectors; horizon + 1 is none."""
    hit_f = blocks.first_F_event(word, ell, phi, horizon)
    hit_e = blocks.first_E_event(word, ell, phi, horizon)
    return (hit_f[0] if hit_f else horizon + 1), (hit_e if hit_e else horizon + 1)


def completed(value):
    """A done future: a process pool stand-in's result."""
    future = Future()
    future.set_result(value)
    return future


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_roundtrip(self):
        cfg = mc.ExperimentConfig(
            kind="dichotomy",
            ell=3,
            phi=GrowthFunction.power_log(1, 2),
            horizon=500,
            samples=10,
            seed=42,
            checkpoints=(100, 500),
            threads=2,
        )
        text = mc.config_to_text(cfg)
        back = mc.config_from_text(text)
        assert back == cfg
        assert mc.config_hash(back) == mc.config_hash(cfg)

    def test_text_is_sorted_flat(self):
        cfg = mc.ExperimentConfig(kind="khinchin", horizon=100, checkpoints=(10, 100))
        lines = mc.config_to_text(cfg).strip().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(keys)

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            mc.config_from_text("kind = khinchin\nbogus = 3\n")

    def test_bad_phi_rejected(self):
        for family, params in (("exp", "1,2"), ("powerlog", "x"), ("cubic", "1")):
            with pytest.raises(DomainError):
                mc.config_from_text(
                    f"kind = dichotomy\nphi_family = {family}\nphi_params = {params}\n"
                )

    def test_validation(self):
        with pytest.raises(DomainError):
            mc.ExperimentConfig(kind="nope")
        with pytest.raises(DomainError):
            mc.ExperimentConfig(kind="dichotomy", horizon=10, checkpoints=(20,))
        with pytest.raises(DomainError):
            mc.ExperimentConfig(kind="dichotomy", horizon=10)  # no phi
        with pytest.raises(DomainError):
            mc.ExperimentConfig(kind="chung_erdos", horizon=10)  # no phi
        with pytest.raises(DomainError):
            mc.ExperimentConfig(kind="trimmed", horizon=10, checkpoints=(1,))

    def test_one_message_per_count_field_in_order(self):
        for bad, name in ((dict(samples=0, horizon=0), "samples"), (dict(horizon=-1, ell=0), "horizon"),
                          (dict(ell=0, d=0), "ell"), (dict(d=0, threads=0), "d"),
                          (dict(threads=0), "threads")):
            with pytest.raises(DomainError, match=f"^{name} must be >= 1$"):
                mc.ExperimentConfig(kind="khinchin", **bad)

    def test_checkpoints_normalised_when_built(self):
        assert mc.ExperimentConfig(kind="khinchin", horizon=50).checkpoints == (50,)
        cfg = mc.ExperimentConfig(kind="khinchin", horizon=50, checkpoints=(50, 7, 7, 20))
        assert cfg.checkpoints == (7, 20, 50)
        assert dataclasses.replace(cfg, horizon=60).checkpoints == (7, 20, 50)

    def test_replace_is_checked(self):
        cfg = mc.ExperimentConfig(kind="khinchin", horizon=50, checkpoints=(10, 50))
        for bad in (dict(horizon=20), dict(samples=0), dict(kind="coins"), dict(checkpoints=(1,))):
            with pytest.raises(DomainError):
                dataclasses.replace(cfg, **bad)
        with pytest.raises(DomainError, match="need a growth function"):
            dataclasses.replace(cfg, kind="dichotomy")

    def test_repeated_key_rejected(self):
        with pytest.raises(DomainError, match="^repeated config key 'samples'$"):
            mc.config_from_text("kind = khinchin\nsamples = 10\nsamples = 20\n")

    def test_normaliser_past_float_range_refused(self):
        for kind in ("trimmed", "khinchin"):
            with pytest.raises(DomainError, match="at n = 10, ell = 1000$"):
                mc.ExperimentConfig(kind=kind, ell=1000, horizon=10, samples=2)
            with pytest.raises(DomainError, match="at n = 2, ell = 3000$"):
                mc.ExperimentConfig(kind=kind, ell=3000, horizon=10, checkpoints=(2, 10))
            cfg = mc.ExperimentConfig(kind=kind, ell=300, horizon=10)  # 10 log(10)^300 < DBL_MAX
            with pytest.raises(DomainError, match="normaliser"):
                dataclasses.replace(cfg, ell=1000)
        # the event kinds have no normaliser
        mc.ExperimentConfig(kind="dichotomy", ell=1000, horizon=10, phi=PHI2)

    def test_row_past_chunk_budget_refused(self, monkeypatch):
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=301, horizon=10, phi=PHI2)
        width = min(mc._DEPTH_BLOCK, cfg.horizon) + 300
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", mc._BYTES_PER_QUOTIENT * width)
        assert list(mc._chunk_ranges(cfg))[0] == (0, 1)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", mc._BYTES_PER_QUOTIENT * width - 1)
        with pytest.raises(ResourceLimitError, match="300 column tail"):
            mc._chunk_ranges(cfg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        phi=st.one_of(
            st.builds(GrowthFunction.power_log, st.floats(0, 1e300), st.floats(0, 1e300)),
            st.builds(GrowthFunction.exponential, st.floats(1, 1e300, exclude_min=True)),
            st.builds(GrowthFunction.doubly_exponential, st.floats(1, 1e300, exclude_min=True),
                      st.floats(1, 1e300, exclude_min=True)),
            st.builds(GrowthFunction.table, st.lists(st.floats(2, 1e300), min_size=1, max_size=6).map(sorted)),
        ),
        kind=st.sampled_from(["dichotomy", "chung_erdos"]),
        seed=st.integers(-(2**70), 2**70),
    )
    @example(phi=GrowthFunction.exponential(1.0000000000001), kind="dichotomy", seed=0)
    def test_text_reads_back_as_the_config(self, phi, kind, seed):
        cfg = mc.ExperimentConfig(kind=kind, ell=2, phi=phi, horizon=50, samples=3, seed=seed,
                                  checkpoints=(7, 50))
        assert mc.config_from_text(mc.config_to_text(cfg)) == cfg

    def test_params_past_twelve_digits_keep_their_text_and_hash(self):
        cfg = mc.ExperimentConfig(kind="dichotomy", phi=GrowthFunction.exponential(1.0000000000001))
        assert "phi_params = 1.0000000000001\n" in mc.config_to_text(cfg)
        a, b = (mc.ExperimentConfig(kind="dichotomy", phi=GrowthFunction.power_log(x, 2))
                for x in (1.0000000000001, 1.0000000000002))
        assert mc.config_hash(a) != mc.config_hash(b)
        cfg = mc.ExperimentConfig(kind="dichotomy", phi=GrowthFunction.power_log(1.5, 2))  # 12 digits read back
        assert "phi_params = 1.5,2\n" in mc.config_to_text(cfg)

    @pytest.mark.parametrize("kind, per_sample", [("dichotomy", 24), ("chung_erdos", 32), ("khinchin", 32)])
    def test_results_past_the_budget_refused(self, monkeypatch, kind, per_sample):
        # 3 or 4 int64 event columns, or 2 float64 sums at 2 checkpoints, per sample
        cfg = mc.ExperimentConfig(kind=kind, horizon=10, samples=20, checkpoints=(5, 10),
                                  phi=None if kind == "khinchin" else PHI2)
        run = {"dichotomy": mc.run_dichotomy, "chung_erdos": mc.chung_erdos_check,
               "khinchin": mc.run_khinchin}[kind]
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", per_sample * cfg.samples)
        run(cfg)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", per_sample * cfg.samples - 1)
        monkeypatch.setattr(mc, "_chunk_ranges", None)  # refused before the ranges are built
        with pytest.raises(ResourceLimitError, match="^20 samples need"):
            run(cfg)

    def test_keys_left_out_take_the_dataclass_defaults(self):
        assert mc.config_from_text("kind = trimmed\n") == mc.ExperimentConfig(kind="trimmed")
        keys = {line.split(" = ")[0] for line in
                mc.config_to_text(mc.ExperimentConfig(kind="dichotomy", phi=PHI2)).splitlines()}
        fields = {f.name for f in dataclasses.fields(mc.ExperimentConfig)}
        assert keys == fields - {"phi"} | {"phi_family", "phi_params"}
        with pytest.raises(DomainError, match="unknown config key 'phi'"):
            mc.config_from_text("kind = dichotomy\nphi = powerlog\n")


class TestSamplingEngine:
    def test_child_seed_independence(self):
        # a sample's trajectory depends only on (seed, sample_id)
        full = mc.sample_quotient_block(99, range(8), 200)
        alone = mc.sample_quotient_block(99, [5], 200)
        assert np.array_equal(full[5], alone[0])
        permuted = mc.sample_quotient_block(99, [5, 2, 7], 200)
        assert np.array_equal(permuted[0], full[5])
        assert np.array_equal(permuted[1], full[2])

    def test_scalar_stream_matches_engine(self):
        row = oracles.sample_quotients(mc.sample_rng(7, 3), 300)
        block = mc.sample_quotient_block(7, [3], 300)[0]
        assert np.array_equal(np.array(row, dtype=float), block)

    def test_block_boundaries_invisible(self):
        sampler = mc.QuotientSampler(1, [0, 1])
        parts = [sampler.next_block(7), sampler.next_block(50), sampler.next_block(43)]
        joined = np.concatenate(parts, axis=1)
        assert np.array_equal(joined, mc.sample_quotient_block(1, [0, 1], 100))

    def test_kept_rows_resume_their_streams(self):
        sampler = mc.QuotientSampler(1, range(5))
        first = sampler.next_block(7)
        sampler.keep(np.array([1, 3]))
        joined = np.concatenate([first[[1, 3]], sampler.next_block(50)], axis=1)
        assert np.array_equal(joined, mc.sample_quotient_block(1, [1, 3], 57))

    @pytest.mark.parametrize("warmup", [64, 32, 1, 0])  # 1 and 0 recompute (almost) every tile, 64 and 32 none
    @pytest.mark.parametrize("samples, cuts", [
        (3, (7, 50, 43, 1)),  # below one tile, and depth 1
        (2, (700, 256, 10_002)),  # ragged last tiles around one whole tile
        (3, (1, 2, 3, 5)),  # blocks resume at every drawn % 4 residue: 0, 1, 3, 2
        (40, (250, 37, 1, 100)),  # shallow and wide: several tiles of fewer than _TILE columns
    ])
    def test_tiled_sampler_is_column_recursion(self, monkeypatch, warmup, samples, cuts):
        monkeypatch.setattr(mc, "_WARMUP", warmup)
        recomputed = []  # per _advance call: a recomputed column, the only 1-D calls
        advance = mc._advance
        monkeypatch.setattr(mc, "_advance", lambda u, *rest: recomputed.append(u.ndim == 1) or advance(u, *rest))
        tiled = mc.QuotientSampler(5, range(samples))
        column = oracles.ColumnQuotientSampler(5, range(samples))
        for depth in cuts:
            assert np.array_equal(tiled.next_block(depth), column.next_block(depth)), depth
            assert np.array_equal(tiled._r, column._r), depth
        # a warm-up on the wrong tile would still give the right rows, by recomputing them
        assert any(recomputed) == (warmup < 32), sum(recomputed)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([-1, 0, 2**63 + 5, 2**64 - 1]),
        sid=st.integers(0, 2**40),
        cuts=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    )
    @example(seed=-1, sid=2**40, cuts=[1, 1, 1, 1, 5])  # every drawn % 4 residue, then a wrap
    def test_keyed_streams_are_sample_rng(self, seed, sid, cuts):
        want = mc.sample_rng(seed, sid).random(sum(cuts))
        streams = mc.KeyedStreams(seed)
        drawn = 0
        for n in cuts:
            got = np.empty(n)
            streams.fill(sid, drawn, got)
            assert np.array_equal(got, want[drawn : drawn + n]), (drawn, n)
            drawn += n

    @staticmethod
    def _count_philox(monkeypatch) -> list:
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return built

    def test_one_philox_per_sampler(self, monkeypatch):
        built = self._count_philox(monkeypatch)
        sampler = mc.QuotientSampler(1, range(1000))
        sampler.next_block(7)
        sampler.next_block(50)
        assert len(built) <= 1

    def test_one_philox_per_chunk(self, monkeypatch):
        cfg = mc.ExperimentConfig(kind="chung_erdos", phi=PHI2, horizon=20, samples=1000, seed=9)
        chunks = len(list(mc._chunk_ranges(cfg)))
        built = self._count_philox(monkeypatch)
        mc.chung_erdos_check(cfg)
        assert len(built) <= chunks

    def test_sampler_peak_bytes_per_quotient(self):
        # the uniforms and one tiled copy of them: two samples x depth float arrays
        peak = traced_peak(lambda: mc.QuotientSampler(1, range(256)).next_block(10_002))
        assert peak <= 17 * 256 * 10_002, peak / (256 * 10_002)

    def test_streaming_detectors_agree_with_engine(self):
        # integer-base exponentials put exact ties phi(n) = block product in play
        cases = [(GrowthFunction.power_log(1, 0), 2, 400, 6, 13)] + [
            (GrowthFunction.exponential(base), ell, 30, 400, 5)
            for base in (2, 3)
            for ell in (1, 2)
        ]
        for phi, ell, horizon, samples, seed in cases:
            cfg = mc.ExperimentConfig(
                kind="dichotomy", ell=ell, phi=phi, horizon=horizon, samples=samples,
                seed=seed, checkpoints=(horizon,),
            )
            tau_f, tau_e = mc.hitting_times(cfg)
            none = horizon + 1
            for sid in range(samples):
                word = cf.take(cf.lebesgue_quotients(mc.sample_rng(seed, sid)), horizon + ell - 1)
                hit = blocks.first_F_event(word, ell, phi, horizon)
                assert (hit[0] if hit else none) == tau_f[sid], (phi, ell, sid)
                hit_e = blocks.first_E_event(word, ell, phi, horizon)
                assert (hit_e if hit_e else none) == tau_e[sid], (phi, ell, sid)


class TestDepthBlockStreaming:
    """Every kind streams depth blocks; results must not see the block boundaries."""

    @pytest.mark.parametrize("depth", [7, 777])
    def test_hitting_times_match_detectors(self, monkeypatch, depth):
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        lebesgue = [(GrowthFunction.power_log(1, 0), 2, 2000, 4, 13)] + [
            (GrowthFunction.exponential(base), ell, 30, 150, 5) for base in (2, 3) for ell in (1, 2)
        ]
        for phi, ell, horizon, samples, seed in lebesgue:
            cfg = mc.ExperimentConfig(
                kind="dichotomy", ell=ell, phi=phi, horizon=horizon, samples=samples, seed=seed,
            )
            tau_f, tau_e = mc.hitting_times(cfg)
            for sid in range(samples):
                stream = cf.lebesgue_quotients(mc.sample_rng(seed, sid))
                want = reference_hits(cf.take(stream, horizon + ell - 1), ell, phi, horizon)
                assert (tau_f[sid], tau_e[sid]) == want, (phi, ell, sid)
        for stream_fn, phi, ell, horizon in GIANT_STREAMS:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon, samples=8)
            forced(monkeypatch, stream_fn, cfg)
            tau_f, tau_e = mc._event_table(cfg)[:2]
            for sid in range(8):
                word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
                want = reference_hits(word, ell, phi, horizon)
                assert (tau_f[sid], tau_e[sid]) == want, (stream_fn.__name__, sid)

    @pytest.mark.parametrize("depth", [7, 777])
    def test_event_records_match_detector(self, monkeypatch, depth):
        """The j recorded at tau_F is first_F_event's, also when it lies in an earlier depth block."""
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)

        def window(n, ell):  # the depth block that holds block start n (1-based)
            first = depth - (ell - 1)  # starts of the first depth block
            return 0 if n <= first else 1 + (n - first - 1) // depth

        def check(word, ell, phi, horizon, tau_f, j):
            hit = blocks.first_F_event(word, ell, phi, horizon)
            assert (tau_f, j) == ((hit[0], hit[1].j) if hit else (horizon + 1, 0))
            return hit is not None and window(j, ell) < window(tau_f, ell)

        earlier = 0
        lebesgue = [(GrowthFunction.power_log(1, 0), 2, 2000, 4, 13)] + [
            (GrowthFunction.exponential(base), ell, 30, 150, 5) for base in (2, 3) for ell in (1, 2)
        ]
        for phi, ell, horizon, samples, seed in lebesgue:
            cfg = mc.ExperimentConfig(
                kind="dichotomy", ell=ell, phi=phi, horizon=horizon, samples=samples, seed=seed,
            )
            tau_f, tau_e, first_j = mc.event_records(cfg)
            assert all(np.array_equal(a, b) for a, b in zip((tau_f, tau_e), mc.hitting_times(cfg)))
            for sid in range(samples):
                word = cf.take(cf.lebesgue_quotients(mc.sample_rng(seed, sid)), horizon + ell - 1)
                earlier += check(word, ell, phi, horizon, tau_f[sid], first_j[sid])
        for stream_fn, phi, ell, horizon in GIANT_STREAMS:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                      samples=8)
            forced(monkeypatch, stream_fn, cfg)
            got = mc._event_table(cfg)
            for sid in range(8):
                word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
                earlier += check(word, ell, phi, horizon, got[0, sid], got[3, sid])
        assert earlier > 0, earlier

    @pytest.mark.parametrize("depth", [7, 777])
    def test_giant_row_leaves_vectorised_rows_alone(self, monkeypatch, depth):
        """One chunk: ordinary rows and one row with a giant block across a depth-block boundary.

        The giant row's blocks at levels b and b + 1 are 3 (2^59 + 2^7), which
        float64 rounds up onto phi(b) = phi(b + 1): only the exact path sees
        that neither qualifies, and its top stays carried through later blocks.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        ell, horizon, samples, seed, planted = 2, 1000, 40, 17, 21
        b = depth * -(-700 // depth)  # a drawn-column boundary: columns b - 1 | b
        giant = 2.0**59 + 2.0**7
        assert 3.0 * giant > 3 * int(giant)
        phi = GrowthFunction.table(list(GrowthFunction.power_log(1, 1).phi_array(b - 1))
                                   + [3.0 * giant] * (horizon - b + 1))

        words = mc.sample_quotient_block(seed, range(samples), horizon + ell - 1)
        words[planted, b - 1 : b + 2] = giant, 3.0, giant

        def stream_fn(sid, length):
            return words[sid, :length]

        cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                  samples=samples)
        assert list(mc._chunk_ranges(cfg)) == [(0, samples)]
        forced(monkeypatch, stream_fn, cfg)
        got = mc._event_table(cfg)
        for sid in range(samples):
            word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
            want = reference_hits(word, ell, phi, horizon) + (oracles.brute_F_count(word, ell, phi, horizon),)
            assert tuple(got[:3, sid].tolist()) == want, sid
        assert np.count_nonzero(got[2]) > samples // 2  # the vectorised rows see F levels

    @pytest.mark.parametrize("depth", [7, 777])
    @pytest.mark.parametrize("ell, phi, horizon, planted", [
        # (2^30 + 1)(2^30 - 1) = 2^60 - 1 rounds onto phi(60) = 2^60: an E tie that is not
        # one; 2^35 2^35 = phi(70) is one
        (2, GrowthFunction.exponential(2), 100, {60: 2**30 + 1, 61: 2**30 - 1, 70: 2**35, 71: 2**35}),
        # 3 * 8343167830714406 * 737 = 2^64 + 50 rounds twice, to 2^64 - 2048 < phi(64)
        (3, GrowthFunction.exponential(2), 100, {64: 3, 65: 8343167830714406, 66: 737}),
        # blocks 3 and 9, in different depth blocks at depth 7, are both 2^60 in float64,
        # 2^60 - 1 and 241 * 4783906658119697 = 2^60 + 1 exactly: only block 9 reaches phi,
        # so level 9 is no F level, and level 12 is one with j = 9
        (2, GrowthFunction.table([2.0**60] * 20), 20,
         {3: 2**30 + 1, 4: 2**30 - 1, 9: 241, 10: 4783906658119697, 12: 2**31, 13: 2**31}),
        # products past float64 are inf, as is phi(n) = 2^n past n = 1023: 2^1026 at
        # level 1030 is no E level, 2^1060 at 1040 is one, and F at 1050 with j = 1040
        (2, GrowthFunction.exponential(2), 1100,
         {1030: 2**513, 1031: 2**513, 1040: 2**530, 1041: 2**530, 1050: 2**526, 1051: 2**526}),
        # phi(2) = 2^1100 log(2)^3000 clamps to 2, where the float product is inf * 0 = NaN
        (2, GrowthFunction.power_log(1100, 3000), 30, {1: 2**30, 2: 2**30, 3: 2**30}),
    ], ids=["E-tie", "rounded-twice", "carried-top", "inf", "nan-phi"])
    def test_exact_inside_the_band(self, monkeypatch, depth, ell, phi, horizon, planted):
        """Giant products whose float verdict is wrong: exact integers decide them, carried or not."""
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)

        def stream_fn(sid, length):  # sample 1 is planted, its neighbours in the row group all ones
            row = np.ones(length)
            for n, a in planted.items() if sid == 1 else ():
                row[n - 1] = a
            return row

        cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                  samples=3)
        forced(monkeypatch, stream_fn, cfg)
        got = mc._event_table(cfg)
        for sid in range(3):
            word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
            hit = blocks.first_F_event(word, ell, phi, horizon)
            want = reference_hits(word, ell, phi, horizon) + (
                oracles.brute_F_count(word, ell, phi, horizon), hit[1].j if hit else 0)
            assert tuple(got[:, sid].tolist()) == want, sid
        assert got[1, 1] <= horizon  # the planted row has an E level

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        depth=st.sampled_from([3, 7]),
        ell=st.sampled_from([1, 2, 3]),
        phi=st.sampled_from([GrowthFunction.exponential(2), GrowthFunction.power_log(1, 2),
                             GrowthFunction.table([2.0**60] * 70)]),
        horizon=st.integers(1, 70),
        plants=st.lists(st.dictionaries(
            st.integers(1, 72),
            st.one_of(st.integers(2, 9), st.sampled_from([2**30 - 1, 2**30, 2**30 + 1, 2**31]),
                      st.integers(1, 62).map(lambda k: 2**k)),
            max_size=6), min_size=1, max_size=4),
    )
    def test_planted_words_match_detectors(self, depth, ell, phi, horizon, plants):
        """Rows of ones with a few planted quotients; some near 2^30, so products pass 2^53."""

        def stream_fn(sid, length):
            row = np.ones(length)
            for n, a in plants[sid].items():
                if n <= length:
                    row[n - 1] = a
            return row

        cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                  samples=len(plants))
        with mock.patch.object(mc, "_DEPTH_BLOCK", depth), \
                mock.patch.object(mc, "QuotientSampler", oracles.ForcedStream.of(stream_fn, cfg)):
            got = mc._event_table(cfg)
        for sid in range(len(plants)):
            word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
            hit = blocks.first_F_event(word, ell, phi, horizon)
            want = reference_hits(word, ell, phi, horizon) + (
                oracles.brute_F_count(word, ell, phi, horizon), hit[1].j if hit else 0)
            assert tuple(got[:, sid].tolist()) == want, sid

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        depth=st.sampled_from([3, 7, 40]),
        first=st.sampled_from([1, 2, 5, 64]),
        ell=st.sampled_from([1, 2, 3]),
        phi=st.sampled_from([GrowthFunction.exponential(2), GrowthFunction.power_log(1, 2),
                             GrowthFunction.table([2.0**60] * 400)]),
        horizon=st.integers(1, 400),
        words=st.one_of(
            st.sampled_from(range(len(GIANT_STREAMS))),
            st.lists(st.dictionaries(
                st.integers(1, 72),
                st.one_of(st.integers(2, 9), st.sampled_from([2**30 - 1, 2**30 + 1, 2**31]),
                          st.integers(1, 62).map(lambda k: 2**k)),
                max_size=6), min_size=1, max_size=4),
        ),
    )
    def test_stopped_scan_is_the_full_scan(self, depth, first, ell, phi, horizon, words):
        """event_records and hitting_times end once every row of a chunk has tau_F.

        They equal rows 0, 1 and 3 of the full scan's table, on planted rows of
        ones (some rows hit early, some late or never) and on the giant streams
        (an index into GIANT_STREAMS, which sets its own phi and ell).
        """
        if isinstance(words, int):
            stream_fn, phi, ell, _ = GIANT_STREAMS[words]
            samples = 8
        else:
            def stream_fn(sid, length):
                row = np.ones(length)
                for n, a in words[sid].items():
                    if n <= length:
                        row[n - 1] = a
                return row
            samples = len(words)
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                  samples=samples)
        with mock.patch.object(mc, "_DEPTH_BLOCK", depth), mock.patch.object(mc, "_FIRST_BLOCK", first), \
                mock.patch.object(mc, "QuotientSampler", oracles.ForcedStream.of(stream_fn, cfg)):
            full = mc._event_table(cfg)
            records = mc.event_records(cfg)
            times = mc.hitting_times(cfg)
        assert np.array_equal(np.array(records), full[[0, 1, 3]])
        assert np.array_equal(np.array(times), full[:2])

    def test_block_schedules(self, monkeypatch):
        """A scan that may stop draws _FIRST_BLOCK levels, then doubles to _DEPTH_BLOCK; the others do not grow.

        Every scan's first block draws the (ell - 1) d column tail too.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 100)
        monkeypatch.setattr(mc, "_FIRST_BLOCK", 10)
        depths = []
        next_block = mc.QuotientSampler.next_block
        monkeypatch.setattr(mc.QuotientSampler, "next_block",
                            lambda self, depth: depths.append(depth) or next_block(self, depth))
        never = GrowthFunction.table([1e15] * 500)  # no row meets an F level: no stop
        runs = [
            (mc.event_records, mc.ExperimentConfig(kind="dichotomy", ell=3, phi=never, horizon=500,
                                                   samples=2), [12, 20, 40, 80, 100, 100, 100, 50]),
            (mc.chung_erdos_check, mc.ExperimentConfig(kind="chung_erdos", ell=3, phi=never,
                                                       horizon=250, samples=2), [102, 100, 50]),
            (mc.run_trimmed, mc.ExperimentConfig(kind="trimmed", ell=3, d=2, horizon=250,
                                                 samples=2), [104, 100, 50]),
            (mc.run_khinchin, mc.ExperimentConfig(kind="khinchin", ell=2, horizon=250,
                                                  samples=2), [101, 100, 50]),
        ]
        for run, cfg, want in runs:
            depths.clear()
            run(cfg)
            assert depths == want, (cfg.kind, depths)
        monkeypatch.setattr(mc, "_FIRST_BLOCK", 1000)  # capped at _DEPTH_BLOCK
        depths.clear()
        mc.event_records(runs[0][1])
        assert depths == [102] + [100] * 4, depths

    def test_settled_rows_leave_the_scan(self, monkeypatch):
        """A row with tau_F is no longer drawn; the rows left draw twice the last block's quotients.

        Rows 0 and 2 have tau_F = 2, row 3 has tau_F = 201 and row 1 none. The
        first block draws 10 columns of 4 rows, the next 40 of the 2 rows left
        (80 quotients), then 80 and 100 (capped at _DEPTH_BLOCK); after the
        block of levels 131-230 only row 1 is left, for the rest of the horizon.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 100)
        monkeypatch.setattr(mc, "_FIRST_BLOCK", 10)
        plants = [{1: 10**6, 2: 10**6}, {}, {1: 10**6, 2: 10**6}, {200: 10**6, 201: 10**6}]

        def stream_fn(sid, length):
            row = np.ones(length)
            for n, a in plants[sid].items():
                row[n - 1] = a
            return row

        shapes = []
        next_block = oracles.ForcedStream.next_block

        def record(self, depth):
            block = next_block(self, depth)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(oracles.ForcedStream, "next_block", record)
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=1, phi=PHI2, horizon=500, samples=4)
        forced(monkeypatch, stream_fn, cfg)
        tau_f, tau_e, first_j = mc.event_records(cfg)
        assert shapes == [(4, 10), (2, 40), (2, 80), (2, 100), (1, 100), (1, 100), (1, 70)], shapes
        assert tau_f.tolist() == [2, 501, 2, 201] and first_j.tolist() == [1, 0, 1, 200]
        assert np.array_equal(mc._event_table(cfg)[[0, 1, 3]], [tau_f, tau_e, first_j])

    def test_stopped_scan_draws_the_first_block_for_settled_rows(self, monkeypatch):
        """At c07's shape a row with tau_F in the first block draws that block only; chung_erdos draws the horizon.

        The first block holds _FIRST_BLOCK levels and draws their (ell - 1) column tail too.
        """
        drawn = collections.Counter()
        fill = mc.KeyedStreams.fill

        def count(self, sid, d, out):
            drawn[sid] += out.size
            fill(self, sid, d, out)

        monkeypatch.setattr(mc.KeyedStreams, "fill", count)
        c07 = mc.ExperimentConfig(kind="dichotomy", ell=3, phi=GrowthFunction.power_log(1, 2),
                                  horizon=10**5, samples=1000, seed=42)
        tau_f, _ = mc.hitting_times(c07)
        assert tau_f.max() <= c07.horizon  # every row meets an F level
        late = tau_f > mc._FIRST_BLOCK  # past the first block's levels
        assert 0 < late.sum() < 10, late.sum()
        for sid in range(c07.samples):
            if late[sid]:
                assert mc._FIRST_BLOCK + 2 < drawn[sid] <= c07.horizon + 2, (sid, drawn[sid])
            else:
                assert drawn[sid] == mc._FIRST_BLOCK + 2, (sid, drawn[sid])
        drawn.clear()
        ce = dataclasses.replace(c07, kind="chung_erdos", horizon=20_000, samples=3, checkpoints=())
        mc.chung_erdos_check(ce)
        assert sum(drawn.values()) == ce.samples * (ce.horizon + 2)

    def test_one_block_holds_a_tail_longer_than_the_horizon(self, monkeypatch):
        """At ell = 20,000 and horizon 10 both event scans draw one block: the 10 levels and their tail.

        Every product is past float64, so the exact path decides each level; the
        table is the blocks detectors' on the same rows. phi(10) = e^20480 is
        past the products, about e^19756, and phi(9) = e^10240 is not.
        """
        depths = []
        next_block = mc.QuotientSampler.next_block
        monkeypatch.setattr(mc.QuotientSampler, "next_block",
                            lambda self, depth: depths.append(depth) or next_block(self, depth))
        tables = []
        event_table = mc._event_table
        monkeypatch.setattr(mc, "_event_table", lambda cfg: tables.append(event_table(cfg)) or tables[-1])
        ell, horizon, samples, seed = 20_000, 10, 3, 7
        phi = GrowthFunction.doubly_exponential(math.exp(20), 2)
        cfg = mc.ExperimentConfig(kind="chung_erdos", ell=ell, phi=phi, horizon=horizon,
                                  samples=samples, seed=seed)
        mc.chung_erdos_check(cfg)
        assert depths == [horizon + ell - 1], depths
        depths.clear()
        records = mc.event_records(dataclasses.replace(cfg, kind="dichotomy"))
        assert depths == [horizon + ell - 1], depths
        assert np.array_equal(np.array(records), tables[0][[0, 1, 3]])
        words = mc.sample_quotient_block(seed, range(samples), horizon + ell - 1)
        for sid in range(samples):
            word = [int(a) for a in words[sid]]
            hit = blocks.first_F_event(word, ell, phi, horizon)
            want = reference_hits(word, ell, phi, horizon) + (
                oracles.brute_F_count(word, ell, phi, horizon), hit[1].j if hit else 0)
            assert tuple(tables[0][:, sid].tolist()) == want, sid
        assert 0 < tables[0][2].min() and tables[0][2].max() < horizon - 1  # level 10 is no F level

    @pytest.mark.parametrize("depth", [7, 777])
    def test_mask_groups_are_invisible(self, monkeypatch, depth):
        """The event table does not depend on how many rows share a mask group.

        Giant products and carried exact tops are indexed lo + i within a group:
        one row per group, about three, and the whole chunk give one table.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        for stream_fn, phi, ell, horizon in GIANT_STREAMS:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                      samples=8)
            tables = []
            forced(monkeypatch, stream_fn, cfg)
            for cells in (1, 3 * depth, 10**9):  # 3 * depth: 3 rows, more in a short last block
                monkeypatch.setattr(mc, "_MASK_CELLS", cells)
                tables.append(mc._event_table(cfg))
            assert np.array_equal(tables[0], tables[1]), stream_fn.__name__
            assert np.array_equal(tables[0], tables[2]), stream_fn.__name__
            assert np.count_nonzero(tables[0][2]), stream_fn.__name__  # some F levels to index

    def test_nan_or_inf_phi_is_always_doubtful(self):
        band = mc.LOG_BAND + 3 * 2.0**-52
        x = np.array([2.0**60, math.inf, 2.0**60, 2.0**60, 2.0, 2.0**60])
        phi = np.array([math.nan, math.nan, math.inf, 2.0**70, math.nan, 2.0**60])
        assert mc._doubtful(x, phi, band).tolist() == [True, True, True, False, False, True]

    def test_exact_compares_stay_few(self, monkeypatch):
        """At ell = 60 every product is past 2^53, but almost none lies near phi."""
        calls = []
        meets = GrowthFunction.meets_threshold
        monkeypatch.setattr(GrowthFunction, "meets_threshold",
                            lambda self, p, n: calls.append(n) or meets(self, p, n))
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=60, phi=GrowthFunction.power_log(1, 2),
                                  horizon=20_000, samples=2, seed=0)
        tau_f, tau_e, j = mc.event_records(cfg)
        assert (tau_f.tolist(), tau_e.tolist(), j.tolist()) == ([2, 2], [1, 1], [1, 1])
        assert len(calls) <= 5, len(calls)

    @pytest.mark.parametrize("depth", [7, 777])
    def test_chung_erdos_and_trimmed_unchanged(self, monkeypatch, depth):
        ce = mc.ExperimentConfig(
            kind="chung_erdos", ell=2, phi=GrowthFunction.power_log(1, 1), horizon=1600,
            samples=12, seed=3,
        )
        trimmed = mc.ExperimentConfig(
            kind="trimmed", ell=3, d=2, horizon=1600, samples=5, seed=8,
            checkpoints=(5, 700, 777, 778, 1600),
        )
        want = (mc.chung_erdos_check(ce), mc.run_trimmed(trimmed))
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        got = (mc.chung_erdos_check(ce), mc.run_trimmed(trimmed))
        assert got == want

    def test_tail_longer_than_a_depth_block(self, monkeypatch):
        """A (ell - 1) d = 10 column tail spans two depth blocks of 7 and is carried whole."""
        trimmed = mc.ExperimentConfig(kind="trimmed", ell=3, d=5, horizon=300, samples=3, seed=8,
                                      checkpoints=(2, 50, 300))
        phi = GrowthFunction.table([1e8 * 1.01**n for n in range(300)])  # tau_F from 12 to none
        dichotomy = mc.ExperimentConfig(kind="dichotomy", ell=11, phi=phi, horizon=300, samples=6, seed=8)
        want = mc.run_trimmed(trimmed), mc.event_records(dichotomy)
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 7)
        got = mc.run_trimmed(trimmed), mc.event_records(dichotomy)
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))

    @pytest.mark.parametrize("kind", ["dichotomy", "chung_erdos"])
    def test_one_sample_peak_flat_in_horizon(self, monkeypatch, kind):
        """The dichotomy row meets no F level, so its scan does not stop: it streams every block."""
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 256)
        run = {"dichotomy": mc.run_dichotomy, "chung_erdos": mc.chung_erdos_check}[kind]
        phi = {"dichotomy": GrowthFunction.table([1e15] * 16 * 256),  # no three quotients reach it
               "chung_erdos": GrowthFunction.power_log(1, 2)}[kind]
        depths = []
        next_block = mc.QuotientSampler.next_block
        peaks = []
        for horizon in (4 * 256, 4 * 256, 16 * 256):  # the first run warms up caches
            cfg = mc.ExperimentConfig(kind=kind, ell=3, phi=phi, horizon=horizon, samples=1, seed=2)
            with mock.patch.object(mc.QuotientSampler, "next_block",
                                   lambda self, depth: depths.append(depth) or next_block(self, depth)):
                run(cfg)
            assert depths == [256 + 2] + [256] * (horizon // 256 - 1), depths
            depths.clear()
            peaks.append(traced_peak(lambda: run(cfg)))
        assert peaks[2] <= 1.1 * peaks[1], peaks

    def test_chung_erdos_peak_flat_in_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 256)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", mc._BYTES_PER_QUOTIENT * 256)  # one 256-column row per chunk
        peaks = []
        for samples in (2, 2, 16):  # the first run warms up caches
            cfg = mc.ExperimentConfig(
                kind="chung_erdos", ell=1, phi=GrowthFunction.power_log(1, 1),
                horizon=4 * 256, samples=samples, seed=6,
            )
            peaks.append(traced_peak(lambda: mc.chung_erdos_check(cfg)))
        assert peaks[2] <= 1.1 * peaks[1], peaks

    @pytest.mark.parametrize("kind, samples, depth", [  # deep, then shallow and wide, then shallower
        pytest.param(kind, samples, depth, id=kind + suffix)
        for samples, depth, suffix in ((64, 4096, ""), (512, 512, "-512x512"), (512, 64, "-512x64"),
                                       (100, 250, "-100x250"))
        for kind in ("trimmed", "khinchin", "dichotomy")
    ])
    def test_one_depth_block_alive_at_a_time(self, monkeypatch, kind, samples, depth):
        """A chunk of several depth blocks peaks within _BYTES_PER_QUOTIENT of one block.

        Besides the block, a chunk holds per row the (ell - 1) d column tail
        and at most 16 eight-byte values: the sampler's r and sample id (a
        list slot and an int), the running sums and maxima or the top and 4
        event columns, the chunk's and _gather's result columns and a few
        per-row temporaries. A broadcasting ufunc may also fill one numpy
        buffer of np.getbufsize() float64s. These count below 256 columns,
        where they pass _BYTES_PER_QUOTIENT.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        run = {"trimmed": mc.run_trimmed, "khinchin": mc.run_khinchin, "dichotomy": mc.run_dichotomy}[kind]
        cfg = mc.ExperimentConfig(kind=kind, ell=2, phi=GrowthFunction.power_log(3, 2),
                                  horizon=3 * depth, samples=samples, seed=1)
        assert list(mc._chunk_ranges(cfg)) == [(0, samples)]
        assert mc._MASK_CELLS // depth >= samples  # every row in one mask group
        run(cfg)  # warms up caches
        peak = traced_peak(lambda: run(cfg))
        bound = mc._BYTES_PER_QUOTIENT * samples * depth
        if depth < 256:
            bound += 8 * ((cfg.ell - 1) * cfg.d + 16) * samples + 8 * np.getbufsize()
        assert peak <= bound, peak / (samples * depth)

    def test_chunk_budget_counts_the_carried_tail(self, monkeypatch):
        """A tail of (ell - 1) d columns longer than a depth block counts against the chunk budget."""
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 128)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 400_000)  # one chunk of all 64 rows peaks at 490 KB
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=301, phi=GrowthFunction.power_log(1, 1),
                                  horizon=10, samples=64, seed=3)
        assert len(list(mc._chunk_ranges(cfg))) > 1
        mc.run_dichotomy(cfg)  # warms up caches
        assert traced_peak(lambda: mc.run_dichotomy(cfg)) <= mc._CHUNK_BUDGET

    def test_chunks_are_sized_by_the_widest_block_drawn(self):
        """A row's share of the budget is its widest depth block, tail included once."""
        for ell, horizon in ((20_000, 10), (3, 10**5), (2_000, 20_000)):
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, horizon=horizon, samples=1000, phi=PHI2)
            drawn = mc._depth_blocks(cfg, mc.QuotientSampler(cfg.seed, range(1)))
            widest = max(qa.shape[1] for _, _, qa in drawn)
            size = min(512, mc._CHUNK_BUDGET // (mc._BYTES_PER_QUOTIENT * widest))
            assert list(mc._chunk_ranges(cfg))[0] == (0, size), (ell, horizon)
        ell_20000 = mc.ExperimentConfig(kind="dichotomy", ell=20_000, horizon=10, samples=1000, phi=PHI2)
        assert [hi - lo for lo, hi in mc._chunk_ranges(ell_20000)] == [255, 255, 255, 235]

    def test_trimmed_chunks_follow_the_last_checkpoint(self, monkeypatch):
        """1,000 trimmed samples scanned to checkpoint 100 make 2 chunks, at horizon 100 or 10^5."""
        seen = []
        run_chunks = mc._run_chunks
        monkeypatch.setattr(mc, "_run_chunks",
                            lambda c, w, ranges: run_chunks(c, w, seen.append(list(ranges)) or seen[-1]))
        for horizon in (100, 10**5):
            mc.run_trimmed(mc.ExperimentConfig(kind="trimmed", ell=2, horizon=horizon, samples=1000,
                                               seed=3, checkpoints=(100,)))
        assert seen == [[(0, 512), (512, 1000)]] * 2, seen

    def test_mc_workload_shapes_keep_one_chunk(self):
        for kind, samples, horizon, ell in (("dichotomy", 256, 10**4, 3), ("trimmed", 16, 2 * 10**4, 2)):
            cfg = mc.ExperimentConfig(kind=kind, ell=ell, horizon=horizon, samples=samples,
                                      phi=PHI2)
            assert list(mc._chunk_ranges(cfg)) == [(0, samples)]


@pytest.mark.parametrize("run", [mc.run_dichotomy, mc.hitting_times, mc.event_records, mc.run_trimmed,
                                 mc.run_khinchin, mc.chung_erdos_check], ids=lambda run: run.__name__)
def test_public_scans_take_only_the_config(run):
    """The quotient source is the sampler: no public scan takes another."""
    assert list(inspect.signature(run).parameters) == ["config"]


class TestDichotomy:
    def test_fraction_columns(self):
        cfg = mc.ExperimentConfig(
            kind="dichotomy", ell=1, phi=PHI2, horizon=200, samples=50, seed=3,
            checkpoints=(10, 50, 200),
        )
        rows = mc.run_dichotomy(cfg)
        fr_f = [r["fraction_hit_F"] for r in rows]
        fr_e = [r["fraction_hit_E"] for r in rows]
        for seq in (fr_f, fr_e):
            assert all(0.0 <= v <= 1.0 for v in seq)
            assert seq == sorted(seq)  # hit fractions are non-decreasing in n

    def test_unreachable_threshold(self):
        cfg = mc.ExperimentConfig(
            kind="dichotomy", ell=1, phi=GrowthFunction.doubly_exponential(10, 10),
            horizon=300, samples=40, seed=4, checkpoints=(300,),
        )
        rows = mc.run_dichotomy(cfg)
        assert rows[0]["fraction_hit_F"] < 0.01
        assert rows[0]["fraction_hit_E"] < 0.01

    def test_forced_stream(self, monkeypatch):
        cfg = mc.ExperimentConfig(
            kind="dichotomy", ell=1, phi=PHI2, horizon=10, samples=3, seed=0,
            checkpoints=(2, 10),
        )
        forced(monkeypatch, twos_stream, cfg)
        rows = mc.run_dichotomy(cfg)
        assert rows[0]["fraction_hit_F"] == 1.0  # 2 >= 2 at n = 1 and 2


class TestTrimmedKhinchin:
    def test_all_ones_closed_form(self, monkeypatch):
        cfg = mc.ExperimentConfig(
            kind="trimmed", ell=3, horizon=1000, samples=4, seed=0,
            checkpoints=(10, 1000),
        )
        forced(monkeypatch, ones_stream, cfg)
        rows = mc.run_trimmed(cfg)
        for row in rows:
            n = row["n"]
            want = (n - 1) / (n * math.log(n) ** 3)
            assert row["median_norm"] == pytest.approx(want, rel=1e-12)
            assert row["mean_norm"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("stream_fn, ell", [
        (giant_single_stream, 1), (giant_pair_stream, 2), (giant_triple_stream, 3),
    ], ids=["ell1", "ell2", "ell3"])
    def test_trimmed_sum_keeps_the_blocks_below_a_giant(self, monkeypatch, stream_fn, ell):
        """S_n - M_n is the exact integer's within (n + 3 ell + 2) 2^-53, relatively.

        With u = 2^-53: a block product of ell exact integer quotients rounds
        ell - 1 times, so it is within (ell - 1) u of the exact one. The
        trimmed sum adds the products of all blocks but one float-largest,
        and each term passes through at most n + 1 additions: (n + 1) u. That
        block is within 2 (ell - 1) u of the largest exact product and, if it
        is not that one, is itself a term of S - M: 2 (ell - 1) u more. To
        first order S - M is within (n + 3 ell - 2) u; 2 u more covers the
        second-order terms while n + 3 ell <= 2^27, and dividing by the
        normaliser rounds once more: 2 u. A float difference S - M of a sum
        rounded at 2^60 or 2^120 loses everything below the giant block.
        """
        cfg = mc.ExperimentConfig(kind="trimmed", ell=ell, horizon=50, samples=1, checkpoints=(10, 50))
        word = [int(a) for a in stream_fn(0, 50 + ell - 1)]
        exact = {r.n: r.total - r.max_block for r in blocks.trimmed_sum_trajectory(word, ell, 50)}
        forced(monkeypatch, stream_fn, cfg)
        for row in mc.run_trimmed(cfg):
            n = row["n"]
            got = Fraction(row["mean_norm"]) * Fraction(n * math.log(n) ** ell)
            assert abs(got - exact[n]) <= (n + 3 * ell + 2) * 2.0**-53 * exact[n], (n, float(got), exact[n])

    @pytest.mark.parametrize("kind", ["trimmed", "khinchin"])
    def test_scan_ends_at_the_last_checkpoint(self, tmp_path, monkeypatch, kind):
        depths = []
        next_block = mc.QuotientSampler.next_block
        monkeypatch.setattr(mc.QuotientSampler, "next_block",
                            lambda self, depth: depths.append(depth) or next_block(self, depth))
        csvs = []
        for horizon in (100, 10**5):
            depths.clear()
            cfg = mc.ExperimentConfig(kind=kind, ell=2, d=3, horizon=horizon, samples=5, seed=4,
                                      checkpoints=(100,))
            mc.run_experiment(cfg, str(tmp_path / str(horizon)))
            assert depths == [100 + 3], depths
            csvs.append((tmp_path / str(horizon) / f"{kind}.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @settings(max_examples=2, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(
        ell=st.sampled_from([1, 2, 3]),
        d=st.sampled_from([1, 2]),
        samples=st.integers(513, 540),
        horizon=st.integers(2 * 16_384 + 1, 2 * 16_384 + 40),
        more=st.lists(st.integers(2, 2 * 16_384 + 1), max_size=3),
        seed=st.integers(0, 2**32),
    )
    def test_checkpoint_sums_are_the_cumsum_reducer(self, ell, d, samples, horizon, more, seed):
        """Bitwise (S, S - M) of the whole-block reducer below 2^53, over several chunks and depth blocks.

        Both reducers read one draw of each chunk's rows: the blocks the
        reducer draws are replayed to the oracle. A quarter of the chunk
        budget keeps those blocks small. An example takes about a second, so
        a failure is not shrunk.
        """
        block = mc._DEPTH_BLOCK
        cps = (2, block - 1, block, block + 1, 2 * block, horizon, *more)  # both scan to the horizon

        def both(cfg, source, count):
            drawn = []
            recorded = mock.Mock(next_block=lambda depth: drawn.append(source.next_block(depth)) or drawn[-1])
            got = mc._checkpoint_sums(cfg, recorded, count)
            replayed = mock.Mock(next_block=lambda depth: drawn.pop(0))
            return np.concatenate([got, oracles.sums_and_maxes_cumsum(cfg, replayed, count)])

        cfg = mc.ExperimentConfig(kind="trimmed", ell=ell, d=d, horizon=horizon, samples=samples,
                                  seed=seed, checkpoints=cps)
        with mock.patch.object(mc, "_CHUNK_BUDGET", mc._CHUNK_BUDGET // 4):
            assert horizon % block and len(list(mc._chunk_ranges(cfg))) > 1
            got_sums, trimmed, sums, maxes = mc._gather(cfg, both, (4, len(cfg.checkpoints)), float)
        below = sums < mc.GIANT
        assert np.array_equal(got_sums[below], sums[below])
        assert np.array_equal(trimmed[below], (sums - maxes)[below])

    def test_khinchin_forced_twos(self, monkeypatch):
        cfg = mc.ExperimentConfig(
            kind="khinchin", ell=1, horizon=10**4, samples=3, seed=0,
            checkpoints=(10**4,),
        )
        forced(monkeypatch, twos_stream, cfg)
        rows = mc.run_khinchin(cfg)
        # S_n/(n log n) = 2/log n -> far below 1/log 2, so always outside
        assert rows[0]["outside_0.1"] == 1.0
        assert rows[0]["outside_0.25"] == 1.0

    def test_khinchin_trend(self):
        cfg = mc.ExperimentConfig(
            kind="khinchin", ell=1, horizon=10**5, samples=200, seed=21,
            checkpoints=(10**3, 10**5),
        )
        rows = mc.run_khinchin(cfg)
        assert rows[1]["outside_0.25"] <= rows[0]["outside_0.25"]

    def test_progression_matches_block_op(self):
        cfg = mc.ExperimentConfig(
            kind="trimmed", ell=2, d=3, horizon=50, samples=2, seed=5,
            checkpoints=(50,),
        )
        sums, _ = mc._gather_trajectories(cfg)
        for sid in range(2):
            word = cf.take(cf.lebesgue_quotients(mc.sample_rng(5, sid)), 50 + 3)
            assert int(sums[0][sid]) == blocks.progression_sum(word, 2, 3, 50)


class TestChungErdos:
    def test_synthetic_closed_form(self):
        p, N, S = 0.3, 50, 10**5
        res = mc._chung_erdos(oracles.coin_counts(p, N, S, seed=5))
        lhs_cf, rhs_cf = oracles.coin_closed_forms(p, N)
        sigma_lhs = math.sqrt(lhs_cf * (1 - lhs_cf) / S)
        sigma_rhs = oracles.coin_rhs_sigma(p, N, S)
        assert abs(res.lhs - lhs_cf) <= 3 * sigma_lhs + 1e-9
        assert abs(res.rhs - rhs_cf) <= 3 * sigma_rhs
        assert res.holds

    def test_deterministic_single_event(self, monkeypatch):
        cfg = mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=PHI2, horizon=2, samples=10, seed=0,
        )
        forced(monkeypatch, twos_stream, cfg)
        res = mc.chung_erdos_check(cfg)
        # forced twos: E_2 always occurs, E_1 never (needs k < n)
        assert res.lhs == 1.0 and res.rhs == 1.0 and res.holds

    def test_degenerate_vacuous(self):
        cfg = mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=GrowthFunction.doubly_exponential(10, 10),
            horizon=15, samples=20, seed=1,
        )
        res = mc.chung_erdos_check(cfg)
        assert res.degenerate and res.holds and res.lhs == 0.0

    def test_cf_instance_holds(self):
        cfg = mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=PHI2, horizon=20, samples=2000, seed=9,
        )
        res = mc.chung_erdos_check(cfg)
        assert res.holds

    def test_memory_linear_in_horizon(self):
        # the pair sum needs only per-sample event counts, not an N x N matrix
        cfg = mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=GrowthFunction.power_log(1, 1),
            horizon=3000, samples=2, seed=3,
        )
        tracemalloc.start()
        try:
            mc.chung_erdos_check(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPersistence:
    def _config(self, threads=1):
        return mc.ExperimentConfig(
            kind="dichotomy", ell=2, phi=GrowthFunction.power_log(1, 1),
            horizon=300, samples=40, seed=42, checkpoints=(30, 300), threads=threads,
        )

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        mc.run_experiment(self._config(), str(a))
        mc.run_experiment(self._config(), str(b))
        assert (a / "dichotomy.csv").read_bytes() == (b / "dichotomy.csv").read_bytes()

    def test_pool_bounded_by_cpus_and_chunks(self, monkeypatch):
        made = []

        class InlineExecutor:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                return completed(fn(item))

        monkeypatch.setattr(mc, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # (threads, chunks, workers): bounded by CPUs, threads, chunks; 1 runs inline
        for threads, chunks, want in ((10_000, 5, 4), (3, 5, 3), (10_000, 2, 2), (1, 5, None)):
            made.clear()
            ranges = [(i, i + 1) for i in range(chunks)]
            cfg = mc.ExperimentConfig(kind="khinchin", threads=threads)
            assert list(mc._run_chunks(cfg, lambda r: r[0], ranges)) == list(range(chunks))
            assert made == ([want] if want else [])
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        made.clear()
        list(mc._run_chunks(mc.ExperimentConfig(kind="khinchin", threads=8), lambda r: r, ranges))
        assert made == []  # unknown CPU count: run inline

    def test_pool_keeps_two_ranges_a_worker_in_flight(self, monkeypatch):
        """3 workers take each range as they submit it, and hold at most 6 submitted and not collected."""
        pool, pulled, submitted = mock.MagicMock(), [], []
        pool.__enter__.return_value.submit = lambda fn, r: submitted.append(r) or completed(fn(r))
        monkeypatch.setattr(mc, "ProcessPoolExecutor", mock.Mock(return_value=pool))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        ranges = (pulled.append(i) or (i, i + 1) for i in range(100))
        run = mc._run_chunks(mc.ExperimentConfig(kind="khinchin", threads=8), lambda r: r[0], ranges)
        for i, got in enumerate(run):
            assert (got, len(submitted) - (i + 1), len(pulled)) == (i, min(6, 99 - i), len(submitted)), i
        mc.ProcessPoolExecutor.assert_called_once_with(max_workers=3)
        assert len(submitted) == 100

    def test_chunk_ranges_are_lazy(self):
        """200,000 one-row ranges at ell = 5 * 10^6, 25.6 MB as a list, come one at a time."""
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=5 * 10**6, horizon=10, samples=200_000, phi=PHI2)
        widths = collections.Counter()
        peak = traced_peak(lambda: widths.update(hi - lo for lo, hi in mc._chunk_ranges(cfg)))
        assert widths == {1: 200_000} and peak < 50_000, peak

    def test_thread_count_invariance(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t3"
        mc.run_experiment(self._config(threads=1), str(a))
        mc.run_experiment(self._config(threads=3), str(b))
        assert (a / "dichotomy.csv").read_bytes() == (b / "dichotomy.csv").read_bytes()

    def test_process_pool_matches_inline(self, tmp_path, monkeypatch):
        """600 samples make 2 chunks; threads = 2 runs them in a real pool of 2 workers."""
        made = []
        pool = mc.ProcessPoolExecutor
        monkeypatch.setattr(mc, "ProcessPoolExecutor",
                            lambda max_workers: made.append(max_workers) or pool(max_workers))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = mc.ExperimentConfig(kind="trimmed", ell=2, horizon=300, samples=600, seed=5)
        assert len(list(mc._chunk_ranges(cfg))) == 2
        a, b = tmp_path / "t1", tmp_path / "t2"
        mc.run_experiment(cfg, str(a))
        mc.run_experiment(dataclasses.replace(cfg, threads=2), str(b))
        assert made == [2]
        assert (a / "trimmed.csv").read_bytes() == (b / "trimmed.csv").read_bytes()

    def test_manifest_and_config_written(self, tmp_path):
        import json

        out = tmp_path / "run"
        manifest = mc.run_experiment(self._config(), str(out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["config_hash"] == manifest.config_hash
        assert on_disk["prng"] == mc.PRNG_NAME
        assert on_disk["tool_version"] == manifest.tool_version
        parsed = mc.config_from_text((out / "config.txt").read_text())
        assert mc.config_hash(parsed) == manifest.config_hash

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_share_one_atomic_writer(self, tmp_path, umask):
        """The CSV, manifest and config all get the umask's mode, and no temp file stays."""
        old = os.umask(umask)
        try:
            mc.run_experiment(self._config(), str(tmp_path))
        finally:
            os.umask(old)
        modes = {name: (tmp_path / name).stat().st_mode & 0o777
                 for name in ("dichotomy.csv", "manifest.json", "config.txt")}
        assert set(modes.values()) == {0o666 & ~umask}, modes
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(modes)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "fmt"
        mc.run_experiment(self._config(), str(out))
        lines = (out / "dichotomy.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"n,fraction_hit_F,fraction_hit_E"
        assert len(lines) == 4  # header + 2 checkpoints + trailing newline
