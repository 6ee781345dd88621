import dataclasses
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cflab import blocks, cf, mc
from cflab.errors import DomainError
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


GIANT_TABLE = GrowthFunction.table([2.0 ** (168 + n // 400) for n in range(2000)])


def reference_hits(word, ell, phi, horizon):
    """(tau_F, tau_E) of one quotient word from the blocks detectors; horizon + 1 is none."""
    hit_f = blocks.first_F_event(word, ell, phi, horizon)
    hit_e = blocks.first_E_event(word, ell, phi, horizon)
    return (hit_f[0] if hit_f else horizon + 1), (hit_e if hit_e else horizon + 1)


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
        chunks = len(mc._chunk_ranges(cfg))
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
        # giant products: exact ties with 2^n past 2^53, and a giant carried across blocks
        giants = [
            (near_power_stream, GrowthFunction.exponential(2), 1, 1000),
            (powers_of_two_stream, GIANT_TABLE, 3, 2000),
            (rare_giant_stream, GrowthFunction.power_log(1, 2), 1, 2000),
        ]
        for stream_fn, phi, ell, horizon in giants:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon, samples=8)
            tau_f, tau_e = mc._event_table(cfg, stream_fn)[:2]
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
        giants = [
            (near_power_stream, GrowthFunction.exponential(2), 1, 1000),
            (powers_of_two_stream, GIANT_TABLE, 3, 2000),
            (rare_giant_stream, GrowthFunction.power_log(1, 2), 1, 2000),
        ]
        for stream_fn, phi, ell, horizon in giants:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                      samples=8)
            got = mc._event_table(cfg, stream_fn)
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
        ell, horizon, samples, seed, forced = 2, 1000, 40, 17, 21
        b = depth * -(-700 // depth)  # a drawn-column boundary: columns b - 1 | b
        giant = 2.0**59 + 2.0**7
        assert 3.0 * giant > 3 * int(giant)
        phi = GrowthFunction.table(list(GrowthFunction.power_log(1, 1).phi_array(b - 1))
                                   + [3.0 * giant] * (horizon - b + 1))

        def stream_fn(sid, length):
            row = mc.sample_quotient_block(seed, [sid], length)[0]
            if sid == forced:
                row[b - 1 : b + 2] = giant, 3.0, giant
            return row

        cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                  samples=samples)
        assert mc._chunk_ranges(cfg) == [(0, samples)]
        got = mc._event_table(cfg, stream_fn)
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
        got = mc._event_table(cfg, stream_fn)
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
        with mock.patch.object(mc, "_DEPTH_BLOCK", depth):
            got = mc._event_table(cfg, stream_fn)
        for sid in range(len(plants)):
            word = [int(a) for a in stream_fn(sid, horizon + ell - 1)]
            hit = blocks.first_F_event(word, ell, phi, horizon)
            want = reference_hits(word, ell, phi, horizon) + (
                oracles.brute_F_count(word, ell, phi, horizon), hit[1].j if hit else 0)
            assert tuple(got[:, sid].tolist()) == want, sid

    @pytest.mark.parametrize("depth", [7, 777])
    def test_mask_groups_are_invisible(self, monkeypatch, depth):
        """The event table does not depend on how many rows share a mask group.

        Giant products and carried exact tops are indexed lo + i within a group:
        one row per group, about three, and the whole chunk give one table.
        """
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        giants = [
            (near_power_stream, GrowthFunction.exponential(2), 1, 1000),
            (powers_of_two_stream, GIANT_TABLE, 3, 2000),
            (rare_giant_stream, GrowthFunction.power_log(1, 2), 1, 2000),
        ]
        for stream_fn, phi, ell, horizon in giants:
            cfg = mc.ExperimentConfig(kind="dichotomy", ell=ell, phi=phi, horizon=horizon,
                                      samples=8)
            tables = []
            for cells in (1, 3 * depth, 10**9):  # 3 * depth: 3 rows, more in a short last block
                monkeypatch.setattr(mc, "_MASK_CELLS", cells)
                tables.append(mc._event_table(cfg, stream_fn))
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
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 256)
        run = {"dichotomy": mc.run_dichotomy, "chung_erdos": mc.chung_erdos_check}[kind]
        peaks = []
        for horizon in (4 * 256, 4 * 256, 16 * 256):  # the first run warms up caches
            cfg = mc.ExperimentConfig(
                kind=kind, ell=3, phi=GrowthFunction.power_log(1, 2), horizon=horizon,
                samples=1, seed=2,
            )
            peaks.append(traced_peak(lambda: run(cfg)))
        assert peaks[2] <= 1.1 * peaks[1], peaks

    def test_chung_erdos_peak_flat_in_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_DEPTH_BLOCK", 256)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 1)  # one sample per chunk
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
        assert mc._chunk_ranges(cfg) == [(0, samples)]
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
        assert len(mc._chunk_ranges(cfg)) > 1
        mc.run_dichotomy(cfg)  # warms up caches
        assert traced_peak(lambda: mc.run_dichotomy(cfg)) <= mc._CHUNK_BUDGET

    def test_mc_workload_shapes_keep_one_chunk(self):
        for kind, samples, horizon, ell in (("dichotomy", 256, 10**4, 3), ("trimmed", 16, 2 * 10**4, 2)):
            cfg = mc.ExperimentConfig(kind=kind, ell=ell, horizon=horizon, samples=samples,
                                      phi=PHI2)
            assert mc._chunk_ranges(cfg) == [(0, samples)]


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

    def test_forced_stream(self):
        cfg = mc.ExperimentConfig(
            kind="dichotomy", ell=1, phi=PHI2, horizon=10, samples=3, seed=0,
            checkpoints=(2, 10),
        )
        rows = mc.run_dichotomy(cfg, stream_fn=twos_stream)
        assert rows[0]["fraction_hit_F"] == 1.0  # 2 >= 2 at n = 1 and 2


class TestTrimmedKhinchin:
    def test_all_ones_closed_form(self):
        cfg = mc.ExperimentConfig(
            kind="trimmed", ell=3, horizon=1000, samples=4, seed=0,
            checkpoints=(10, 1000),
        )
        rows = mc.run_trimmed(cfg, stream_fn=ones_stream)
        for row in rows:
            n = row["n"]
            want = (n - 1) / (n * math.log(n) ** 3)
            assert row["median_norm"] == pytest.approx(want, rel=1e-12)
            assert row["mean_norm"] == pytest.approx(want, rel=1e-12)

    def test_khinchin_forced_twos(self):
        cfg = mc.ExperimentConfig(
            kind="khinchin", ell=1, horizon=10**4, samples=3, seed=0,
            checkpoints=(10**4,),
        )
        rows = mc.run_khinchin(cfg, stream_fn=twos_stream)
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
        sums, _ = mc._gather_trajectories(cfg, None)
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

    def test_deterministic_single_event(self):
        cfg = mc.ExperimentConfig(
            kind="chung_erdos", ell=1, phi=PHI2, horizon=2, samples=10, seed=0,
        )
        res = mc.chung_erdos_check(cfg, stream_fn=twos_stream)
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

            def map(self, fn, items):
                return map(fn, items)

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
        assert len(mc._chunk_ranges(cfg)) == 2
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
