import itertools
from fractions import Fraction

import numpy as np
import pytest

from threshold_arena import (
    AdaptiveMirrorAdversary,
    AnytimeAdversary,
    CdfEst,
    ConstantCoinAdversary,
    MedianLbAdversary,
    MedianLbConfig,
    NondeterminismError,
    SequenceAdversary,
    StochasticAdversary,
    ValidationError,
    amplifier_checkpoints,
    breaker_round_choice,
    build_breaker_pair,
    cdf_lb_family,
    empirical_cdf,
    load_sample_sequence,
    median_lb_cdf,
    median_lb_pmf,
    point_mass_pmf,
    quantile_error,
    save_sample_sequence,
    uniform_pmf,
)
from threshold_arena.adversaries import Adversary
from threshold_arena.estimators import HalvingBaseline, MidpointBaseline


def rng(seed=0):
    return np.random.default_rng(seed)


def draw(adversary, rounds):
    queries = np.ones(rounds, dtype=np.int64)
    return [adversary.next_sample(queries[:i]) for i in range(rounds)]


class TestStochasticAdversary:
    def test_point_mass(self):
        adv = StochasticAdversary(point_mass_pmf(3, 6), rng(1))
        assert draw(adv, 50) == [3] * 50

    def test_uniform_frequencies(self):
        n, rounds = 5, 100_000
        adv = StochasticAdversary(uniform_pmf(n), rng(2))
        samples = np.array(draw(adv, rounds))
        assert samples.max() <= n  # never n+1
        freqs = np.bincount(samples, minlength=n + 2)[1 : n + 1] / rounds
        se = np.sqrt((1 / n) * (1 - 1 / n) / rounds)
        assert np.all(np.abs(freqs - 1 / n) < 4 * se)
        # CLT check on the sample mean
        sd = np.sqrt((n**2 - 1) / 12)
        assert abs(samples.mean() - (n + 1) / 2) < 4 * sd / np.sqrt(rounds)

    def test_family_adversary_matches_closed_form(self):
        n, eps, rounds = 4, Fraction(1, 20), 100_000
        pmf = cdf_lb_family(n, eps, "+")
        adv = StochasticAdversary([float(p) for p in pmf], rng(3))
        samples = np.array(draw(adv, rounds))
        emp = np.cumsum(np.bincount(samples, minlength=n + 2)[1:]) / rounds
        for i in range(1, n + 1):
            target = i / (n + 1) + float(eps)
            se = np.sqrt(target * (1 - target) / rounds)
            assert abs(emp[i - 1] - target) < 4 * se

    def test_pmf_validation(self):
        with pytest.raises(ValidationError, match="negative"):
            StochasticAdversary([0.5, 0.6, -0.1], rng())
        with pytest.raises(ValidationError, match="sums"):
            StochasticAdversary([0.5, 0.1, 0.1], rng())
        with pytest.raises(ValidationError, match="sums to nan"):
            StochasticAdversary([0.5, float("nan"), 0.5], rng())


class TestCdfLbFamily:
    def test_exact_pmf(self):
        pmf = cdf_lb_family(3, Fraction(1, 10), "+")
        assert pmf == [Fraction(7, 20), Fraction(1, 4), Fraction(1, 4), Fraction(3, 20)]
        cdf = list(itertools.accumulate(pmf))
        assert cdf == [Fraction(7, 20), Fraction(3, 5), Fraction(17, 20), Fraction(1)]

    def test_zero_epsilon_is_uniform(self):
        assert cdf_lb_family(5, 0, "-") == [Fraction(1, 6)] * 6

    def test_alternating_sigma_at_loose_bound_rejected(self):
        n = 4
        with pytest.raises(ValidationError, match="nonnegativity"):
            cdf_lb_family(n, Fraction(1, n + 1), "alt")

    def test_sigma_strings(self):
        assert cdf_lb_family(2, Fraction(1, 12), "+-") == cdf_lb_family(2, Fraction(1, 12), "alt")
        with pytest.raises(ValidationError, match="length"):
            cdf_lb_family(3, 0, "+-")
        with pytest.raises(ValidationError):
            cdf_lb_family(3, 0, "+x-")

    def test_decimal_epsilon_at_exact_bound(self):
        # 0.1 entered as a float must count as exactly 1/10
        assert cdf_lb_family(4, 0.1, "+")[0] == Fraction(3, 10)


class TestMedianLbConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MedianLbConfig(3, 1, 0)  # odd k
        with pytest.raises(ValidationError):
            MedianLbConfig(4, 0, 0)
        with pytest.raises(ValidationError):
            MedianLbConfig(4, 1, Fraction(1, 16))  # above 1/(2n) = 1/32
        with pytest.warns(UserWarning):
            MedianLbConfig(2, 1, 0)

    def test_alpha_weights_in_range(self):
        config = MedianLbConfig(4, 1, Fraction(1, 32))
        alphas = [config.alpha(i) for i in range(config.k + 1, 3 * config.k)]
        assert all(1 <= a <= 2 for a in alphas)
        assert config.alpha(2 * config.k + 1) == config.alpha(2 * config.k - 1)

    def test_offsets_are_odd_between_k_and_3k(self):
        config = MedianLbConfig(4, 1, 0)
        assert config.offsets() == (5, 7, 9, 11)

    def test_closed_form_cdf(self):
        # recompute the staircase independently of the implementation
        config = MedianLbConfig(4, 1, Fraction(1, 40), "+-+-")
        n, k, eps = config.n, config.k, Fraction(1, 40)
        cdf = median_lb_cdf(config)
        for i in range(1, n + 1):
            expected = Fraction(i, n)
            if i % 2 == 1 and k < i < 3 * k:
                slot = (i - k + 1) // 2
                alpha = 2 - 4 * abs(Fraction(i, n) - Fraction(1, 2))
                expected += config.sigma[slot - 1] * alpha * eps
            assert cdf[i] == expected
        assert cdf[0] == 0 and cdf[n + 1] == 1

    def test_pmf_positive_and_consistent(self):
        config = MedianLbConfig(6, 2, Fraction(1, 48), "alt")
        pmf = median_lb_pmf(config)
        assert all(p > 0 for p in pmf[: config.n])
        assert pmf[config.n] == 0  # no mass at n+1
        assert list(itertools.accumulate(pmf))[-1] == 1

    def test_zero_epsilon_first_phase_uniform(self):
        config = MedianLbConfig(4, 1, 0)
        assert median_lb_pmf(config)[: config.n] == [Fraction(1, config.n)] * config.n


class TestMedianLbAdversary:
    def test_two_phase_schedule(self):
        with pytest.warns(UserWarning):
            config = MedianLbConfig(2, 1, 0)
        n, horizon = config.n, config.horizon  # n=8, T=16
        seen = set()
        for seed in range(12):
            adv = MedianLbAdversary(config, rng(seed))
            assert adv.j in (3, 5)
            seen.add(adv.j)
            samples = draw(adv, horizon)
            tail = samples[horizon // 2 :]
            assert tail == [n] * (adv.j * config.m) + [1] * (horizon // 2 - adv.j * config.m)
        assert seen == {3, 5}

    def test_mixture_identity_exact(self):
        with pytest.warns(UserWarning):
            config = MedianLbConfig(2, 1, Fraction(1, 16))
        n, horizon = config.n, config.horizon
        for seed in range(5):
            adv = MedianLbAdversary(config, rng(seed))
            samples = draw(adv, horizon)
            full = empirical_cdf(samples, n)
            half = empirical_cdf(samples[: horizon // 2], n)
            j = Fraction(adv.j)
            for i in range(1, n + 1):
                expected = (
                    Fraction(1, 2) * half.value(i)
                    + Fraction(1, 2)
                    - j / (2 * n)
                    + (j / (2 * n)) * (i == n)
                )
                assert full.value(i) == expected

    def test_keeps_returning_ones_past_horizon(self):
        config = MedianLbConfig(4, 1, 0)
        adv = MedianLbAdversary(config, rng(0))
        assert draw(adv, config.horizon + 5)[-5:] == [1] * 5

    def test_first_phase_stream_is_pinned(self):
        # values recorded when the first phase had its own inverse-CDF sampler
        config = MedianLbConfig(4, 4, Fraction(1, 40), "+-+-")
        adv = MedianLbAdversary(config, rng(2021))
        assert adv.j == 11
        assert draw(adv, 16) == [16, 9, 5, 11, 1, 5, 8, 5, 12, 15, 15, 2, 5, 16, 5, 13]


class TestConstantCoin:
    def test_both_branches_reachable(self):
        values = {ConstantCoinAdversary(4, rng(s)).value for s in range(20)}
        assert values == {1, 2}

    def test_constant_within_run(self):
        adv = ConstantCoinAdversary(4, rng(1))
        assert len(set(draw(adv, 30))) == 1

    def test_fair_coin_over_constructions(self):
        trials = 10_000
        g = rng(7)
        ones = sum(ConstantCoinAdversary(4, g).value == 1 for _ in range(trials))
        se = np.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) < 4 * se


class TestMirror:
    def test_initialization_and_follow(self):
        adv = AdaptiveMirrorAdversary(8)
        queries = np.array([3, 8])
        assert adv.next_sample(queries[:0]) == 4
        assert adv.next_sample(queries[:1]) == 4
        assert adv.next_sample(queries[:2]) == 9  # clamped to n+1

    def test_requires_even_n(self):
        with pytest.raises(ValidationError):
            AdaptiveMirrorAdversary(7)


class TestSequence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        save_sample_sequence(path, [3, 1, 4, 1, 5])
        assert load_sample_sequence(path) == [3, 1, 4, 1, 5]
        adv = SequenceAdversary(load_sample_sequence(path), n=5)
        assert draw(adv, 5) == [3, 1, 4, 1, 5]

    def test_exhaustion(self):
        adv = SequenceAdversary([2, 2], n=4)
        draw(adv, 2)
        with pytest.raises(ValidationError, match="exhausted"):
            adv.next_sample(np.ones(2, dtype=np.int64))
        with pytest.raises(ValidationError, match="exhausted"):
            adv.sample_batch(np.ones(3, dtype=np.int64))

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\ntwo\n")
        with pytest.raises(ValidationError):
            load_sample_sequence(path)


_BATCH_SAMPLERS = {
    "stochastic": lambda g: StochasticAdversary(cdf_lb_family(16, Fraction(1, 40), "alt"), g),
    "coin": lambda g: ConstantCoinAdversary(16, g),
    "mirror": lambda g: AdaptiveMirrorAdversary(16),
    "sequence": lambda g: SequenceAdversary([(5 * t) % 17 + 1 for t in range(80)], 16),
    "median-lb": lambda g: MedianLbAdversary(MedianLbConfig(4, 1, Fraction(1, 40), "+-+-"), g),
}


@pytest.mark.parametrize("name", sorted(_BATCH_SAMPLERS))
def test_sample_batch_replays_next_sample(name):
    # 70 rounds cross both median-lb phases and its intended horizon of 32
    make = _BATCH_SAMPLERS[name]
    queries = rng(7).integers(1, 17, size=70)
    g_batch, g_live = rng(3), rng(3)
    batch = make(g_batch).sample_batch(queries)
    live = make(g_live)
    assert batch.dtype == np.int64
    assert batch.tolist() == [live.next_sample(queries[:i]) for i in range(len(queries))]
    assert g_batch.random() == g_live.random()  # same rng consumption


class _SlicingAmplifier(AnytimeAdversary):
    """The amplifier with each round handing its segment a copied slice of
    the past queries. Reference for the view it hands."""

    def next_sample(self, past):
        if len(past) - self._segment_start >= self._segment_len:
            self._segment_start += self._segment_len
            self._segment_len = 32 * self._segment_start
            self._segment = self._factory(self._segment_len)
        return self._segment.next_sample(past[self._segment_start :].copy())


_AMPLIFIED = {
    "mirror": lambda cls, g: cls(lambda segment: AdaptiveMirrorAdversary(16), t0=1),
    "median-lb": lambda cls, g: cls(
        lambda segment: MedianLbAdversary(MedianLbConfig(4, 20, Fraction(1, 40), "+-+-"), g), t0=1
    ),
    "nested-mirror": lambda cls, g: cls(
        lambda segment: cls(lambda inner: AdaptiveMirrorAdversary(16), t0=1), t0=1
    ),
    # segments that draw at construction (coin) or per round (stochastic)
    "coin": lambda cls, g: cls(lambda segment: ConstantCoinAdversary(16, g), t0=1),
    "stochastic": lambda cls, g: cls(
        lambda segment: StochasticAdversary(cdf_lb_family(16, Fraction(1, 40), "alt"), g), t0=1
    ),
    "nested-coin": lambda cls, g: cls(
        lambda segment: cls(lambda inner: ConstantCoinAdversary(16, g), t0=1), t0=1
    ),
}


class TestAnytimeAmplifier:
    def test_checkpoints(self):
        gen = amplifier_checkpoints(1)
        assert [next(gen) for _ in range(4)] == [1, 33, 1089, 35937]

    def test_segment_lengths_requested_from_factory(self):
        lengths = []

        def factory(segment):
            lengths.append(segment)
            return SequenceAdversary([1] * segment, n=4)

        adv = AnytimeAdversary(factory, t0=1)
        draw(adv, 40)
        assert lengths == [1, 32, 1056]

    def test_point_mass_composition(self):
        adv = AnytimeAdversary(lambda s: StochasticAdversary(point_mass_pmf(2, 4), rng(s)), t0=2)
        assert draw(adv, 50) == [2] * 50

    def test_segments_see_local_history(self):
        # a mirror inside the amplifier restarts at n/2 on each segment boundary
        adv = AnytimeAdversary(lambda s: AdaptiveMirrorAdversary(8), t0=1)
        queries = np.array([7, 2, 5, 6])
        samples = [adv.next_sample(queries[:i]) for i in range(4)]
        # round 1: segment of length 1 -> 4; round 2: fresh segment -> 4 again
        assert samples == [4, 4, 3, 6]

    @pytest.mark.parametrize("name", sorted(_AMPLIFIED))
    def test_offset_view_matches_sliced_history(self, name):
        # 1200 rounds cross the segment boundaries at 1, 33 and 1089
        queries = rng(5).integers(1, 17, size=1200)
        live = _AMPLIFIED[name](AnytimeAdversary, rng(9))
        reference = _AMPLIFIED[name](_SlicingAmplifier, rng(9))
        samples, expected = [], []
        for i in range(len(queries)):
            samples.append(live.next_sample(queries[:i]))
            expected.append(reference.next_sample(queries[:i]))
        assert samples == expected


    @pytest.mark.parametrize("name", sorted(_AMPLIFIED))
    def test_sample_batch_replays_next_sample(self, name):
        # 1200 rounds cross the segment boundaries at 1, 33 and 1089
        queries = rng(5).integers(1, 17, size=1200)
        g_batch, g_live = rng(9), rng(9)
        batch = _AMPLIFIED[name](AnytimeAdversary, g_batch).sample_batch(queries)
        assert batch.dtype == np.int64
        live = _AMPLIFIED[name](AnytimeAdversary, g_live)
        assert batch.tolist() == [live.next_sample(queries[:i]) for i in range(len(queries))]
        assert g_batch.random() == g_live.random()  # same rng consumption, in the same order

    def test_no_sample_batch_without_segment_batches(self):
        class _Plain(Adversary):
            n = 4

            def next_sample(self, past):
                return 1

        assert not hasattr(AnytimeAdversary(lambda segment: _Plain()), "sample_batch")
        nested = AnytimeAdversary(lambda segment: AnytimeAdversary(lambda inner: _Plain()))
        assert not hasattr(nested, "sample_batch")


class TestBreaker:
    def test_round_choice_examples(self):
        assert breaker_round_choice(8, 3) == (4, 8, 0)
        assert breaker_round_choice(8, 4) == (1, 4, 1)  # tie goes left
        assert breaker_round_choice(8, 6) == (1, 6, 1)

    def test_supports_split_by_halves(self):
        pair = build_breaker_pair(lambda: MidpointBaseline(8), 8, 32)
        half = pair.horizon // 2
        assert all(1 <= v <= 4 for v in pair.left[:half])
        assert all(4 <= v <= 8 for v in pair.right[:half])
        assert pair.left[half:] == pair.right[half:] == pair.tail

    def test_feedback_identity(self):
        for factory in (lambda: MidpointBaseline(16), lambda: HalvingBaseline(16)):
            pair = build_breaker_pair(factory, 16, 160)
            for alg_builder in (factory,):
                seen = []
                for samples in (pair.left, pair.right):
                    alg = alg_builder()
                    g = rng(0)
                    bits = []
                    for x in samples:
                        q = alg.next_query(g)
                        bit = int(x <= q)
                        alg.observe(bit)
                        bits.append(bit)
                    seen.append(bits)
                assert seen[0] == seen[1]

    def test_no_shared_good_median(self):
        for factory in (lambda: MidpointBaseline(16), lambda: HalvingBaseline(16)):
            pair = build_breaker_pair(factory, 16, 160)
            f_left = empirical_cdf(pair.left, 16)
            f_right = empirical_cdf(pair.right, 16)
            for m in range(1, 18):
                errs = (
                    quantile_error(f_left, m, Fraction(1, 2)),
                    quantile_error(f_right, m, Fraction(1, 2)),
                )
                assert max(errs) >= Fraction(1, 16)

    def test_tail_split_matches_p(self):
        pair = build_breaker_pair(lambda: MidpointBaseline(8), 8, 32)
        low_hits = sum(1 for q in pair.queries if 1 <= q <= 3)
        assert pair.p == Fraction(2 * low_hits, 32)
        horizon = 32
        if abs(Fraction(1, 2) - pair.p) > Fraction(1, 8):
            assert pair.tail == (1,) * (horizon // 4) + (8,) * (horizon // 4)
        else:
            assert pair.tail == (1,) * (horizon // 8) + (8,) * (3 * horizon // 8)

    def test_randomized_algorithm_detected(self):
        with pytest.raises(NondeterminismError):
            build_breaker_pair(lambda: CdfEst(8), 8, 32)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            build_breaker_pair(lambda: MidpointBaseline(7), 7, 32)
        with pytest.raises(ValidationError):
            build_breaker_pair(lambda: MidpointBaseline(8), 8, 24)
