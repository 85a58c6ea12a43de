"""Round-loop, Monte Carlo and search outputs pinned as SHA-256 digests.

Each round-loop digest covers the run_game columns (queries, samples,
feedback, errors, estimates) of one matchup that plays the round loop: an
algorithm without batch methods against an adaptive, phased, replayed or
amplified adversary. Each Monte Carlo digest covers every field of one
monte_carlo summary of a replayed matchup whose runs span several scoring
blocks, and must come out the same at 1 and 2 workers. Each search digest
covers (t_hat, resolved, curve) of one estimate_query_complexity call.
The digests were recorded with numpy RECORDED_NUMPY. numpy may change its
Generator streams between releases, so on another version the test fails
and names both versions instead of passing or failing on stream noise.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import numpy as np
import pytest

from threshold_arena import (
    AdversarySpec,
    AlgorithmSpec,
    GameConfig,
    estimate_query_complexity,
    monte_carlo,
    run_game,
)

RECORDED_NUMPY = "2.4.6"

N, HORIZON, SEED = 16, 2000, 11
COLUMNS = ("queries", "samples", "feedback", "errors", "estimates")
ALGORITHMS = ("midpoint", "halving", "stochastic-cdf")
# median-lb's intended horizon is 2 * 16 * 50 = 1600, so a game crosses both
# phases and the 1s after them; the amplifiers cross segments at 1, 33, 1089
ADVERSARIES = {
    "mirror": "mirror",
    "median-lb": AdversarySpec("median-lb", {"k": 4, "m": 50, "epsilon": "1/64", "sigma": "+-+-"}),
    "sequence": AdversarySpec("sequence", {"samples": [(5 * t) % 17 + 1 for t in range(HORIZON)]}),
    "amplified-mirror": AdversarySpec("amplified", {"inner": "mirror"}),
    "amplified-amplified-mirror": AdversarySpec(
        "amplified", {"inner": {"name": "amplified", "params": {"inner": "mirror"}}}
    ),
}

DIGESTS = {
    "midpoint/mirror": "e18aab2a63a1c981c73ffa240c8b6afe9934134944d879866caeb6b9465ed82b",
    "midpoint/median-lb": "a3d08ddaae9d8c030aebf3e844792c6e21a2b69bbe5d1f88f0a455a7980d8ec1",
    "midpoint/sequence": "0ac68873eef4bb83b3e256a0f8ebb74647085b31563e35937eadf189a00cf3e7",
    "midpoint/amplified-mirror": "1c1eed50a7d4a895881a0f4ee0ae5378015ad87a17dbaa0c0bad328ce9af3ea5",
    "midpoint/amplified-amplified-mirror": "c4a0f64a1dfac5c1db00d6ac5ec6044836fc79d50b2e3f8bbded15a02ff54c1f",
    "halving/mirror": "eca4300790f70781b176da86db1ca81b08d6c1db7df95a66756955cbe05e34b9",
    "halving/median-lb": "8dcc0e3a98754d732967d533fe5070eb4f58eecb65a490d580b0c9c807ea9d50",
    "halving/sequence": "67808e29fdc7dd7ee86667f35731094e57d8a3a9dd000d14b019a125343b6823",
    "halving/amplified-mirror": "5ad313cd2c85a02e0187a1ece3aceed1b6fdeb8552f4d15f9f7a187be07a2593",
    "halving/amplified-amplified-mirror": "f2982e5adc897ee7ece095832a736106e14be97c1bedafcfe3703498341128c9",
    "stochastic-cdf/mirror": "3a82e304ae43e80a0f7cb9e8406f99779463685e1a742447e466d5b3a7cb1aec",
    "stochastic-cdf/median-lb": "0ab46a1ea0659f5aa73554008865555647830e3002d801f359c5370e96476ed6",
    "stochastic-cdf/sequence": "e6c1a465af18792b2252b52f0917c6d904687ac3fe7c619213e492101878a484",
    "stochastic-cdf/amplified-mirror": "7ddb532648533af0c6cc0394e8d05eced344c4746d6b6e9138466feffd4ed9a3",
    "stochastic-cdf/amplified-amplified-mirror": "9fb851027c35b9325922926ed531f93bad0d962a3a04557bc83fd795719ef19d",
}


def trajectory_digest(algorithm: str, adversary: str) -> str:
    config = GameConfig(
        n=N, horizon=HORIZON, algorithm=algorithm, adversary=ADVERSARIES[adversary], seed=SEED
    )
    trajectory = run_game(config)
    h = hashlib.sha256()
    for name in COLUMNS:
        column = np.ascontiguousarray(getattr(trajectory, name))
        h.update(f"{name}:{column.dtype.str}:{column.shape}:".encode())
        h.update(column.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_round_loop_outputs_match_the_recorded_digests(key):
    _check_numpy()
    algorithm, adversary = key.split("/")
    assert trajectory_digest(algorithm, adversary) == DIGESTS[key], key


def test_every_matchup_is_pinned():
    assert set(DIGESTS) == {f"{alg}/{adv}" for alg in ALGORITHMS for adv in ADVERSARIES}


# Replayed matchups at T=2000: a cdf block holds 910 rounds at n=16, so each
# run spans three blocks (the booster's blocks hold a third as many rounds).
SUMMARY_RUNS, SUMMARY_EPSILON = 40, 0.2
SUMMARIES = {
    "cdfest/cdf": ("cdfest", "uniform", "cdf"),
    "cdfest/median": ("cdfest", "uniform", "median"),
    "quantile-0.75": (AlgorithmSpec("quantile", {"tau": 0.75}), "uniform", None),
    "quantile-0.25": (AlgorithmSpec("quantile", {"tau": 0.25}), "uniform", None),
    "boosted-cdfest": (
        AlgorithmSpec("boosted", {"delta": 0.25, "copies": 3, "inner": "cdfest"}), "uniform", None
    ),
    "boosted-meanest": (AlgorithmSpec("boosted", {"delta": 0.25, "copies": 3}), "uniform", None),
    # i.i.d. segments on one rng are plain uniform play, so this pins the
    # amplifier's batch path to the plain stream; coin segments each differ
    "cdfest/amplified-uniform": ("cdfest", AdversarySpec("amplified", {"inner": "uniform"}), None),
    "cdfest/amplified-coin": ("cdfest", AdversarySpec("amplified", {"inner": "coin"}), None),
}
SUMMARY_FIELDS = (
    "mean_error", "mse", "success_rate", "final_errors", "anytime_rate",
    "index_mse", "index_mse_stderr", "success_at_horizon", "success_anytime",
)

SUMMARY_DIGESTS = {
    "boosted-cdfest": "fc88c50a7e84ff2c303c2cad85a3f145aeaeb6358c36e8ff4545a30d84a08aaa",
    "boosted-meanest": "21d1d82af33b41035d1bce07b5fe74c82877a084a50460e780bf4fc2ea677a3d",
    "cdfest/amplified-coin": "4c8a1bbe7f5eff56e431746c8ef7df1e1063642a70d808f15b50aa2b21e13775",
    "cdfest/amplified-uniform": "91220f31598feb02321f7003f92faaa9e651a7752e77ba86ab84c7c49aafe246",
    "cdfest/cdf": "91220f31598feb02321f7003f92faaa9e651a7752e77ba86ab84c7c49aafe246",
    "cdfest/median": "a7f56efad4a03ea299969c967bf852827df0fc17b674a28fb96ba52a94377a78",
    "quantile-0.25": "48b7095c39d10816033d2ba79620a9fbb307ac31afcac0f39eaf3cfcd67bcaf2",
    "quantile-0.75": "d755d273afd7564c2828a4dd82f44017075addfffb0717491e64b444d7192dea",
}

SEARCHES = {
    "cdfest/uniform": (GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=SEED), 0.2),
    "meanest/mirror": (GameConfig(n=8, horizon=1, algorithm="meanest", adversary="mirror", seed=SEED), 0.1),
}
SEARCH_RUNS = 200

SEARCH_DIGESTS = {
    "cdfest/uniform": "8327d02a629ef1aed8771650cdde27876bd9235903f0ddfabf5ae829611c5373",
    "meanest/mirror": "04d32469e0efb5aa870a9247168105e1452a960a57d0c82dc97359f489fdf1d5",
}


def _update(h, name: str, value) -> None:
    if value is None or isinstance(value, float):
        h.update(f"{name}:{value!r};".encode())
        return
    column = np.ascontiguousarray(value)
    h.update(f"{name}:{column.dtype.str}:{column.shape}:".encode())
    h.update(column.tobytes())


def summary_digest(key: str, workers: int = 1) -> str:
    algorithm, adversary, metric = SUMMARIES[key]
    config = GameConfig(
        n=N, horizon=HORIZON, algorithm=algorithm, adversary=adversary, metric=metric, seed=SEED
    )
    summary = monte_carlo(config, SUMMARY_RUNS, epsilon=SUMMARY_EPSILON, workers=workers)
    h = hashlib.sha256()
    for name in SUMMARY_FIELDS:
        _update(h, name, getattr(summary, name))
    return h.hexdigest()


def search_digest(key: str) -> str:
    config, epsilon = SEARCHES[key]
    est = estimate_query_complexity(config, epsilon, runs=SEARCH_RUNS)
    return hashlib.sha256(repr((est.t_hat, est.resolved, est.curve)).encode()).hexdigest()


def _check_numpy():
    if np.__version__ != RECORDED_NUMPY:
        pytest.fail(
            f"digests were recorded with numpy {RECORDED_NUMPY}, this is numpy "
            f"{np.__version__}; check the change of streams and print new digests"
        )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", sorted(SUMMARY_DIGESTS))
def test_monte_carlo_summaries_match_the_recorded_digests(key, workers):
    _check_numpy()
    assert summary_digest(key, workers) == SUMMARY_DIGESTS[key], key


@pytest.mark.parametrize("key", sorted(SEARCH_DIGESTS))
def test_search_results_match_the_recorded_digests(key):
    _check_numpy()
    assert search_digest(key) == SEARCH_DIGESTS[key], key


def test_every_summary_and_search_is_pinned():
    assert set(SUMMARY_DIGESTS) == set(SUMMARIES) and set(SEARCH_DIGESTS) == set(SEARCHES)


if __name__ == "__main__":
    print(f'RECORDED_NUMPY = "{np.__version__}"')
    for alg in ALGORITHMS:
        for adv in ADVERSARIES:
            print(f'    "{alg}/{adv}": "{trajectory_digest(alg, adv)}",')
    for key in sorted(SUMMARIES):
        print(f'    "{key}": "{summary_digest(key)}",')
    for key in sorted(SEARCHES):
        print(f'    "{key}": "{search_digest(key)}",')
