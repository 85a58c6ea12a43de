"""Round-loop, Monte Carlo and search outputs pinned as SHA-256 digests.

Each round-loop digest covers the run_game columns (queries, samples,
feedback, errors, estimates) of one matchup that plays the round loop: an
algorithm without batch methods against an adaptive, phased, replayed or
amplified adversary. Each Monte Carlo digest covers every field of one
monte_carlo summary of a replayed matchup whose runs span several scoring
blocks, and must come out the same at 1 and 2 workers. Each search digest
covers (t_hat, resolved, curve) of one estimate_query_complexity call, and
the complexity digest the bytes of the complexity.json that the
`threshold-arena complexity` command writes, at 1 and 2 workers. Each
kernel digest covers one result of noisy_binary_search, boosted_quantile
or stochastic_cdf against a step oracle or a seeded pmf oracle: the index,
queries and capped flag, the trial indices, the anchors, and the bytes of
the stitched estimate.
The digests were recorded with numpy RECORDED_NUMPY. numpy may change its
Generator streams between releases, so on another version the test fails
and names both versions instead of passing or failing on stream noise.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from threshold_arena import cli
from threshold_arena import (
    AdversarySpec,
    AlgorithmSpec,
    GameConfig,
    StochasticCdfResult,
    boosted_quantile,
    estimate_query_complexity,
    monte_carlo,
    noisy_binary_search,
    run_game,
    stochastic_cdf,
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

COMPLEXITY_ARGS = ["complexity", "--algo", "cdfest", "--adv", "uniform", "--n", "4,8", "--eps", "0.2",
                   "--runs", "200"]
COMPLEXITY_DIGEST = "4816d0655b55865288bddff7faa3f1996f13b6f1a3eea7f3eb130f5e8ec03afe"


# The search kernel on its own. A step oracle's search path is deterministic;
# a pmf oracle draws one sample per call from a Dirichlet pmf on {1..n} with
# no mass at n+1 (the stochastic_cdf domain), so its tau = 1 search runs to
# the budget and comes back capped.
KERNEL_SIZES, KERNEL_TAUS = (1, 64, 1024), (0.0, 0.125, 0.5, 1.0)


def _step_oracle(n: int):
    k = n // 3 + 1
    return lambda i, rng: 1 if i >= k else 0


def _pmf_oracle(n: int):
    cum = np.cumsum(np.random.default_rng(n).dirichlet(np.ones(n)))
    cum[-1] = 1.0

    def oracle(q, rng):
        x = int(cum.searchsorted(rng.random(), side="right")) + 1
        return 1 if x <= q else 0

    return oracle


# key: (function, oracle builder, n, keyword arguments)
KERNELS = {
    **{
        f"search/{kind}/n={n}/tau={tau}": (noisy_binary_search, make, n, {"tau": tau})
        for kind, make in (("step", _step_oracle), ("pmf", _pmf_oracle))
        for n in KERNEL_SIZES
        for tau in KERNEL_TAUS
    },
    "boosted/n=64/tau=0.25": (boosted_quantile, _pmf_oracle, 64, {"tau": 0.25}),
    "boosted/n=64/tau=0.75": (boosted_quantile, _pmf_oracle, 64, {"tau": 0.75}),
    "boosted/n=16/tau=0.5/budget=6": (boosted_quantile, _pmf_oracle, 16, {"tau": 0.5, "budget": 6}),
    **{f"stochastic-cdf/n={n}": (stochastic_cdf, _pmf_oracle, n, {}) for n in (16, 64, 1024)},
}

KERNEL_DIGESTS = {
    "boosted/n=16/tau=0.5/budget=6": "14c0b578203bcf8f244e4960b5c45f3afd3f21cc9ad469bae7b3df0dcacfb414",
    "boosted/n=64/tau=0.25": "ccd0dc177e9e1a32193884063f2dbead42dbf965e501a12a6898bf6888767ead",
    "boosted/n=64/tau=0.75": "b9e28e5fb143b2ab3f68e379d172e8546fd70820652f67e3c517751d7facabb0",
    "search/pmf/n=1/tau=0.0": "5d262ebbe315e55066875422e08ea3de324c18b589d879c4765c573fe6f716dc",
    "search/pmf/n=1/tau=0.125": "5d262ebbe315e55066875422e08ea3de324c18b589d879c4765c573fe6f716dc",
    "search/pmf/n=1/tau=0.5": "7c72ccbc47dbc7b97355ffc7224d9111ec7b74b83f88658063d801137658f27f",
    "search/pmf/n=1/tau=1.0": "e9a3ebf451b6e0b1954132109604da65e303171fbd43382c6a1b4b967e9d3207",
    "search/pmf/n=1024/tau=0.0": "ffad2eec56866846676ed036cc8cd8aaea8dd4f3287447f822ce663c5d1ff5ea",
    "search/pmf/n=1024/tau=0.125": "295c6fadc59f28f5f4f28f96e59231e0164af012e18ffe76651b45420a02c5a0",
    "search/pmf/n=1024/tau=0.5": "2fd5e3e16ad18ce3bd6d00292f3f951230d52e5ce7516660d56561065be26674",
    "search/pmf/n=1024/tau=1.0": "a6671ffd13c02e2f9e1a306bae522ddadd242c54d14904ecf90314dbe05109c8",
    "search/pmf/n=64/tau=0.0": "1da4d69101298353a1046f0973e3b51bf9e58933b70b607e08c99e798af15993",
    "search/pmf/n=64/tau=0.125": "ec5d1d7039f7c4bb08ab3306530cf26824c0cbd61cbe06c9b94f60a298139639",
    "search/pmf/n=64/tau=0.5": "03163be08c4a7017e45a85156f2cbda59af421880a69274b8dcfd4c95d45516c",
    "search/pmf/n=64/tau=1.0": "f68cab975f442853a955f3137154f2cf185c3390c278236f435ca4dedf3680b5",
    "search/step/n=1/tau=0.0": "5d262ebbe315e55066875422e08ea3de324c18b589d879c4765c573fe6f716dc",
    "search/step/n=1/tau=0.125": "5d262ebbe315e55066875422e08ea3de324c18b589d879c4765c573fe6f716dc",
    "search/step/n=1/tau=0.5": "7c72ccbc47dbc7b97355ffc7224d9111ec7b74b83f88658063d801137658f27f",
    "search/step/n=1/tau=1.0": "e9a3ebf451b6e0b1954132109604da65e303171fbd43382c6a1b4b967e9d3207",
    "search/step/n=1024/tau=0.0": "ffad2eec56866846676ed036cc8cd8aaea8dd4f3287447f822ce663c5d1ff5ea",
    "search/step/n=1024/tau=0.125": "9038b0fe3e533fca49abf9256b11a9082b7b7f1f7150db604909531fd1b281a2",
    "search/step/n=1024/tau=0.5": "c952934d08157a307549b5edef25e02f130a6341b21f00b172bc7d567dc6de0d",
    "search/step/n=1024/tau=1.0": "ffad2eec56866846676ed036cc8cd8aaea8dd4f3287447f822ce663c5d1ff5ea",
    "search/step/n=64/tau=0.0": "bd91670d554afee71a92dc618fb244bfabaa4f8a9e5142c46cb9701b1e02e57d",
    "search/step/n=64/tau=0.125": "11d47a19dbb4c7d22c6acdaf5140ce47aca526473b69f24e928be02e0188ec3d",
    "search/step/n=64/tau=0.5": "9de3d8e1d68fe91f189fe8f1c97905187dd516148473f3dcbe9929dc14f20a14",
    "search/step/n=64/tau=1.0": "bd91670d554afee71a92dc618fb244bfabaa4f8a9e5142c46cb9701b1e02e57d",
    "stochastic-cdf/n=1024": "f27e91a6e2dde636dc934cde495d7edafa8de98de8965baf4574f6704176c185",
    "stochastic-cdf/n=16": "923a58f35af634b81fa3e9129825113ea63ab35e15213138bddcb95bc1b0b75d",
    "stochastic-cdf/n=64": "d46d86adc571faf97e1d96d187fed0aa7c593606618bbcfff63b8eb157caa3bb",
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


def kernel_digest(key: str) -> str:
    function, make_oracle, n, kwargs = KERNELS[key]
    result = function(make_oracle(n), n, rng=np.random.default_rng(SEED), **kwargs)
    h = hashlib.sha256()
    if isinstance(result, StochasticCdfResult):
        h.update(repr((sorted(result.anchors.items()), result.queries, result.capped)).encode())
        _update(h, "estimate", result.estimate.values)
    else:  # the dataclass repr names every field: index, queries, capped, trial indices
        h.update(repr(result).encode())
    return h.hexdigest()


def complexity_digest(workers: int = 1) -> str:
    with tempfile.TemporaryDirectory() as out:
        args = COMPLEXITY_ARGS + ["--workers", str(workers), "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):  # the command's progress lines
            assert cli.main(args) == 0
        return hashlib.sha256((Path(out) / "complexity.json").read_bytes()).hexdigest()


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


@pytest.mark.parametrize("workers", [1, 2])
def test_complexity_json_matches_the_recorded_digest(workers, monkeypatch):
    _check_numpy()
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)  # the command's default seed, 0
    assert complexity_digest(workers) == COMPLEXITY_DIGEST


@pytest.mark.parametrize("key", sorted(KERNEL_DIGESTS))
def test_search_kernel_results_match_the_recorded_digests(key):
    _check_numpy()
    assert kernel_digest(key) == KERNEL_DIGESTS[key], key


def test_every_summary_and_search_is_pinned():
    assert set(SUMMARY_DIGESTS) == set(SUMMARIES) and set(SEARCH_DIGESTS) == set(SEARCHES)
    assert set(KERNEL_DIGESTS) == set(KERNELS)


if __name__ == "__main__":
    print(f'RECORDED_NUMPY = "{np.__version__}"')
    for alg in ALGORITHMS:
        for adv in ADVERSARIES:
            print(f'    "{alg}/{adv}": "{trajectory_digest(alg, adv)}",')
    for key in sorted(SUMMARIES):
        print(f'    "{key}": "{summary_digest(key)}",')
    for key in sorted(SEARCHES):
        print(f'    "{key}": "{search_digest(key)}",')
    for key in sorted(KERNELS):
        print(f'    "{key}": "{kernel_digest(key)}",')
    print(f'COMPLEXITY_DIGEST = "{complexity_digest()}"')
