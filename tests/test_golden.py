"""Round-loop outputs pinned as SHA-256 digests.

Each digest covers the run_game columns (queries, samples, feedback, errors,
estimates) of one matchup that plays the round loop: an algorithm without
batch methods against an adaptive, phased, replayed or amplified adversary.
The digests were recorded with numpy RECORDED_NUMPY. numpy may change its
Generator streams between releases, so on another version the test fails
and names both versions instead of passing or failing on stream noise.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import numpy as np
import pytest

from threshold_arena import AdversarySpec, GameConfig, run_game

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
    if np.__version__ != RECORDED_NUMPY:
        pytest.fail(
            f"digests were recorded with numpy {RECORDED_NUMPY}, this is numpy "
            f"{np.__version__}; check the change of streams and print new digests"
        )
    algorithm, adversary = key.split("/")
    assert trajectory_digest(algorithm, adversary) == DIGESTS[key], key


def test_every_matchup_is_pinned():
    assert set(DIGESTS) == {f"{alg}/{adv}" for alg in ALGORITHMS for adv in ADVERSARIES}


if __name__ == "__main__":
    print(f'RECORDED_NUMPY = "{np.__version__}"')
    for alg in ALGORITHMS:
        for adv in ADVERSARIES:
            print(f'    "{alg}/{adv}": "{trajectory_digest(alg, adv)}",')
