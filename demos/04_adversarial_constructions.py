"""The opponents that make threshold-query estimation genuinely hard.

Three constructions, each the executable core of a hardness argument:

  * a family of distributions whose CDF sits at i/(n+1) +- epsilon, forcing
    any full-CDF learner to resolve n independent coin biases;
  * a two-phase opponent that plays family samples and then a random-length
    block of extremes, turning one median question into many quantile
    questions at once;
  * a constant sequence chosen by one fair coin flip, which uniform queriers
    cannot pin down until they happen to probe the right index.
"""

from fractions import Fraction

import numpy as np

import threshold_arena as ta


def main():
    # the perturbed staircase family
    n, eps = 8, Fraction(1, 20)
    pmf = ta.cdf_lb_family(n, eps, "+")
    print(f"staircase family, n={n}, epsilon={eps}, all signs +1:")
    print("  pmf:", [str(p) for p in pmf])
    print("  every CDF value sits exactly epsilon above i/(n+1); flipping any")
    print("  sign moves it below, and no comparison strategy can tell which")
    print("  without ~1/eps^2 flips at that index.\n")

    # two-phase median hardness: the mixture identity in action
    config = ta.MedianLbConfig(k=4, m=2, epsilon=Fraction(1, 64))
    adversary = ta.MedianLbAdversary(config, np.random.default_rng(3))
    # the opponent is oblivious: the past queries it is handed do not matter
    queries = np.ones(config.horizon, dtype=np.int64)
    samples = [adversary.next_sample(queries[:t]) for t in range(config.horizon)]
    full = ta.empirical_cdf(samples, config.n)
    half = ta.empirical_cdf(samples[: config.horizon // 2], config.n)
    j = adversary.j
    print(f"two-phase opponent: n={config.n}, horizon={config.horizon}, drew j={j}")
    print("  final CDF = 1/2 * first-phase CDF + (1/2 - j/2n) + j/2n at i=n, exactly:")
    for i in (config.k, 2 * config.k, config.n - 1, config.n):
        lhs = full.value(i)
        rhs = Fraction(1, 2) * half.value(i) + Fraction(1, 2) - Fraction(j, 2 * config.n) \
            + Fraction(j, 2 * config.n) * (i == config.n)
        print(f"    i={i:>2}: {lhs} == {rhs}  {'ok' if lhs == rhs else 'MISMATCH'}")
    print("  so a good final median is a good j/n-quantile of phase one, for a")
    print("  j the algorithm never saw coming.\n")

    # the constant coin
    config = ta.GameConfig(n=64, horizon=16, algorithm="cdfest", adversary="coin",
                           metric="median", seed=4)
    summary = ta.monte_carlo(config, 2000)
    fail = float(np.mean(summary.final_errors >= 0.25))
    print("constant-coin opponent (all 1s or all 2s, fair flip), n=64, T=16:")
    print(f"  uniform queriers fail (median error >= 1/4) in {fail:.1%} of runs;")
    print(f"  the chance of never probing index 1 in 16 tries is (63/64)^16 = "
          f"{(63 / 64) ** 16:.2f}, so ~{0.5 * (63 / 64) ** 16:.2f} failure is unavoidable.\n")

    # fixed-horizon hardness extends to anytime via 33x segments
    checkpoints = ta.amplifier_checkpoints(1)
    print("anytime amplifier segment checkpoints:", [next(checkpoints) for _ in range(5)])
    print("replaying a fixed-horizon opponent on segments that each cover 32x")
    print("all earlier play keeps a constant fraction of the damage alive forever.")


if __name__ == "__main__":
    main()
