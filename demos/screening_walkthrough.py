"""Screen one simulated survival dataset, step by step.

Generates a proportional-hazards dataset where only the first five of
300 covariates drive the event time, runs the HSIC ranking on the
censored observations, and inspects how early the active covariates
appear. Also compares against the distance-correlation utility.
"""

import argparse

import numpy as np

from survscreen import (
    GAUSSIAN_DEFAULT,
    SimScenario,
    dc_utility,
    default_cutoff,
    generate,
    min_model_size,
    rank_positions,
    screen,
)
from survscreen.screening import rank_utilities


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=150, help="sample size")
    parser.add_argument("--p", type=int, default=300, help="number of covariates")
    parser.add_argument("--seed", type=int, default=3, help="scenario seed")
    args = parser.parse_args()

    scenario = SimScenario(
        model="cox", n=args.n, p=args.p, censoring="random", target_cr=0.2,
        seed=args.seed,
    )
    data = generate(scenario, replication=0).dataset
    active = scenario.active_set
    print(f"dataset: n = {data.n}, p = {data.p}")
    print(f"censoring fraction: {float(np.mean(data.status == 0)):.3f}")
    print(f"active covariates (0-based): {active}")

    result = screen(data, spec_z=GAUSSIAN_DEFAULT, spec_y=GAUSSIAN_DEFAULT)
    print(f"\ndefault cutoff d_n = {result.d_n} "
          f"(floor of n / ln n = {default_cutoff(data.n)})")

    print("\ntop 10 covariates by HSIC utility:")
    for position, k in enumerate(result.ranking[:10], start=1):
        mark = " <-- active" if int(k) in active else ""
        print(f"  rank {position:2d}: z{int(k) + 1:<4d} "
              f"omega = {result.omega[k]:.6f}{mark}")

    positions = rank_positions(result.ranking, active)
    s = min_model_size(result.ranking, active)
    print(f"\nranks of the active covariates: "
          f"{sorted(positions.values())}")
    print(f"minimum model size S = {s} "
          f"(ideal is {len(active)}; anything <= d_n means a sure screen)")
    kept = [int(k) in result.selected for k in active]
    print(f"all active covariates kept at d_n: {all(kept)}")

    # The distance-correlation utility ranks with the same convention and
    # usually agrees on the strong signals.
    omega_dc = dc_utility(data)
    ranking_dc = rank_utilities(omega_dc, data.n).ranking
    s_dc = min_model_size(ranking_dc, active)
    print(f"\ndistance correlation: minimum model size S = {s_dc}")
    overlap = len(set(map(int, result.ranking[:10])) & set(map(int, ranking_dc[:10])))
    print(f"overlap of the two top-10 lists: {overlap}/10")


if __name__ == "__main__":
    main()
