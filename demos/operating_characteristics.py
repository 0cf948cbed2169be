"""Watch simulated rejection rates converge to the closed-form power.

For the proportional-hazards planning scenario at the median, runs a
batch of replicated trials per (effect size, sample size) cell and prints
the empirical rejection rate next to the closed-form prediction. Replicate
k draws only from the master seed and k, and replicates run one after
another, so the numbers below are exactly reproducible.

Run: python3 demos/operating_characteristics.py
"""

import time

from survquant import SimulationPlan, empirical_rejection, scenario_from_delta

REPLICATIONS = 500

print(f"R={REPLICATIONS}, control Exp(1.5), censoring Exp(0.48), p=0.5\n")
print(f"{'delta':>6} {'n/arm':>6} {'formula':>8} {'empirical':>10} "
      f"{'mc se':>7} {'failures':>9} {'seconds':>8}")

for delta in (0.0, 0.1, 0.2):
    scenario = scenario_from_delta(1.5, 0.5, delta, censoring_rate=0.48)
    for n in (50, 200, 500):
        plan = SimulationPlan(
            scenario=scenario,
            n_per_group=n,
            probabilities=(0.5,),
            replications=REPLICATIONS,
            master_seed=7,
        )
        start = time.perf_counter()
        report = empirical_rejection(plan)
        elapsed = time.perf_counter() - start
        print(f"{delta:>6} {n:>6} {report.formula_power:>8.3f} "
              f"{report.rate:>10.3f} {report.mc_se:>7.3f} "
              f"{report.n_failures:>9d} {elapsed:>8.2f}")
    print()

print("The formula is asymptotic. At n=500 each empirical rate sits within")
print("a couple of Monte Carlo standard errors of its formula column; at")
print("n=50 the default tuning deliberately over-smooths the density")
print("estimate, so the test under-rejects, holding the level with room to")
print("spare at the price of lagging the asymptotic power. Failures count")
print("replicates where the requested quantile was not estimable at all;")
print("they are excluded from the rate's denominator and flagged past 5%.")
