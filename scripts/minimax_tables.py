"""Exact minimax regret values next to their closed-form bounds.

Prints the Bernoulli game value ln S_T for small horizons, the
power-mass family's exact sum against its closed-form lower bound, and
the block-design restricted sums with their fitted leading term.

Usage: python scripts/minimax_tables.py
"""

import math

from seqpa.bounds import glm_lower
from seqpa.experts import LOGISTIC
from seqpa.shtarkov import (
    ConstantBernoulliMLE,
    block_shtarkov_lower,
    ds_lower_bound,
    shtarkov_sum,
)


def main():
    print("Bernoulli ln S_T (exact) vs (1/2) ln T asymptote")
    for T in (1, 2, 4, 8, 16, 20):
        ln_s = shtarkov_sum(ConstantBernoulliMLE(), T)
        print(f"  T={T:>3}  ln S_T={ln_s:8.4f}   (1/2) ln T = {0.5 * math.log(T):7.4f}")

    print("\nPower-mass family: exact ln sum vs ((s+1)/(s e)) T^(s/(s+1))")
    for s in (1.0, 2.0):
        for T in (10, 100, 1000, 10000):
            exact, formula = ds_lower_bound(T, s)
            print(f"  s={s:.0f}  T={T:>6}  exact={exact:9.3f}  formula={formula:9.3f}")

    print("\nBlock-design restricted sums, logistic link: value vs (d/2) ln(T/d^((s+2)/s))")
    for s in (1.0, 2.0):
        for d in (2, 4, 8):
            T = d * 1024
            value = block_shtarkov_lower(d, T, LOGISTIC, s)
            lead = glm_lower(T, d, s)
            print(f"  s={s:.0f}  d={d}  T={T:>6}  value={value:8.3f}  lead={lead:8.3f}")


if __name__ == "__main__":
    main()
