"""Build the hard Lipschitz family and print its certificate.

Constructs the codebook-based family at the standard scale (alpha =
16 ln T / T), verifies the pairwise Hamming separation, and Monte-Carlo
estimates the misidentification probability against the analytic
union bound.  The Monte Carlo draws in fixed row blocks, so a larger
--trials costs time but no more memory.  A bad size (e.g. --trials 0)
prints one error line and exits 2.

Usage: python scripts/hard_class_report.py [--T 2048] [--trials 10000]
"""

import argparse
import math

from seqpa.experts import build_hard_lipschitz_class
from seqpa.shtarkov import hard_class_certificate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--T", type=int, default=2048)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    alpha = 16 * math.log(args.T) / args.T
    try:
        fam, cb = build_hard_lipschitz_class(d=1, T=args.T, R=1.0, L=1.0,
                                             alpha=alpha, seed=args.seed)
        rep = hard_class_certificate(fam, cb, trials=args.trials,
                                     seed=args.seed, d=1)
    except ValueError as exc:
        ap.error(str(exc))
    print(f"T                = {args.T}")
    print(f"alpha            = {alpha:.6f}")
    print(f"sources M        = {rep.n_sources}")
    print(f"min Hamming      = {rep.min_hamming} (threshold {rep.hamming_threshold})")
    print(f"MC error         = {rep.mc_error:.3e} +/- {rep.mc_std_err:.1e}")
    print(f"analytic bound   = {rep.analytic_error_bound:.3e}")
    print(f"implied regret  >= {rep.implied_lower_bound:.4f} nats (= ln(M/2))")
    print(f"informative      = {rep.informative}")


if __name__ == "__main__":
    main()
