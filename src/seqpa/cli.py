"""Command-line interface.

Subcommands: predict (one online run), shtarkov (sum / lower bounds),
bound (closed-form registry), cover (cover construction stats), bench
(experiment matrix from a config file).  A ValueError from any of them is
printed as `seqpa <cmd>: error: <message>` and exits 2.
"""

import argparse
import sys

import numpy as np

from . import bounds, harness, shtarkov
from .covering import grid_cover
from .experts import LOGISTIC, glm_family


def _add_predict(sub):
    p = sub.add_parser("predict", help="run one online experiment cell")
    p.add_argument("--family", default="logistic", choices=["logistic"])
    p.add_argument("--algorithm", default="smooth_bayes",
                   choices=["smooth_bayes", "continuous_bayes", "constant"])
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--alpha", default="auto")
    p.add_argument("--adversary", default="greedy")
    p.add_argument("--features", default="ball", choices=["ball", "block"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for the transcript CSV")


def _cmd_predict(args):
    cell = {"family": args.family, "algorithm": args.algorithm,
            "T": str(args.T), "d": str(args.d), "R": str(args.R),
            "L": str(args.L), "alpha": args.alpha,
            "adversary": args.adversary, "features": args.features,
            "seed": str(args.seed)}
    row, transcript = harness.run_experiment(cell, out_dir=args.out)
    print(",".join(harness.ReportRow.CSV_FIELDS))
    print(row.csv_line())
    if args.out is None:
        sys.stdout.write(transcript.to_csv_string())
    return 0 if row.ok else 1


def _add_shtarkov(sub):
    p = sub.add_parser("shtarkov", help="Shtarkov sums and lower bounds")
    p.add_argument("--oracle", required=True,
                   choices=["constant-bernoulli", "interval-bernoulli",
                            "power-family", "block-glm"])
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--link", default="logistic", choices=["logistic"])
    p.add_argument("--interval", default=None, help="lo,hi for interval-bernoulli")


def _cmd_shtarkov(args):
    formula = ""
    if args.oracle == "constant-bernoulli":
        ln_s = shtarkov.shtarkov_sum(shtarkov.ConstantBernoulliMLE(), args.T)
        verdict = "ok"
    elif args.oracle == "interval-bernoulli":
        if args.interval is None:
            raise ValueError("--oracle interval-bernoulli needs --interval lo,hi")
        lo, hi = (float(v) for v in args.interval.split(","))
        ln_s = shtarkov.shtarkov_sum(shtarkov.IntervalBernoulli(lo, hi), args.T)
        verdict = "ok"
    elif args.oracle == "power-family":
        ln_s, env = shtarkov.ds_lower_bound(args.T, args.s)
        formula = f"{env:.12g}"
        verdict = "ok" if ln_s >= env else "below-envelope"
    else:  # block-glm
        ln_s = shtarkov.block_shtarkov_lower(args.d, args.T, LOGISTIC, args.s)
        env = bounds.glm_lower(args.d * (args.T // args.d), args.d, args.s)
        formula = f"{env:.12g}"
        verdict = "ok" if ln_s >= env else "below-pure-leading-term"
    print("oracle,T,d,s,ln_S,formula_bound,verdict")
    print(f"{args.oracle},{args.T},{args.d},{args.s:.12g},{ln_s:.12g},{formula},{verdict}")
    return 0


_BOUND_PARAMETERS = ("T", "d", "s", "R", "L", "C", "alpha", "cover_size", "dfat", "c")


def _add_bound(sub):
    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--kind", required=True, choices=sorted(bounds.BOUND_KINDS))
    for name in _BOUND_PARAMETERS:
        p.add_argument(f"--{name}", type=float, default=None)


def _cmd_bound(args):
    params = {name: getattr(args, name) for name in _BOUND_PARAMETERS
              if getattr(args, name) is not None}
    value = bounds.evaluate_bound(args.kind, **params)
    cols = ",".join(f"{k}={params[k]:.12g}" for k in sorted(params))
    print("kind,params,value")
    print(f"{args.kind},{cols},{value:.12g}")
    return 0


def _add_cover(sub):
    p = sub.add_parser("cover", help="build a cover and report its size")
    p.add_argument("--family", default="logistic", choices=["logistic"])
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--size-cap", type=int, default=10 ** 7)


def _cmd_cover(args):
    fam = glm_family(d=args.d, R=args.R, s=args.s, lipschitz=args.L)
    cover = grid_cover(fam, args.alpha, size_cap=args.size_cap)
    size_bound = bounds.lattice_cover_size(args.d, args.R, args.L, args.alpha)
    print("family,d,alpha,size,size_bound")
    print(f"{args.family},{args.d},{args.alpha:.12g},{len(cover)},{size_bound:.12g}")
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="run an experiment matrix from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)


def _cmd_bench(args):
    rows, failed = harness.run_bench(args.config, args.out)
    for row in rows:
        print(row.csv_line())
    print(f"# {len(rows)} cells, {'FAIL' if failed else 'ok'}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="seqpa")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_predict(sub)
    _add_shtarkov(sub)
    _add_bound(sub)
    _add_cover(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)
    np.seterr(over="warn")
    handler = {"predict": _cmd_predict, "shtarkov": _cmd_shtarkov,
               "bound": _cmd_bound, "cover": _cmd_cover, "bench": _cmd_bench}
    try:
        return handler[args.command](args)
    except ValueError as exc:  # a bad value reported like argparse's own errors
        print(f"seqpa {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
