import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from seqpa import bounds, harness, shtarkov
from seqpa.cli import main
from seqpa.experts import LOGISTIC


def test_bound_subcommand(capsys):
    assert main(["bound", "--kind", "lipschitz-upper", "--T", "100",
                 "--d", "1", "--R", "1", "--L", "1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "kind,params,value"
    value = float(out[1].split(",")[-1])
    assert value == pytest.approx(math.log(201) + 2)


def _error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1, captured.err  # one line, no traceback
    return lines[0]


def test_bound_subcommand_rejects_unknown_parameter(capsys):
    assert main(["bound", "--kind", "lipschitz-upper", "--T", "100", "--d", "1",
                 "--R", "1", "--L", "1", "--alpha", "0.1"]) == 2
    assert _error_line(capsys) == ("seqpa bound: error: bound 'lipschitz-upper' does not "
                                   "take parameters ['alpha']; it takes ['L', 'R', 'T', 'd']")


def test_bound_subcommand_rejects_fractional_integer(capsys):
    assert main(["bound", "--kind", "cover-size", "--T", "100", "--alpha", "0.1",
                 "--dfat", "2.5"]) == 2
    assert _error_line(capsys) == ("seqpa bound: error: bound parameter dfat must be an "
                                   "integer, got 2.5")
    assert main(["bound", "--kind", "cover-size", "--T", "100", "--alpha", "0.1",
                 "--dfat", "2"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "cover-size,T=100,alpha=0.1,dfat=2,1115251"


_BOUND_ARGS = {"T": 100, "d": 2, "s": 2, "R": 1, "L": 1, "C": 0.25, "alpha": 0.1,
               "cover_size": 50, "dfat": 3}


@pytest.mark.parametrize("kind", sorted(bounds.BOUND_KINDS))
def test_bound_subcommand_matches_registry_for_every_kind(kind, capsys):
    required, _ = bounds.BOUND_PARAMETERS[kind]
    params = {name: _BOUND_ARGS[name] for name in required}
    argv = ["bound", "--kind", kind]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    assert main(argv) == 0
    cols = ",".join(f"{k}={params[k]:.12g}" for k in sorted(params))
    value = bounds.evaluate_bound(kind, **params)
    assert capsys.readouterr().out == f"kind,params,value\n{kind},{cols},{value:.12g}\n"


def test_shtarkov_subcommand(capsys):
    assert main(["shtarkov", "--oracle", "constant-bernoulli", "--T", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    ln_s = float(out[1].split(",")[4])
    assert ln_s == pytest.approx(math.log(2.5))


def _interval_line():
    ln_s = shtarkov.shtarkov_sum(shtarkov.IntervalBernoulli(0.2, 0.7), 50)
    return f"interval-bernoulli,50,1,1,{ln_s:.12g},,ok"


def _power_line():
    ln_s, env = shtarkov.ds_lower_bound(20, 2.0)
    assert ln_s >= env
    return f"power-family,20,1,2,{ln_s:.12g},{env:.12g},ok"


def _block_line():
    ln_s = shtarkov.block_shtarkov_lower(2, 40, LOGISTIC, 2.0)
    env = bounds.glm_lower(40, 2, 2.0)
    assert ln_s < env
    return f"block-glm,40,2,2,{ln_s:.12g},{env:.12g},below-pure-leading-term"


@pytest.mark.parametrize("argv, expected", [
    (["--oracle", "interval-bernoulli", "--T", "50", "--interval", "0.2,0.7"], _interval_line),
    (["--oracle", "power-family", "--T", "20", "--s", "2"], _power_line),
    (["--oracle", "block-glm", "--T", "40", "--d", "2", "--s", "2"], _block_line),
])
def test_shtarkov_subcommand_lines_match_library(argv, expected, capsys):
    assert main(["shtarkov"] + argv) == 0
    assert capsys.readouterr().out == f"oracle,T,d,s,ln_S,formula_bound,verdict\n{expected()}\n"


@pytest.mark.parametrize("value", ["0.2", "0.2,0.3,0.4", "a,b"])
def test_shtarkov_rejects_malformed_interval(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shtarkov", "--oracle", "interval-bernoulli", "--T", "4", "--interval", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().split("\n")[-1]
    assert err == (f"seqpa shtarkov: error: argument --interval: expected lo,hi "
                   f"(two numbers), got {value!r}")


def test_cover_subcommand(capsys):
    assert main(["cover", "--family", "logistic", "--d", "1", "--R", "1",
                 "--L", "1", "--alpha", "0.1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    size, bound = (float(v) for v in out[1].split(",")[-2:])
    assert size <= bound


def test_predict_subcommand_exit_code(capsys, tmp_path):
    rc = main(["predict", "--family", "logistic", "--algorithm", "smooth_bayes",
               "--T", "8", "--d", "1", "--adversary", "greedy", "--seed", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digest,family,predictor,adversary")


def test_predict_without_out_writes_transcript_to_stdout(capsys):
    assert main(["predict", "--T", "8", "--d", "2", "--adversary", "iid:0.5",
                 "--seed", "3"]) == 0
    cell = {"family": "logistic", "algorithm": "smooth_bayes", "T": "8", "d": "2",
            "R": "1.0", "L": "1.0", "alpha": "auto", "adversary": "iid:0.5",
            "features": "ball", "seed": "3"}
    row, transcript = harness.run_experiment(cell)
    assert capsys.readouterr().out == (",".join(harness.ReportRow.CSV_FIELDS) + "\n"
                                       + row.csv_line() + "\n" + transcript.to_csv_string())


def test_bench_subcommand(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[grid]\nfamily = logistic\nalgorithm = smooth_bayes\n"
                   "T = 8\nd = 1\nadversary = greedy\nseed = 0\n")
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


# sha256 of summary.csv for scripts/bench_small.cfg.  summary.csv bytes stay
# fixed: a change that moves a digit updates this pin and explains the move
# in CHANGES.md.
BENCH_SMALL_SUMMARY_SHA256 = "932757196b98ca0417dfdea7c79622893594ade9b38cc142b513c102ab867db5"


def test_bench_small_summary_bytes_pinned(tmp_path):
    config = Path(__file__).resolve().parents[1] / "scripts" / "bench_small.cfg"
    assert main(["bench", "--config", str(config), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest()
    assert digest == BENCH_SMALL_SUMMARY_SHA256


def test_unknown_bound_kind_errors():
    with pytest.raises(SystemExit):
        main(["bound", "--kind", "nope"])


def test_bench_subcommand_reports_bad_cell(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[grid]\nfamily = logistic\nalgorithm = nope\n"
                   "T = 8\nd = 1\nadversary = greedy\nseed = 0\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == "seqpa bench: error: unknown algorithm 'nope'"


def test_bench_subcommand_reports_the_first_bad_cell(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[grid]\nfamily = logistic\nalgorithm = smooth_bayes\nT = 8, 16\n"
                   "d = 1\nadversary = greedy, bogus, iid:0.5, worse\nseed = 0\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == "seqpa bench: error: unknown adversary 'bogus'"


def test_bench_subcommand_reports_an_infinite_hessian_bound(capsys, tmp_path):
    # C = inf passes the harness's check against the features; continuous_bayes
    # refuses it with a ValueError, not an OverflowError traceback in a worker
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[grid]\nfamily = logistic\nalgorithm = continuous_bayes\n"
                   "T = 8\nd = 1\nC = inf\nadversary = greedy\nseed = 0\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert _error_line(capsys) == ("seqpa bench: error: Hessian bound must be a positive "
                                   "finite number, got inf")


def test_predict_subcommand_reports_bad_adversary(capsys):
    assert main(["predict", "--T", "8", "--adversary", "nope"]) == 2
    assert _error_line(capsys) == "seqpa predict: error: unknown adversary 'nope'"


@pytest.mark.parametrize("argv", [["cover", "--family", "probit", "--alpha", "0.1"],
                                  ["predict", "--family", "probit", "--T", "8"]])
def test_single_valued_knobs_reject_other_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'probit'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["shtarkov", "--oracle", "interval-bernoulli", "--T", "4"],
     "seqpa shtarkov: error: --oracle interval-bernoulli needs --interval lo,hi"),
    (["shtarkov", "--oracle", "block-glm", "--T", "8", "--d", "0"],
     "seqpa shtarkov: error: d must be a positive integer, got 0"),
    (["shtarkov", "--oracle", "constant-bernoulli", "--T", "-1"],
     "seqpa shtarkov: error: T must be a nonnegative integer, got -1"),
    (["predict", "--T", "8", "--d", "0"],
     "seqpa predict: error: T and d must be positive integers, got T=8, d=0"),
    (["predict", "--T", "0"],
     "seqpa predict: error: T and d must be positive integers, got T=0, d=1"),
    (["shtarkov", "--oracle", "interval-bernoulli", "--T", "4", "--interval", "0.7,0.2"],
     "seqpa shtarkov: error: interval lo=0.7 is above hi=0.2"),
    (["bound", "--kind", "cover-size", "--T", "10", "--alpha", "0", "--dfat", "1"],
     "seqpa bound: error: need T>=0, alpha in (0,1)"),
    (["bound", "--kind", "cover-size", "--T", "10", "--alpha", "-0.5", "--dfat", "1"],
     "seqpa bound: error: need T>=0, alpha in (0,1)"),
    (["bound", "--kind", "cover-size", "--T", "-3", "--alpha", "0.1", "--dfat", "1"],
     "seqpa bound: error: need T>=0, alpha in (0,1)"),
    (["predict", "--features", "block", "--T", "9", "--d", "2"],
     "seqpa predict: error: block design needs d | T (got T=9, d=2)"),
    # a bad ball or Lipschitz constant used to crash with a traceback, or
    # (s = nan) print a 2-member cover
    (["cover", "--R", "inf", "--alpha", "0.1"],
     "seqpa cover: error: ball radius must be a positive finite number, got inf"),
    (["cover", "--R", "nan", "--alpha", "0.1"],
     "seqpa cover: error: ball radius must be a positive finite number, got nan"),
    (["cover", "--L", "inf", "--alpha", "0.1"],
     "seqpa cover: error: Lipschitz constant must be a positive finite number, got inf"),
    (["cover", "--L", "nan", "--alpha", "0.1"],
     "seqpa cover: error: Lipschitz constant must be a positive finite number, got nan"),
    (["cover", "--s", "nan", "--alpha", "0.1"],
     "seqpa cover: error: ball norm order must be at least 1, got nan"),
    (["cover", "--d", "3", "--alpha", "0.005"],
     "seqpa cover: error: a lattice of 349^3 = 42508549 points is over the cap 10000000"),
    # alpha / L is subnormal: the half-axis is judged as a float, not overflowed
    (["cover", "--L", "1e308", "--alpha", "0.1"],
     "seqpa cover: error: a lattice half-axis of inf points is over the cap 10000000"),
    # alpha / L underflows to 0: an infinite half-axis, not a ZeroDivisionError
    (["cover", "--L", "1e300", "--alpha", "1e-100"],
     "seqpa cover: error: a lattice half-axis of inf points is over the cap 10000000"),
])
def test_bad_sizes_and_missing_interval_are_reported(argv, line, capsys):
    assert main(argv) == 2
    assert _error_line(capsys) == line


def test_main_leaves_the_numpy_error_state_alone(capsys):
    with np.errstate(over="raise"):
        before = np.geterr()
        assert main(["bound", "--kind", "lipschitz-upper", "--T", "100", "--d", "1",
                     "--R", "1", "--L", "1"]) == 0
        assert np.geterr() == before


def test_block_glm_rejects_a_horizon_d_does_not_divide(capsys):
    # a T that d does not divide is an error, not the row of d * floor(T / d)
    assert main(["shtarkov", "--oracle", "block-glm", "--T", "41", "--d", "2", "--s", "2"]) == 2
    assert _error_line(capsys) == "seqpa shtarkov: error: block design needs d | T (got T=41, d=2)"
