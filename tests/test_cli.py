import hashlib
import math
from pathlib import Path

import pytest

from seqpa.cli import main


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


def test_shtarkov_subcommand(capsys):
    assert main(["shtarkov", "--oracle", "constant-bernoulli", "--T", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    ln_s = float(out[1].split(",")[4])
    assert ln_s == pytest.approx(math.log(2.5))


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


def test_predict_subcommand_reports_bad_adversary(capsys):
    assert main(["predict", "--T", "8", "--adversary", "nope"]) == 2
    assert _error_line(capsys) == "seqpa predict: error: unknown adversary 'nope'"


@pytest.mark.parametrize("argv", [["cover", "--family", "probit", "--alpha", "0.1"],
                                  ["predict", "--family", "probit", "--T", "8"],
                                  ["shtarkov", "--oracle", "block-glm", "--T", "8",
                                   "--link", "probit"]])
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
])
def test_bad_sizes_and_missing_interval_are_reported(argv, line, capsys):
    assert main(argv) == 2
    assert _error_line(capsys) == line
