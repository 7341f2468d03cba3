import math

import pytest

from seqpa.cli import main


def test_bound_subcommand(capsys):
    assert main(["bound", "--kind", "lipschitz-upper", "--T", "100",
                 "--d", "1", "--R", "1", "--L", "1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "kind,params,value"
    value = float(out[1].split(",")[-1])
    assert value == pytest.approx(math.log(201) + 2)


def test_bound_subcommand_rejects_unknown_parameter():
    with pytest.raises(ValueError, match=r"does not take parameters \['alpha'\]"):
        main(["bound", "--kind", "lipschitz-upper", "--T", "100", "--d", "1",
              "--R", "1", "--L", "1", "--alpha", "0.1"])


def test_bound_subcommand_rejects_fractional_integer(capsys):
    with pytest.raises(ValueError, match="dfat must be an integer"):
        main(["bound", "--kind", "cover-size", "--T", "100", "--alpha", "0.1",
              "--dfat", "2.5"])
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


def test_unknown_bound_kind_errors():
    with pytest.raises(SystemExit):
        main(["bound", "--kind", "nope"])
