import json

import pytest

from fig8torsion.cli import main
from fig8torsion.surgery import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_riley_pretty(capsys):
    code, out, _ = run(capsys, "riley", "--s", "1,0")
    assert code == 0
    assert "branch +" in out and "branch -" in out
    assert "0.866" in out


def test_riley_json(capsys):
    code, out, _ = run(capsys, "riley", "--s", "2,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    assert {pt["branch"] for pt in data} == {"+", "-"}
    assert all(set(pt) == {"s", "t", "branch", "residual"} for pt in data)


def test_riley_singular_exit_2(capsys):
    code, _, err = run(capsys, "riley", "--s", "0,0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [("torsion", "--s", "nan,0"),
                                  ("riley", "--s", "inf,0"),
                                  ("torsion", "--s", "1e200,0"),
                                  ("riley", "--s", "1e200,0"),
                                  ("riley", "--s", "1e50,0"),
                                  ("torsion", "--s", "1e35,0.3")])
def test_non_finite_or_overflow_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert "Traceback" not in err


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["riley", "--s", "not-a-number"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [("verify", "--format", "json"),
                                  ("riley", "--s", "1,0",
                                   "--tol-compare", "1e-3")])
def test_unread_flag_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_torsion_pretty(capsys):
    code, out, _ = run(capsys, "torsion", "--s", "1,0", "--branch", "+")
    assert code == 0
    assert "tau(M)" in out and "-0.5" in out
    # all five torsion quantities present
    for label in ("closed form", "Fox oracle", "trace", "u form", "tau(M)"):
        assert label in out


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "--s", "2,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["u"]["re"] - 2.5) < 1e-12
    assert data["flags"]["product_identity"] == "pass"


def test_torsion_degenerate_annotated(capsys):
    golden = (1 + 5 ** 0.5) / 2      # u = sqrt(5)
    code, out, _ = run(capsys, "torsion", "--s", f"{golden},0")
    assert code == 0
    assert "degenerate" in out
    assert "omitted" in out


def test_surgery_empty(capsys):
    code, out, _ = run(capsys, "surgery", "--p", "1", "--q", "0")
    assert code == 0
    assert "0 solution(s)" in out


def test_surgery_invalid_slope(capsys):
    code, _, err = run(capsys, "surgery", "--p", "6", "--q", "4")
    assert code == 2
    assert "error" in err


def test_surgery_slope_bound_exit_2(capsys):
    # 1/101 needs a degree-808 surgery polynomial, past the CLI's 800
    code, out, err = run(capsys, "surgery", "--p", "1", "--q", "101")
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert "Traceback" not in err


def test_surgery_csv(capsys):
    code, out, _ = run(capsys, "surgery", "--p", "1", "--q", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1


def test_verify_fixtures_only(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--samples", "25", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--samples", "25", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "seed": 8}))
    code, out, _ = run(capsys, "riley", "--s", "2,0", "--config", str(cfg))
    assert code == 0
    json.loads(out)     # format taken from config file
    # flags win over the file
    code, out, _ = run(capsys, "riley", "--s", "2,0", "--config", str(cfg),
                       "--format", "csv")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
