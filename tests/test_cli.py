import csv
import io
import json

import pytest

from fig8torsion import cli, verify
from fig8torsion.cli import MAX_VERIFY_SAMPLES, RILEY_CSV_HEADER, main
from fig8torsion.verify import CheckResult
from fig8torsion.formulas import REPORT_CSV_HEADER
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


@pytest.mark.parametrize("argv", [("torsion", "--s", "1e-9,0"),
                                  ("riley", "--s", "1e-7,0")])
def test_small_s_error_names_s(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "|s|" in errors[0]


@pytest.mark.parametrize("argv", [("torsion", "--s", "nan,0"),
                                  ("riley", "--s", "inf,0"),
                                  ("torsion", "--s", "1e200,0"),
                                  ("riley", "--s", "1e200,0"),
                                  ("riley", "--s", "1e50,0"),
                                  ("torsion", "--s", "1e35,0.3"),
                                  ("torsion", "--s", "-inf,0"),
                                  ("riley", "--s", "-nan,0"),
                                  ("torsion", "--s", "-Infinity,1")])
def test_non_finite_or_overflow_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert "Traceback" not in err


@pytest.mark.parametrize("s", ["1e20,0", "1e30,0"])
def test_boundary_product_overflow_exit_2(capsys, s):
    """Fox matrices with entries this large leave d o d = 0 to rounding:
    that is reported as an overflow, not as a malformed complex."""
    code, out, err = run(capsys, "torsion", "--s", s)
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines()
            if ln.startswith("error: numeric overflow")]


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["riley", "--s", "not-a-number"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", "-5"])
    assert exc.value.code == 1


def test_verify_samples_above_the_limit_exit_1(capsys, monkeypatch):
    """One past MAX_VERIFY_SAMPLES is a usage error, refused by the
    parser before a sample is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("run_all called")

    monkeypatch.setattr(cli, "run_all", no_draw)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", str(MAX_VERIFY_SAMPLES + 1)])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    errors = [ln for ln in out.err.splitlines() if "error:" in ln]
    assert errors == [f"fig8torsion verify: error: argument --samples: at "
                      f"most {MAX_VERIFY_SAMPLES} samples, got "
                      f"{MAX_VERIFY_SAMPLES + 1}"]


@pytest.mark.parametrize("argv, code", [
    (("verify", "--samples", "9" * 5000), 1),
    (("verify", "--samples", "9" * 400), 1),
    (("verify", "--seed", "9" * 5000), 1),
    (("surgery", "--p", "9" * 5000, "--q", "1"), 1),
    (("surgery", "--p", "1", "--q", "-" + "9" * 5000), 1),
    (("surgery", "--p", "x" * 5000, "--q", "1"), 1),
    (("surgery", "--p", "9" * 400, "--q", "1"), 2),
    (("surgery", "--p", "9" * 400, "--q", "3"), 2),
    (("riley", "--s", "x" * 5000), 1),
    (("torsion", "--s", "1," + "9" * 5000 + "x"), 1),
    (("torsion", "--s", "1,0", "--format", "x" * 300), 1),
    (("x" * 300,), 1),
    (("torsion", "--s", "1,0", "--", "x" * 300), 1),
    (("riley", "--s", "1,0", "x" * 300), 1),
    (("verify", "--s=" + "x" * 300), 1),
    (("riley", "--help=" + "x" * 300), 1)])
def test_over_long_integer_one_short_error_line(capsys, argv, code):
    """An integer flag over Python's 4300-digit int() limit, a valid
    count or slope hundreds of digits long, a bad re,im value thousands
    of characters long, or an input hundreds of characters long that
    argparse itself quotes (a choice, a subcommand, an unrecognized or
    ambiguous argument, an ignored explicit value) gives today's exit
    code and one short error line, which quotes at most 20 characters
    of the input and names no parser function."""
    try:
        assert main(list(argv)) == code
    except SystemExit as exc:
        assert exc.code == code
    out = capsys.readouterr()
    assert out.out == ""
    errors = [ln for ln in out.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and len(errors[0]) < 200, errors
    assert "parse_" not in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("argv, message", [
    (("surgery", "--p", "abc", "--q", "1"),
     "fig8torsion surgery: error: argument --p: invalid int value: 'abc'"),
    (("surgery", "--p", "1", "--q", "1.5"),
     "fig8torsion surgery: error: argument --q: invalid int value: '1.5'"),
    (("verify", "--seed", "-3"), "fig8torsion verify: error: argument "
     "--seed: expected a non-negative integer, got '-3'")])
def test_bad_integer_messages(capsys, argv, message):
    """Ordinary bad integers keep argparse's wording, input quoted."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert [ln for ln in capsys.readouterr().err.splitlines()
            if "error:" in ln] == [message]


@pytest.mark.parametrize("argv", [("verify", "--branch", "+"),
                                  ("riley", "--s", "1,0",
                                   "--tol-compare", "1e-3"),
                                  ("surgery", "--p", "2", "--q", "5",
                                   "--tol-variety", "1e-14"),
                                  ("torsion", "--s", "1,0",
                                   "--tol-compare", "1"),
                                  ("riley", "--s", "1,0",
                                   "--config", "cfg.json"),
                                  ("verify", "--config", "cfg.json")])
def test_unread_flag_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["riley", "torsion"])
@pytest.mark.parametrize("s", ["-1,0", "-0.5,-2", "-.5,3", "-2e-3,1"])
@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_negative_real_part_after_a_space(capsys, command, s, fmt):
    """An re,im value with a negative real part is a value, not an
    option: --s -1,0 prints what --s=-1,0 prints."""
    spaced = run(capsys, command, "--s", s, "--format", fmt)
    joined = run(capsys, command, f"--s={s}", "--format", fmt)
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1]


@pytest.mark.parametrize("argv", [("riley", "--s"),
                                  ("riley", "--s", "-x"),
                                  ("torsion", "--s", "-1"),
                                  ("torsion", "--s", "-1,0,2"),
                                  ("riley", "--s", "-1,0", "-2,0")])
def test_bad_complex_values_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "Traceback" not in capsys.readouterr().err


def test_torsion_pretty(capsys):
    code, out, _ = run(capsys, "torsion", "--s", "1,0", "--branch", "+")
    assert code == 0
    # the tau(M) line names its form
    assert "tau(M) (1/n form)          : -0.5" in out
    # a zero part prints unsigned, though u = 2 gives tau as -0.5 - 0i
    assert "tau(solid torus), u form   : 0.25+0i\n" in out
    assert "tau(M) (1/n form)          : -0.5+0i\n" in out
    assert "-0i" not in out
    # all five torsion quantities present
    for label in ("closed form", "Fox oracle", "trace", "u form",
                  "tau(M) (1/n form)"):
        assert label in out


def test_torsion_small_s_prints_tau_m(capsys):
    """At s = 0.05 the exterior is acyclic: tau(M) is printed, and the
    oracle's lost precision shows as a failed check."""
    code, out, _ = run(capsys, "torsion", "--s", "0.05,0")
    assert code == 0
    assert "non-acyclic" not in out
    assert "tau(M) (1/n form)          : 0.000238727791394" in out
    assert "check exterior_oracle_abs: fail" in out


def test_torsion_help_names_the_slopes_of_tau_m(capsys):
    """The tau(M) line holds the paper's 1/n form at a bare point; the
    help says for which slopes it is exact."""
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "2(u - 1)/(u^2 (u^2 - 5))" in text
    assert "exact for the 1/n slopes only (p = +-1)" in text


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "--s", "2,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["u"]["re"] - 2.5) < 1e-12
    assert data["flags"]["product_identity"] == "pass"


def test_torsion_json_at_a_non_acyclic_exterior(capsys):
    """At u = 1 (s = e^{i pi/3}) the exterior is not acyclic: no oracle
    value, so no tau(M) and no product identity, while the pretty form
    keeps its convention line."""
    code, out, _ = run(capsys, "torsion", "--s", "0.5,0.8660254037844386",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tau_exterior_oracle"] is None
    assert data["tau_surgered"] is None
    assert data["flags"] == {"exterior_oracle_abs": "skipped",
                             "solid_trace_vs_u": "pass",
                             "product_identity": "skipped"}
    assert data["annotations"] == ["exterior-non-acyclic", "non-acyclic"]
    code, out, _ = run(capsys, "torsion", "--s", "0.5,0.8660254037844386")
    assert code == 0
    assert "tau(M) (1/n form)          : 0 (non-acyclic convention)\n" in out


def test_torsion_degenerate_annotated(capsys):
    golden = (1 + 5 ** 0.5) / 2
    for s in (f"{golden},0", "0,1"):     # u = sqrt(5) and u = 0
        code, out, _ = run(capsys, "torsion", "--s", s)
        assert code == 0
        assert ("tau(M) (1/n form)          : omitted "
                "(degenerate, u^2(u^2 - 5) ~ 0)") in out


GOLDEN = (1 + 5 ** 0.5) / 2      # u = sqrt(5): degenerate, non-acyclic


@pytest.mark.parametrize("argv, header, n_rows", [
    (("riley", "--s", "2,0"), RILEY_CSV_HEADER, 2),
    (("torsion", "--s", "2,0"), REPORT_CSV_HEADER, 1),
    (("torsion", "--s", f"{GOLDEN},0"), REPORT_CSV_HEADER, 1)],
    ids=["riley", "torsion", "torsion-degenerate"])
def test_csv_format(capsys, argv, header, n_rows):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    n_cells = len(header.split(","))
    assert all(len(ln.split(",")) == n_cells for ln in lines[1:])


# the JSON keys of each numeric CSV column; an "_re" or "_im" column
# names its stem here and adds the key "re" or "im"
CSV_STEMS = {
    "riley": {"s": ("s",), "t": ("t",), "residual": ("residual",)},
    "torsion": {"u": ("u",), "tauext": ("tau_exterior_closed",),
                "oracle": ("tau_exterior_oracle",),
                "tausolid": ("tau_solid_closed",),
                "tautrace": ("tau_solid_trace",),
                "tauM": ("tau_surgered",)},
    "surgery": {"s": ("point", "s"), "t": ("point", "t"), "u": ("u",),
                "trl": ("trace_l",), "lambda": ("lambda",),
                "tau": ("torsion",), "res_variety": ("point", "residual"),
                "res_relation": ("relation_residual",)},
}


@pytest.mark.parametrize("argv", [
    ("riley", "--s", "2,0"),
    ("torsion", "--s", "2,0"),
    ("torsion", "--s", f"{GOLDEN},0"),
    ("surgery", "--p", "8", "--q", "1")],     # 7 rows, one degenerate
    ids=["riley", "torsion", "torsion-degenerate", "surgery"])
def test_csv_cells_are_the_json_floats(capsys, argv):
    """Every numeric CSV cell parses back to exactly the float that the
    same command prints in JSON, and an empty one is a JSON null."""
    _, text, _ = run(capsys, *argv, "--format", "json")
    rows = json.loads(text)
    rows = rows if isinstance(rows, list) else [rows]
    _, text, _ = run(capsys, *argv, "--format", "csv")
    header, *lines = text.splitlines()
    columns, stems = header.split(","), CSV_STEMS[argv[0]]
    assert len(lines) == len(rows) > 0
    for row, line in zip(rows, lines):
        cells = line.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            stem, keys = column, ()
            if column.endswith(("_re", "_im")):
                stem, keys = column[:-3], (column[-2:],)
            if stem not in stems:
                assert column in ("branch", "flags", "annotations")
                continue
            value = row
            for key in stems[stem] + keys:
                value = None if value is None else value[key]
            if value is None:
                assert cell == "", column
            else:   # .hex() tells -0.0 from 0.0
                assert float(cell).hex() == value.hex(), column


def test_surgery_empty(capsys):
    code, out, _ = run(capsys, "surgery", "--p", "1", "--q", "0")
    assert code == 0
    assert "0 solution(s)" in out


def test_surgery_invalid_slope(capsys):
    code, _, err = run(capsys, "surgery", "--p", "6", "--q", "4")
    assert code == 2
    assert "error" in err


def test_surgery_slope_bound_exit_2(capsys):
    # 1/100 needs a degree-400 Chebyshev series, the CLI's limit itself
    code, out, err = run(capsys, "surgery", "--p", "1", "--q", "100")
    assert code == 0
    assert out.startswith("slope 1/100: ")
    assert err == ""
    # 1/101 needs a degree-404 Chebyshev series, past the CLI's 400
    code, out, err = run(capsys, "surgery", "--p", "1", "--q", "101")
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_surgery_slope_sign_spellings_print_alike(capsys, fmt):
    """1/-2 and -1/2 are one slope: the same stdout, header included."""
    outputs = [run(capsys, "surgery", "--p", p, "--q", q, "--format", fmt)
               for p, q in (("1", "-2"), ("-1", "2"))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


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


VERIFY_FIELDS = ["name", "passed", "max_residual", "tol", "detail",
                 "seconds"]


def test_verify_json_and_csv(capsys):
    """Both formats carry each check's fields; the timing is the only
    field that differs from run to run, and the CSV cells are the JSON
    values."""
    code, out, _ = run(capsys, "verify", "--samples", "25", "--format", "json")
    assert code == 0 and len(out.splitlines()) == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 8 and all(c["passed"] for c in checks)
    assert all(list(c) == VERIFY_FIELDS for c in checks)
    assert all(c["seconds"] > 0 for c in checks)
    _, again, _ = run(capsys, "verify", "--samples", "25", "--format", "json")
    strip = [{k: v for k, v in c.items() if k != "seconds"} for c in checks]
    assert strip == [{k: v for k, v in c.items() if k != "seconds"}
                     for c in json.loads(again)["checks"]]
    code, out, _ = run(capsys, "verify", "--samples", "25", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == VERIFY_FIELDS and len(rows) == 8
    for row, check in zip(rows, strip):
        assert row[:5] == [check["name"], "true", repr(check["max_residual"]),
                           repr(check["tol"]), check["detail"]]
        assert float(row[5]) > 0


def test_verify_pretty_is_the_default(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "5")
    _, pretty, _ = run(capsys, "verify", "--samples", "5",
                       "--format", "pretty")
    assert code == 0 and out == pretty
    lines = out.splitlines()
    assert len(lines) == 9 and lines[-1] == "8/8 checks passed"
    assert all(ln.startswith("[PASS] ") for ln in lines[:8])


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_verify_failure_exit_3(capsys, monkeypatch, fmt):
    def failing():
        return CheckResult("surgery solver residuals + torsion", False, 1.0,
                           1e-9, detail="forced")

    monkeypatch.setattr(verify, "check_surgery_solver", failing)
    code, out, _ = run(capsys, "verify", "--samples", "0", "--format", fmt)
    assert code == 3
    failed = {"pretty": "[FAIL] surgery solver", "json": '"passed": false',
              "csv": "surgery solver residuals + torsion,false,"}
    assert failed[fmt] in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--samples", "25", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--samples", "25", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, text", [
    (("surgery", "--p", "2", "--q", "5"), None),           # missing file
    (("surgery", "--p", "2", "--q", "5"), "{not json"),
    (("verify", "--samples", "0"), '{"seed": "abc"}'),
    (("verify", "--samples", "0"), '{"seed": -3}'),
    (("riley", "--s", "1,0"), '{"format": "xml"}'),
    (("surgery", "--p", "2", "--q", "5"), '{"format": "xml"}'),
    (("riley", "--s", "1,0"), '["format", "json"]'),
    (("surgery", "--p", "2", "--q", "5"), '{"tol_variety": "nan"}'),
    (("torsion", "--s", "1,0"), '{"tol_compare": 1}'),
    (("riley", "--s", "1,0"), '{"format": "json", "colour": "red"}')])
def test_config_file_fault_exit_1(tmp_path, capsys, argv, text):
    """There is no config file: --config is an unrecognized argument,
    refused before any file is read, whatever the file holds.  The path
    is quoted like any input, at most 20 characters of it."""
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    path = str(cfg) if len(str(cfg)) <= 20 else str(cfg)[:17] + "..."
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        f"fig8torsion: error: unrecognized arguments: --config {path}"]
