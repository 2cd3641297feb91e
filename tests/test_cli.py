"""Tests for the command-line interface and JSON serialization."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    poly_from_json_dict,
    poly_to_json_dict,
    q_lambda,
    schur_q_row,
)
from qlab import cli
from qlab.cli import MAX_POINTS, main

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_q_text_output(capsys):
    code, out, _ = run_cli(capsys, "q", "2,1", "--basis", "p")
    assert code == 0
    assert out.strip() == "4/3*p1^3 - 4/3*p3"


def test_q_x_basis(capsys):
    code, out, _ = run_cli(capsys, "q", "2,1", "--basis", "x")
    assert code == 0
    assert out.strip() == "1/6*x1^3 - 2*x3"


def test_q_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "q", "3,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert poly_from_json_dict(payload) == q_lambda((3, 1))


def test_qa_named_params(capsys):
    code, out, _ = run_cli(capsys, "qa", "3", "--params", "factorial")
    assert code == 0
    expect = schur_q_row(3) - schur_q_row(2) * 3 + schur_q_row(1) * 2
    assert out.strip() == expect.text()


def test_qa_inline_params(capsys):
    code, out, _ = run_cli(capsys, "qa", "2", "--params", "0,1/2")
    assert code == 0
    expect = schur_q_row(2) - schur_q_row(1) * F(1, 2)
    assert out.strip() == expect.text()


def test_hierarchy_listing(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--max-weight", "6")
    assert code == 0
    lines = out.splitlines()
    assert "y3^2 : 8/45*D1^6 - 8/9*D1^3*D3 - 8/9*D3^2 + 8/5*D1*D5" in lines


def test_hierarchy_json(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--max-weight", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_weight"] == 6
    entries = {tuple(sorted((int(k), v) for k, v in e["y"].items())): e for e in payload["equations"]}
    key = ((3, 2),)
    assert key in entries
    coeff = poly_from_json_dict(entries[key]["coefficient"])
    assert coeff.text() == "8/45*D1^6 - 8/9*D1^3*D3 - 8/9*D3^2 + 8/5*D1*D5"


def test_check_bilinear_pass(capsys):
    code, out, _ = run_cli(capsys, "check-bilinear", "--tau", "q:3,1")
    assert code == 0
    assert "PASS" in out


def test_check_bilinear_fail(tmp_path, capsys, witness):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(poly_to_json_dict(witness)))
    code, out, _ = run_cli(capsys, "check-bilinear", "--tau", f"json:{path}")
    assert code == 1
    assert "FAIL" in out
    assert "discrepancy" in out


def test_check_bkp_pass_and_fail(tmp_path, capsys, witness):
    code, out, _ = run_cli(capsys, "check-bkp", "--tau", "q:2,1", "--max-weight", "6")
    assert code == 0
    assert "PASS: 4 equations checked, 9 trivial, 0 failed" in out
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(poly_to_json_dict(witness)))
    code, out, _ = run_cli(capsys, "check-bkp", "--tau", f"json:{path}", "--max-weight", "6")
    assert code == 1
    assert "FAIL" in out


def test_check_bkp_qa_tau(capsys):
    code, out, _ = run_cli(
        capsys, "check-bkp", "--tau", "qa:3,1@factorial", "--max-weight", "6"
    )
    assert code == 0
    assert "0 failed" in out


def test_oracle_compare_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-compare",
        "--max-sum", "4",
        "--nvars", "3",
        "--points", "1",
        "--seed", "11",
        "--params", "0,1/2,-1,3",
    )
    assert code == 0
    assert "PASS: oracle agrees" in out


def test_oracle_compare_repeated_coordinate(capsys):
    # Seed 9 draws the point (1/9, 5/2, 1/9), where the symmetrization
    # formula divides by zero; the oracle interpolates through it.
    code, out, _ = run_cli(
        capsys,
        "oracle-compare",
        "--nvars", "3",
        "--seed", "9",
        "--params", "factorial",
    )
    assert code == 0
    names = ["1", "2", "2,1", "3", "3,1", "4", "3,2", "4,1", "5"]
    expect = [f"ok {kind} {name}" for name in names for kind in ("q", "qa")]
    assert out.splitlines() == expect + ["PASS: oracle agrees"]


def test_oracle_compare_rejects_no_points(capsys):
    for points in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "oracle-compare", "--max-sum", "3", "--nvars", "3",
            "--points", points,
        )
        assert code == 2
        assert out == ""
        assert "--points" in err


def test_oracle_compare_points_bound(capsys):
    # The bound is checked before any point is drawn, so a huge count is
    # rejected at once.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle-compare", "--points", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"--points must be at most {MAX_POINTS}" in err
    code, out, _ = run_cli(
        capsys, "oracle-compare", "--max-sum", "1", "--nvars", "1",
        "--points", str(MAX_POINTS),
    )
    assert code == 0
    assert out.splitlines() == ["ok q 1", "PASS: oracle agrees"]


def test_import_leaves_out_dataclasses_inspect_and_typing():
    """Importing the CLI, and with it the whole package, loads none of
    dataclasses, inspect and typing (about 15 ms of every cold start)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, qlab.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"


def test_exponent_notation_rejected_at_once(tmp_path):
    """Fraction writes out every digit of 1e999999999, so a rational in
    exponent notation, from a JSON tau or --params, exits 2 at once.  Each
    command runs in its own process, under a timeout, and prints the time
    its main() took."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, time; from qlab.cli import main; start = time.perf_counter(); "
            "status = main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(status)")
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"vars": "p", "terms": [{"mono": {"1": 1}, "coef": "1e999999999"}]}))
    for argv in (["check-bilinear", "--tau", f"json:{tau}"],
                 ["qa", "2", "--params", "0,1e999999999"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10)
        assert proc.returncode == 2
        assert float(proc.stdout) < 1
        assert "1e999999999" in proc.stderr


def test_oracle_compare_weight_cap(monkeypatch, capsys):
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "3")
    code, out, err = run_cli(capsys, "oracle-compare", "--max-sum", "4", "--nvars", "3")
    assert code == 2
    assert out == ""
    assert "cap" in err
    code, out, _ = run_cli(capsys, "oracle-compare", "--max-sum", "3", "--nvars", "3")
    assert code == 0
    assert out.splitlines()[-1] == "PASS: oracle agrees"


def test_oracle_compare_short_params_rejected_first(capsys):
    # --max-sum 4 needs a_0..a_3; the check comes before any "ok" line.
    code, out, err = run_cli(
        capsys, "oracle-compare", "--max-sum", "4", "--nvars", "3", "--params", "0,1",
    )
    assert code == 2
    assert out == ""
    assert "too short" in err


def test_malformed_inputs_exit_2(monkeypatch, capsys):
    assert run_cli(capsys, "q", "2,,1")[0] == 2
    assert run_cli(capsys, "qa", "4", "--params", "0,1/2")[0] == 2
    assert run_cli(capsys, "qa", "2", "--params", "1,2")[0] == 2
    assert run_cli(capsys, "check-bilinear", "--tau", "nope:1")[0] == 2
    assert run_cli(capsys, "check-bilinear", "--tau", "json:/does/not/exist.json")[0] == 2
    assert run_cli(capsys, "check-bkp", "--tau", "q:2,1", "--max-weight", "1")[0] == 2
    assert run_cli(capsys, "nosuch")[0] == 2
    assert run_cli(capsys)[0] == 2
    # Numbers written as text follow one grammar, -?D+ with D an ASCII
    # digit for an integer; spaces around the commas of a list are list syntax.
    for argv in (["q", "1_1"], ["q", "\u0663,1"], ["qa", "2", "--params", "0,1_0"],
                 ["check-bkp", "--tau", "q:2,1", "--max-weight", "1_0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "error:" in err and "Traceback" not in err
    assert run_cli(capsys, "q", " 3 , 1") == run_cli(capsys, "q", "3,1")
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "6_4")
    assert run_cli(capsys, "q", "3") == (2, "", "error: invalid QLAB_MAX_WEIGHT value '6_4'\n")


def test_params_without_a0_report_the_rule(capsys):
    code, out, err = run_cli(capsys, "qa", "3,1", "--params", "1,2,3")
    assert code == 2 and out == ""
    assert err == "error: parameter sequence must have a_0 = 0\n"


def test_long_params_build_only_the_values_read(monkeypatch, capsys):
    """qa, a qa: tau and oracle-compare --params parse and check the whole
    list, and the rows (u - a_1)...(u - a_k) of their ParamSeq are
    multiplied out only up to the a_needed the request reads: a
    3,000-value list once took seconds for the few values a small index
    reads.  The output is that of the short list, and a malformed entry
    anywhere, a nonzero a_0 or a list too short still exits 2 with its
    message."""
    from qlab import series

    held = []
    rows = series._shifted_products
    monkeypatch.setattr(series, "_shifted_products",
                        lambda values, *start: held.append(len(values)) or rows(values, *start))
    long = ",".join(map(str, range(3000)))
    assert run_cli(capsys, "qa", "1", "--params", long) == (0, "2*p1\n", "")
    for *argv, spec in (["qa", "3,1", "--params", "{}"], ["check-bilinear", "--tau", "qa:3,1@{}"],
                        ["oracle-compare", "--max-sum", "3", "--nvars", "2", "--points", "1",
                         "--params", "{}"]):
        assert run_cli(capsys, *argv, spec.format(long)) == \
            run_cli(capsys, *argv, spec.format("0,1,2"))
    assert max(held) == 2
    for params, err in ((long + ",x", f"error: malformed parameter sequence: '{long},x'\n"),
                        ("1," + long, "error: parameter sequence must have a_0 = 0\n"),
                        ("0,1", "error: parameter sequence too short: a_1..a_2 requested, "
                                "max index 1\n")):
        assert run_cli(capsys, "qa", "3,1", "--params", params) == (2, "", err)


def test_weight_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "4")
    code, _, err = run_cli(capsys, "hierarchy", "--max-weight", "8")
    assert code == 2
    assert "cap" in err
    code, out, _ = run_cli(capsys, "hierarchy", "--max-weight", "4")
    assert code == 0
    assert out.splitlines()


def assert_capped(result):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap" in err
    assert "Traceback" not in err


def test_weight_cap_q_vector(monkeypatch, capsys):
    # The weight of an index vector is the sum of |entries|.
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "5")
    assert_capped(run_cli(capsys, "q", "3,2,1"))
    assert_capped(run_cli(capsys, "q", "--", "-4,2"))
    assert_capped(run_cli(capsys, "check-bilinear", "--tau", "q:5,1"))
    assert run_cli(capsys, "q", "3,2")[0] == 0


def test_weight_cap_qa_vector(monkeypatch, capsys):
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "5")
    assert_capped(run_cli(capsys, "qa", "4,2", "--params", "factorial"))
    assert_capped(run_cli(capsys, "check-bkp", "--tau", "qa:4,2@factorial", "--max-weight", "4"))
    assert run_cli(capsys, "qa", "4,1", "--params", "factorial")[0] == 0


def test_weight_cap_json_tau(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "5")
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(poly_to_json_dict(q_lambda((4, 2)))))
    assert_capped(run_cli(capsys, "check-bilinear", "--tau", f"json:{path}"))
    path.write_text(json.dumps(poly_to_json_dict(q_lambda((4, 1)))))
    assert run_cli(capsys, "check-bilinear", "--tau", f"json:{path}")[0] == 0


def test_weight_cap_bounds_index_vector_length(monkeypatch, capsys):
    """An entry of zero adds no weight but one level of recursion, so the
    cap also bounds the number of entries: 600 zeros would run out of
    recursion depth."""
    monkeypatch.delenv("QLAB_MAX_WEIGHT", raising=False)
    result = run_cli(capsys, "q", ",".join(["0"] * 65))
    assert_capped(result)
    assert result[2] == "error: index vector length 65 exceeds the QLAB_MAX_WEIGHT cap 64\n"
    assert run_cli(capsys, "q", ",".join(["0"] * 64)) == (0, "1\n", "")


def test_deeply_nested_json_tau_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "check-bilinear", "--tau", f"json:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_serialize_round_trip():
    f = q_lambda((3, 1)) + Poly.one("p") * F(7, 2)
    assert poly_from_json_dict(poly_to_json_dict(f)) == f
    d = poly_to_json_dict(Poly.zero("D"))
    assert d["terms"] == []
    assert poly_from_json_dict(d).is_zero()


def test_serialize_rejections():
    with pytest.raises(ValueError):
        poly_from_json_dict({"vars": "p", "terms": [{"mono": {"2": 1}, "coef": "1"}]})
    with pytest.raises(ValueError):
        poly_from_json_dict({"vars": "w", "terms": []})
    with pytest.raises(ValueError):
        poly_from_json_dict({"vars": "p", "terms": [{"mono": {"1": 0}, "coef": "1"}]})
    with pytest.raises(ValueError):
        poly_from_json_dict({"vars": "p", "terms": [{"mono": {"1": 1}, "coef": "x"}]})
    with pytest.raises(ValueError):
        poly_from_json_dict({"vars": "p", "terms": [{"mono": {"1": True}, "coef": "2"}]})
    # An index key is read by the integer grammar -?D+, D an ASCII digit.
    for key in ("1_1", "+1", " 3", "\u0663"):
        with pytest.raises(ValueError, match="bad variable index"):
            poly_from_json_dict({"vars": "p", "terms": [{"mono": {key: 1}, "coef": "1"}]})
    with pytest.raises(ValueError):
        poly_to_json_dict(Poly.one("v"))


def test_rational_texts():
    """JSON coefficients and parameter sequences read exactly -?D+, -?D+/D+
    and -?D+.D+, D an ASCII digit: no exponent notation, digit separator,
    plus sign, surrounding space, non-ASCII digit, bare point or zero
    denominator.  Spaces around the commas of a list are list syntax."""
    for text, value in (("3", 3), ("-3/4", F(-3, 4)), ("1.25", F(5, 4))):
        term = {"mono": {}, "coef": text}
        assert poly_from_json_dict({"vars": "p", "terms": [term]}) == Poly.one("p") * value
        assert ParamSeq.parse(f"0,{text}").values[1] == value
    for text in ("1e3", "2E-1", "1.5e2", "1_000", "+1", " 1", "\u0661", ".5", "1.", "1/0"):
        with pytest.raises(ValueError, match="bad rational"):
            poly_from_json_dict({"vars": "p", "terms": [{"mono": {}, "coef": text}]})
        if text.strip() == text:  # a space beside a comma is list syntax
            with pytest.raises(ValueError, match="malformed parameter sequence"):
                ParamSeq.parse(f"0,{text}")
    assert ParamSeq.parse("0 , 1,2 ") == ParamSeq.parse("0,1,2")


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(vec):
        raise RuntimeError("broken construction")

    monkeypatch.setattr(cli, "q_lambda", broken)
    code, out, err = run_cli(capsys, "q", "2,1")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: broken construction\n"


def test_oracle_compare_reports_mismatches(monkeypatch, capsys):
    """A construction off by 1 on one partition fails at every point: one
    MISMATCH line each, a FAIL count and exit status 1."""
    def wrong(vec):
        return q_lambda(vec) + 1 if tuple(vec) == (2, 1) else q_lambda(vec)

    monkeypatch.setattr(cli, "q_lambda", wrong)
    code, out, err = run_cli(capsys, "oracle-compare", "--max-sum", "3", "--nvars", "3",
                             "--points", "2", "--seed", "11")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[:2] == ["ok q 1", "ok q 2"]
    assert lines[4:] == ["ok q 3", "FAIL: 2 mismatches"]
    for line in lines[2:4]:
        head, values = line.split(": ")
        assert head == "MISMATCH q 2,1"
        lhs, rhs = map(Fraction, values.split(" != "))
        assert rhs - lhs == 1


def test_default_weight_cap():
    """Unset, QLAB_MAX_WEIGHT is 64: q 1200, whose one-row Q would run out
    of recursion depth, exits 2 at once.  The command runs in its own
    process, under a timeout, and prints the time its main() took."""
    assert cli.DEFAULT_MAX_WEIGHT == 64
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, time; from qlab.cli import main; start = time.perf_counter(); "
            "status = main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(status)")
    env = {k: v for k, v in os.environ.items() if k != "QLAB_MAX_WEIGHT"}
    proc = subprocess.run([sys.executable, "-c", code, "q", "1200"], capture_output=True,
                          text=True, env=dict(env, PYTHONPATH=src), timeout=10)
    assert proc.returncode == 2
    assert float(proc.stdout) < 1
    assert proc.stderr == "error: weight 1200 exceeds the QLAB_MAX_WEIGHT cap 64\n"


def test_default_hierarchy_weight_cap():
    """Unset, QLAB_MAX_WEIGHT caps the --max-weight of hierarchy and
    check-bkp at 32: weight 33 exits 2 at once, before any generation."""
    assert cli.DEFAULT_MAX_HIERARCHY_WEIGHT == 32
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, time; from qlab.cli import main; start = time.perf_counter(); "
            "status = main(sys.argv[1:]); print(time.perf_counter() - start, file=sys.stderr); "
            "sys.exit(status)")
    env = {k: v for k, v in os.environ.items() if k != "QLAB_MAX_WEIGHT"}
    for args in (["hierarchy", "--max-weight", "33"],
                 ["check-bkp", "--tau", "q:2,1", "--max-weight", "33"]):
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=dict(env, PYTHONPATH=src), timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        message, elapsed = proc.stderr.splitlines()
        assert message == "error: weight 33 exceeds the QLAB_MAX_WEIGHT cap 32"
        assert float(elapsed) < 1


def test_weight_cap_variable_overrides_the_hierarchy_default(monkeypatch):
    from qlab import hirota

    monkeypatch.setenv("QLAB_MAX_WEIGHT", "40")
    before = hirota._weight_slice.cache_info()
    assert cli._max_weight(40) == 40
    assert hirota._weight_slice.cache_info() == before
    with pytest.raises(ValueError, match="weight 41 exceeds the QLAB_MAX_WEIGHT cap 40"):
        cli._max_weight(41)


def test_q_vector_with_negative_first_entry(capsys):
    expected = run_cli(capsys, "q", "--", "-2,3,2")
    assert expected == (0, "-8/3*p1^3 - 4/3*p3\n", "")
    assert run_cli(capsys, "q", "-2,3,2") == expected
    json_out = run_cli(capsys, "q", "--format", "json", "--", "-2,3,2")
    assert run_cli(capsys, "q", "-2,3,2", "--format", "json") == json_out
    assert run_cli(capsys, "q", "--format", "json", "-2,3,2") == json_out


def test_qa_vector_with_negative_first_entry_is_rejected(capsys):
    code, out, err = run_cli(capsys, "qa", "-3,2", "--params", "factorial")
    assert code == 2
    assert out == ""
    assert err == "error: index vector must have positive entries: '-3,2'\n"


def test_exponent_past_the_bound_exits_2(tmp_path, monkeypatch, capsys):
    # 256 is rejected when the file is read; x1^200 when the y3^2
    # equation would multiply two derivatives of it.  The cap is raised
    # past the default 64, which would reject weight 200 first.
    monkeypatch.setenv("QLAB_MAX_WEIGHT", "255")
    path = tmp_path / "tau.json"
    for exponent, code in ((256, 2), (200, 2), (3, 1)):
        path.write_text(json.dumps({"vars": "p", "terms": [
            {"mono": {"1": exponent}, "coef": "1"}]}))
        result = run_cli(capsys, "check-bkp", "--tau", f"json:{path}", "--max-weight", "6")
        assert result[0] == code
        if code == 2:
            assert result[1] == "" and result[2].startswith("error: ")
            assert "exceeds 255" in result[2]
