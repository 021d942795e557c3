import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcx
from gcx.cli import CHECK_TARGETS, main
from gcx.multilinear import Multiform, exp_wedge


def run_cli(args):
    return main(args)


def _child_env():
    """The environment of a child interpreter that imports this gcx."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gcx.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_check_local_model(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        ["check", "local-model", "--seed", "42", "--samples", "80", "--output", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    names = [r["check"] for r in reports]
    assert names == [
        "integrability_cplane",
        "integrability_polar",
        "type_jump",
        "polar_compatibility",
    ]
    assert all(r["pass"] for r in reports)
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == len(reports)


def test_check_surgery(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["check", "surgery", "--seed", "42", "--samples", "120", "--output", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    names = [r["check"] for r in reports]
    assert names == [
        "symplectomorphism",
        "h_properties",
        "integrability_bump",
        "integrability_outer",
        "h_sign_negative_control",
    ]
    assert all(r["pass"] for r in reports)


def test_check_surgery_two_windows(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "check",
            "surgery",
            "--seed",
            "7",
            "--samples",
            "60",
            "--r-out",
            "4.0",
            "--windows",
            "1:2,2.5:3.5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    names = [r["check"] for r in reports]
    assert "h_properties_w1" in names and "h_properties_w2" in names
    assert "integrability_bump_w1" in names and "integrability_bump_w2" in names


def test_check_quotient_single(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["check", "quotient", "--m", "3", "--k", "2", "--samples", "60", "--output", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert [r["check"] for r in reports] == ["quotient_m3_k2"]
    assert any("discrepancy" in note for note in reports[0]["notes"])


def test_check_quotient_defaults_to_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["check", "quotient", "--samples", "40", "--output", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [r["check"] for r in reports] == [
        "quotient_m1_k0",
        "quotient_m2_k1",
        "quotient_m3_k2",
        "quotient_m5_k2",
    ]


@pytest.mark.parametrize(
    "flags",
    [["--m", "153", "--k", "100"], ["--m", "200", "--k", "-99", "--r-min", "0.9"]],
    ids=["largest-m-at-default-r-min-and-largest-k", "fixed-m-cap"],
)
def test_check_quotient_certifies_at_the_largest_accepted_m_and_k(flags, tmp_path, capsys):
    # 0.1^(2 * 153) is a normal double and 0.1^(2 * 154) is not; past r_min = 0.17 the fixed cap binds
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, underflow to 0 or invalid value on the way
        assert run_cli(["check", "quotient", *flags, "--output", str(out)]) == 0
    (rep,) = json.loads(out.read_text())
    assert rep["pass"] and math.isfinite(rep["max_residual"])
    assert not any("nan" in note for note in rep["notes"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--m", "154", "--k", "1"],
        ["--m", "201", "--k", "1", "--r-min", "0.9"],
        ["--m", "100000", "--k", "1"],
        ["--m", "2", "--k", "101"],
        ["--m", "3", "--k", "-101"],
        ["--m", "1", "--k", str(10**400)],
    ],
    ids=["m-past-the-r-min-bound", "m-past-the-fixed-cap", "m-1e5", "k-101", "k-minus-101", "k-1e400"],
)
def test_check_quotient_refuses_an_m_or_k_it_cannot_certify(flags, tmp_path, monkeypatch, capsys):
    import gcx.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a refused quotient model must not reach the checks or the writer")

    monkeypatch.setattr(gcx.cli, "run_checks", must_not_run)
    monkeypatch.setattr(gcx.cli, "_write_reports", must_not_run)
    assert run_cli(["check", "quotient", *flags, "--output", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: --m {flags[1]} --k {flags[3]}: need 1 <= m <= ")


def test_check_all_one_sample(tmp_path):
    # every capped check draws exactly one sample, type_jump's off-locus half included
    out = tmp_path / "report.json"
    assert run_cli(["check", "all", "--samples", "1", "--output", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 14
    assert all(r["samples"] == 1 and r["params"]["samples"] == 1 for r in reports)


def test_check_invalid_config_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["check", "all", "--samples", "0", "--output", str(out)]) == 2
    assert run_cli(["check", "quotient", "--m", "4", "--k", "2", "--output", str(out)]) == 2
    assert run_cli(["check", "surgery", "--windows", "2:1", "--output", str(out)]) == 2
    assert run_cli(["check", "surgery", "--m", "2", "--output", str(out)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--r-min", "1"],
        ["--r-min", "2"],
        ["--output", "{tmp}/missing-dir/report.json"],
        ["--output", "{tmp}"],
        ["--output", "{tmp}/fifo"],  # the report's rename would put a regular file in its place
        ["--r-out", "inf"],
        ["--windows", "1:inf"],
    ],
    ids=["tol-nan", "tol-inf", "r-min-1", "r-min-2", "output-dir-missing", "output-is-dir", "output-is-fifo", "r-out-inf",
         "window-inf"],
)
def test_check_invalid_config_exit_2_before_any_check(flags, tmp_path, monkeypatch, capsys):
    import gcx.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a rejected config must not reach the checks or the writer")

    monkeypatch.setattr(gcx.cli, "run_checks", must_not_run)
    monkeypatch.setattr(gcx.cli, "_write_reports", must_not_run)
    os.mkfifo(tmp_path / "fifo")
    flags = [f.format(tmp=tmp_path) for f in flags]
    if "--output" not in flags:
        flags += ["--output", str(tmp_path / "report.json")]
    assert run_cli(["check", "all", *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)


@pytest.mark.parametrize("target", ["local-model", "locus"])
def test_check_tol_below_round_off_is_a_verdict_not_a_crash(target, tmp_path, capsys):
    # --tol bounds residuals only: rank decisions keep their own cutoff, so a tolerance
    # below round-off fails residuals (exit 1) and does not break a pure spinor (exit 3);
    # every locus figure of the local model is exactly 0, so locus passes (exit 0)
    out = tmp_path / "report.json"
    code = run_cli(["check", target, "--tol", "1e-16", "--samples", "20", "--output", str(out)])
    reports = json.loads(out.read_text())
    assert "runtime failure" not in capsys.readouterr().err
    if target == "locus":
        assert code == 0 and [r["max_residual"] for r in reports] == [0.0]
    else:
        assert code == 1 and reports and not all(r["pass"] for r in reports)


def _bracket_payload(point=(0.2, 0.3, 0.4, 0.5), u1=None):
    """Bracket input of d/dx1 (or the vector u1 d/dx1) and d/dx2."""
    zero = {"const": {}}
    one = {"const": {"re": 1.0}}
    return {
        "dim": 4,
        "point": point,
        "u": {"vec": [u1 or one, zero, zero, zero], "cov": [zero] * 4},
        "v": {"vec": [zero, one, zero, zero], "cov": [zero] * 4},
    }


def _bracket_payload_in_dim(n):
    """Bracket input of d/dx1 and d/dx2 in dimension n, all else well formed."""
    zero = {"const": {}}
    one = {"const": {"re": 1.0}}
    return {
        "dim": n,
        "point": [0.5] * n,
        "u": {"vec": [one] + [zero] * (n - 1), "cov": [zero] * n},
        "v": {"vec": [zero, one] + [zero] * (n - 2), "cov": [zero] * n},
    }


@pytest.mark.parametrize(
    "command,payload",
    [
        ("normal-form", [1, 2]),
        ("bracket", _bracket_payload([0.0, 0.3, 0.4, 0.5], {"log": {"coord": 1}})),
        ("bracket", _bracket_payload(3)),
        ("bracket", _bracket_payload(u1={"const": 1.0})),
        ("bracket", _bracket_payload([float("nan")] * 4)),
        ("bracket", _bracket_payload([2.0, 0.3, 0.4, 0.5], {"pow": [{"coord": 1}, 10**6]})),
        ("bracket", _bracket_payload([1e6, 0.3, 0.4, 0.5], {"pow": [{"coord": 1}, 64]})),
        ("bracket", _bracket_payload([0.5, 0.3, 0.4, 0.5], {"pow": [{"coord": 1}, 10**9]})),
        ("normal-form", {"dim": 40, "terms": []}),
        ("bracket", _bracket_payload_in_dim(40)),
    ],
    ids=[
        "normal-form-list",
        "bracket-log-of-zero",
        "bracket-scalar-point",
        "bracket-bare-const",
        "bracket-nan-point",
        "bracket-overflow",
        "bracket-overflow-within-the-pow-bound",
        "bracket-pow-past-the-bound",  # 10**9 - 1 jet products, about an hour, without the bound
        "normal-form-huge-dim",
        "bracket-huge-dim",
    ],
)
def test_malformed_input_exit_2_without_traceback(command, payload, tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([command, "--input", str(src)]) == 2
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out


# nesting past the interpreter's recursion limit: in evaluation (sin), in json.load (add, terms)
DEEP_INPUTS = {
    "bracket-600-sin": ("bracket", '{"sin": ' * 600 + '{"coord": 1}' + "}" * 600),
    "bracket-2000-add": ("bracket", '{"add": [' * 2000 + '{"coord": 1}' + "]}" * 2000),
    "normal-form-5000-terms": ("normal-form", '{"dim": 4, "terms": ' + "[" * 5000 + "]" * 5000 + "}"),
}


@pytest.mark.parametrize("case", DEEP_INPUTS)
def test_deep_nesting_is_malformed_input(case, tmp_path, capsys):
    command, text = DEEP_INPUTS[case]
    if command == "bracket":  # the nested tree is u's first vector component
        text = json.dumps(_bracket_payload(u1="NODE")).replace('"NODE"', text)
    src = tmp_path / "input.json"
    src.write_text(text)
    assert run_cli([command, "--input", str(src)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err[-3:]
    assert str(src) in err[0] and "nested too deep" in err[0], err[0]
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bracket_refuses_a_const_that_is_not_finite(part, value, tmp_path, capsys):
    src = tmp_path / "fields.json"
    src.write_text(json.dumps(_bracket_payload(u1={"const": {part: value}})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["bracket", "--input", str(src)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: const must be finite, got "), err


# the CI's pure dz1^dz2 input
DZ1_DZ2 = {
    "dim": 4,
    "terms": [
        {"indices": [1, 3], "re": 1, "im": 0},
        {"indices": [1, 4], "re": 0, "im": 1},
        {"indices": [2, 3], "re": 0, "im": 1},
        {"indices": [2, 4], "re": -1, "im": 0},
    ],
}


@pytest.mark.parametrize(
    "command, payload",
    [("bracket", {**_bracket_payload(), "dim": 3.5}), ("normal-form", {**DZ1_DZ2, "dim": 4.9})],
    ids=["bracket", "normal-form"],
)
def test_a_dim_that_is_not_an_integer_is_refused(command, payload, tmp_path, capsys):
    # int() would truncate it to a dimension the command accepts, and the command would exit 0
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    assert run_cli([command, "--input", str(src)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dim must be 2, 3 or 4"), err


@pytest.mark.parametrize("command", ["bracket", "normal-form"])
@pytest.mark.parametrize("payload, kind", [([1, 2], "list"), ([], "list"), ("hello", "str"), (7, "int")])
def test_an_input_that_is_not_a_json_object_is_refused(command, payload, kind, tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    assert run_cli([command, "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --input must hold a JSON object, got {kind}"] and not captured.out


def _h_payload(indices):
    """Bracket input of d/dx1 and d/dx2 twisted by H = (a 3-form of the given indices)."""
    return {**_bracket_payload(), "H": {"terms": [{"indices": indices, "expr": {"const": {"re": 1.0}}}]}}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("bracket", _bracket_payload(u1={"coord": 1.9})),
        ("bracket", _bracket_payload(u1={"coord": True})),
        ("bracket", _bracket_payload(u1={"coord": "2"})),
        ("bracket", _bracket_payload(u1={"pow": [{"coord": 1}, "2"]})),
        ("bracket", _bracket_payload(u1={"pow": [{"coord": 1}, True]})),
        ("bracket", _bracket_payload("0123")),
        ("bracket", _bracket_payload([True, 0.3, 0.4, 0.5])),
        ("bracket", _bracket_payload(["0.2", 0.3, 0.4, 0.5])),
        ("bracket", _h_payload([1.5, 2, 3])),
        ("bracket", _h_payload("123")),
        ("normal-form", {"dim": 4, "terms": [{"indices": [1.7], "re": 1.0}]}),
        ("normal-form", {"dim": 4, "terms": [{"indices": [True], "re": 1.0}]}),
        ("normal-form", {"dim": 4, "terms": [{"indices": "2", "re": 1.0}]}),
        ("normal-form", {"dim": 4, "terms": [{"indices": {"1": 2}, "re": 1.0}]}),
    ],
    ids=[
        "coord-1.9", "coord-true", "coord-string", "pow-string", "pow-true", "point-string", "point-bool",
        "point-string-entry", "h-indices-1.5", "h-indices-string", "indices-1.7", "indices-true",
        "indices-string", "indices-object",
    ],
)
def test_an_integer_field_that_is_not_an_integer_is_refused(command, payload, tmp_path, capsys):
    # int() would truncate 1.9 to 1 and read true as 1, and a string would be read character by character
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    assert run_cli([command, "--input", str(src)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and re.match(r"error: .* must be (an integer|a list)", err[0]), err
    assert not captured.out


@pytest.mark.parametrize(
    "command, integral, integer",
    [
        ("bracket", _bracket_payload(u1={"coord": 2.0}), _bracket_payload(u1={"coord": 2})),
        ("bracket", _bracket_payload(u1={"pow": [{"coord": 2}, 3.0]}), _bracket_payload(u1={"pow": [{"coord": 2}, 3]})),
        ("bracket", _h_payload([1.0, 2.0, 4.0]), _h_payload([1, 2, 4])),
        ("normal-form", {"dim": 4, "terms": [{"indices": [2.0], "re": 1.0}]}, {"dim": 4, "terms": [{"indices": [2], "re": 1}]}),
    ],
    ids=["coord", "pow", "h-indices", "indices"],
)
def test_an_integral_float_reads_as_its_integer(command, integral, integer, tmp_path, capsys):
    outputs = []
    for payload in (integral, integer):
        src = tmp_path / "input.json"
        src.write_text(json.dumps(payload))
        assert run_cli([command, "--input", str(src)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and not outputs[0].err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1", "2"])
def test_normal_form_refuses_a_tol_outside_0_1(tol, tmp_path, capsys):
    # a tol >= 1 keeps no singular value, so even the pure dz1^dz2 read as impure; refused before the input is read
    src, missing = tmp_path / "dz.json", tmp_path / "missing.json"
    src.write_text(json.dumps(DZ1_DZ2))
    for path in (src, missing):
        assert run_cli(["normal-form", "--input", str(path), f"--tol={tol}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tol must be finite and in (0, 1)"), err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "bogus-target"])
    assert exc.value.code == 2


def test_runtime_failure_exit_3_with_partial_report(tmp_path, monkeypatch, capsys):
    import gcx.verify

    def boom(*args, **kwargs):
        raise RuntimeError("induced endomorphism has a non-real part")

    monkeypatch.setattr(gcx.verify, "check_h_properties", boom)
    out = tmp_path / "partial.json"
    code = run_cli(["check", "surgery", "--samples", "30", "--output", str(out)])
    assert code == 3
    reports = json.loads(out.read_text())
    # the symplectomorphism check completed before the failure
    assert [r["check"] for r in reports] == ["symplectomorphism"]
    assert "runtime failure" in capsys.readouterr().err


def test_runtime_failure_with_an_unwritable_report_exits_3(tmp_path, monkeypatch, capsys):
    import gcx.cli
    import gcx.verify

    def boom(*args, **kwargs):
        raise RuntimeError("induced endomorphism has a non-real part")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(gcx.verify, "check_h_properties", boom)
    monkeypatch.setattr(gcx.cli.os, "replace", failing_replace)
    out = tmp_path / "partial.json"
    assert run_cli(["check", "surgery", "--samples", "30", "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "runtime failure: induced endomorphism has a non-real part",
        f"error: cannot write {out}: rename failed",
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_report_write_is_atomic(fail_at, tmp_path, monkeypatch, capsys):
    # a write that fails partway leaves the old report byte-identical and no temporary file, and exits 2
    import gcx.cli

    out = tmp_path / "report.json"
    assert run_cli(["check", "locus", "--samples", "5", "--output", str(out)]) == 0
    before = out.read_bytes()

    class HalfWriter:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError("disk full")

    def half_open(*args, **kwargs):
        return HalfWriter(open(*args, **kwargs))

    def failing_replace(src, dst):
        raise OSError("rename failed")

    if fail_at == "write":
        monkeypatch.setattr(gcx.cli, "open", half_open, raising=False)
    else:
        monkeypatch.setattr(gcx.cli.os, "replace", failing_replace)
    capsys.readouterr()
    assert run_cli(["check", "locus", "--samples", "5", "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("GCX_SEED", "99")
    run_cli(["check", "locus", "--samples", "20", "--output", str(out1)])
    monkeypatch.delenv("GCX_SEED")
    run_cli(["check", "locus", "--samples", "20", "--seed", "99", "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


class UnwritableStdout(io.TextIOBase):
    """A standard output that raises on every write, as a closed pipe or a full device does."""

    def __init__(self, error: OSError):
        self.error = error

    def write(self, text):
        raise self.error


def _command_args(command, tmp_path):
    """Arguments of a passing run of command whose file output goes to tmp_path / out.json."""
    out = str(tmp_path / "out.json")
    if command == "check":
        return ["check", "quotient", "--m", "3", "--k", "2", "--samples", "10", "--output", out]
    src = tmp_path / "input.json"
    if command == "normal-form":
        rho = exp_wedge(1j * Multiform.from_terms(4, {(1, 2): 1.0, (3, 4): 1.0}))
        src.write_text(json.dumps(rho.to_json_dict()))
    else:
        src.write_text(json.dumps(_bracket_payload()))
    return [command, "--input", str(src), "--output", out]


@pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")],
                         ids=["closed", "full"])
@pytest.mark.parametrize("command", ["check", "normal-form", "bracket"])
def test_unwritable_stdout_exits_2_with_one_error_line(command, error, tmp_path, monkeypatch, capsys):
    # the file output is written before stdout and stays whole
    args = _command_args(command, tmp_path)
    monkeypatch.setattr("sys.stdout", UnwritableStdout(error))
    assert run_cli(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write standard output: {error}"]
    written = json.loads((tmp_path / "out.json").read_text())
    if command == "check":
        assert [r["pass"] for r in written] == [True]


@pytest.mark.parametrize("command", ["normal-form", "bracket"])
def test_unwritable_output_file_exits_2_before_printing(command, tmp_path, capsys):
    # a name too long for the file system passes the --output rule and fails at the write
    args = _command_args(command, tmp_path)
    args[-1] = str(tmp_path / ("x" * 300 + ".json"))
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {args[-1]}: ")


@pytest.mark.parametrize("command", ["normal-form", "bracket"])
@pytest.mark.parametrize("output", ["{tmp}/fifo", "{tmp}/missing-dir/out.json", "{tmp}"],
                         ids=["fifo", "missing-dir", "dir"])
def test_output_rule_is_checked_before_the_input_is_read(command, output, tmp_path, capsys):
    os.mkfifo(tmp_path / "fifo")
    output = output.format(tmp=tmp_path)
    assert run_cli([command, "--input", str(tmp_path / "missing.json"), "--output", output]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --output {output!r} is not a file in an existing directory"]
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)


@pytest.mark.parametrize("command", ["normal-form", "bracket"])
def test_fifo_output_exits_2_and_stays_a_fifo(command, tmp_path):
    # opened for writing, a FIFO with no reader blocks forever; a subprocess with a timeout fails instead of hanging
    args = _command_args(command, tmp_path)
    args[-1] = str(tmp_path / "fifo")
    os.mkfifo(args[-1])
    cmd = [sys.executable, "-m", "gcx.cli", *args]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert stat.S_ISFIFO(os.stat(args[-1]).st_mode)


def test_check_on_a_closed_pipe_exits_2_without_a_traceback(tmp_path):
    # a subprocess with a buffered stdout, as from a shell: what the failed flush left is flushed again at
    # exit, which without the null device prints "Exception ignored" and exits 120
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        cmd = [sys.executable, "-m", "gcx.cli", *_command_args("check", tmp_path)]
        proc = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write standard output: [Errno 32] Broken pipe"]
    assert [r["pass"] for r in json.loads((tmp_path / "out.json").read_text())] == [True]


def test_normal_form_command(tmp_path, capsys):
    omega0 = Multiform.from_terms(4, {(1, 2): 1.0, (3, 4): 1.0})
    rho = exp_wedge(1j * omega0)
    src = tmp_path / "spinor.json"
    src.write_text(json.dumps(rho.to_json_dict()))
    out = tmp_path / "nf.json"
    code = run_cli(["normal-form", "--input", str(src), "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "type: 0" in text
    assert "nondegenerate: True" in text
    data = json.loads(out.read_text())
    assert set(data) == {"type", "omega0", "B", "omega", "gauge_unique"}
    assert data["type"] == 0
    assert data["gauge_unique"] is True
    assert data["B"]["terms"] == []
    got_omega = Multiform.from_json_dict(data["omega"])
    assert got_omega.allclose(omega0, tol=1e-12)


def test_normal_form_rejects_impure(tmp_path, capsys):
    omega0 = Multiform.from_terms(4, {(1, 2): 1.0, (3, 4): 1.0})
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(omega0.to_json_dict()))
    assert run_cli(["normal-form", "--input", str(src)]) == 2
    capsys.readouterr()


ODD_DIMENSION = {"dim": 3, "terms": [{"indices": [1], "re": 1, "im": 0}]}
# pure at the rank cutoff, but exp(B + i omega) ^ Omega misses it by a relative 1.023e-10
RECONSTRUCT_MISS = {
    "dim": 2,
    "terms": [
        {"indices": [1, 2], "re": -0.7853865220413269, "im": 1.286833679996803},
        {"indices": [1], "re": -14741777800.344498, "im": -2.14755029817596},
    ],
}


def test_normal_form_odd_dimension_prints_the_factorization(tmp_path, capsys):
    src = tmp_path / "odd.json"
    src.write_text(json.dumps(ODD_DIMENSION))
    assert run_cli(["normal-form", "--input", str(src)]) == 0
    captured = capsys.readouterr()
    assert "type: 1" in captured.out and "nondegenerate: n/a (odd dimension)" in captured.out
    assert "Traceback" not in captured.err


def test_normal_form_failed_cross_check_exits_3(tmp_path, capsys):
    src = tmp_path / "miss.json"
    src.write_text(json.dumps(RECONSTRUCT_MISS))
    assert run_cli(["normal-form", "--input", str(src)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure: normal form failed to reproduce")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_normal_form_refuses_a_coefficient_that_is_not_finite(part, value, tmp_path, capsys):
    # json reads NaN, Infinity and -Infinity: one error line, and no numpy warning before it
    src = tmp_path / "spinor.json"
    src.write_text(json.dumps({"dim": 4, "terms": [{"indices": [], "re": 1.0}, {"indices": [1, 2], part: value}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["normal-form", "--input", str(src)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [str(w.message) for w in caught] == []
    assert len(err) == 1 and err[0].startswith("error: coefficient of [1, 2] must be finite"), err


def test_normal_form_refuses_finite_terms_that_sum_past_double_range(tmp_path, capsys):
    src = tmp_path / "spinor.json"
    src.write_text(json.dumps({"dim": 4, "terms": [{"indices": [1], "re": 1e308}, {"indices": [1], "re": 1e308}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["normal-form", "--input", str(src)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == ["error: coefficient of [1] must be finite, got (inf+0j)"]


# flat draws, so that a failure shrinks fast: (dim, terms of (subset mask, re, im)), magnitudes 1e-200..1e200
magnitudes = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-200, 200)).map(lambda sp: sp[0] * 10.0 ** sp[1])
spinor_inputs = st.tuples(st.integers(2, 4), st.lists(st.tuples(st.integers(0, 15), magnitudes, magnitudes), max_size=5))


def _spinor_json(case):
    dim, terms = case
    masks = {mask % (1 << dim): (re, im) for mask, re, im in terms}
    return {
        "dim": dim,
        "terms": [
            {"indices": [i + 1 for i in range(dim) if mask >> i & 1], "re": re, "im": im}
            for mask, (re, im) in masks.items()
        ],
    }


@settings(max_examples=60, deadline=None)
@example((3, [(1, 1.0, 0.0)]))  # ODD_DIMENSION
@example((2, [(3, -0.7853865220413269, 1.286833679996803), (1, -14741777800.344498, -2.14755029817596)]))  # RECONSTRUCT_MISS
@given(spinor_inputs)
def test_normal_form_keeps_the_exit_code_contract(case):
    # in process: any exception fails the test; stdout and stderr are kept for the Traceback check
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "spinor.json")
        with open(src, "w") as handle:
            json.dump(_spinor_json(case), handle)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = run_cli(["normal-form", "--input", src])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() + out.getvalue()


# flat draws for bracket inputs: a leaf (coordinate 1..dim, or 0 for a constant), then up to three
# operators above it; pow exponents run past the bound, and points include 0, +-1 and +-1e+-300
KINDS = ("add", "mul", "pow", "exp", "log", "sin", "cos")
exponents = st.one_of(st.integers(-80, 80), st.just(10**9))
expression_draws = st.tuples(
    st.integers(0, 4), magnitudes, st.lists(st.tuples(st.sampled_from(KINDS), exponents), max_size=3)
)
coordinates = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300]), st.floats(-10, 10))
bracket_inputs = st.tuples(
    st.integers(2, 4),
    st.lists(coordinates, min_size=5, max_size=5),
    st.lists(st.tuples(st.integers(0, 15), expression_draws), max_size=3),  # generator slots of u, then v
    st.one_of(st.none(), expression_draws),  # the coefficient of H on the first three (or two) coordinates
    st.integers(-1, 1),  # the point has dim - 1, dim or dim + 1 of the coordinates
    st.one_of(st.none(), st.lists(st.booleans(), min_size=5, max_size=5)),  # a periodic mask of the point's length
)


def _expression(draw, dim):
    leaf, value, ops = draw
    node = {"coord": (leaf - 1) % dim + 1} if leaf else {"const": {"re": value}}
    for kind, k in ops:
        if kind == "pow":
            node = {"pow": [node, k]}
        elif kind in ("add", "mul"):
            node = {kind: [node, {"coord": k % dim + 1}]}
        else:
            node = {kind: node}
    return node


def _bracket_json(case):
    dim, point, slots, h, extra, periodic = case
    generators = [{"const": {}} for _ in range(4 * dim)]
    for slot, draw in slots:
        generators[slot % (4 * dim)] = _expression(draw, dim)
    u, v = generators[: 2 * dim], generators[2 * dim :]
    data = {
        "dim": dim,
        "point": point[: dim + extra],
        "u": {"vec": u[:dim], "cov": u[dim:]},
        "v": {"vec": v[:dim], "cov": v[dim:]},
    }
    if periodic is not None:
        data["periodic"] = periodic[: dim + extra]
    if h is not None:
        data["H"] = {"terms": [{"indices": list(range(1, min(dim, 3) + 1)), "expr": _expression(h, dim)}]}
    return data


@settings(max_examples=60, deadline=None)
@example((4, [0.5, 0.3, 0.4, 0.5, 0.0], [(0, (1, 0.0, [("pow", 10**9)]))], None, 0, None))  # ran for an hour
@example((4, [1e300, 1e300, 0.5, 0.5, 0.0], [(15, (1, 0.0, [("mul", 1)]))], None, 0, None))  # x1 x2 dx4 is NaN
@example((4, [0.6, -0.1, 0.4, 0.9, 0.2], [], None, -1, [False] * 5))  # 3 coordinates: an IndexError traceback
@example((4, [0.6, -0.1, 0.4, 0.9, 0.2], [], None, 1, [False] * 5))  # 5 coordinates: the fifth was dropped
@given(bracket_inputs)
def test_bracket_keeps_the_exit_code_contract(case):
    # in process, as the normal-form property: any exception fails the test
    data = _bracket_json(case)
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "fields.json")
        with open(src, "w") as handle:
            json.dump(data, handle)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = run_cli(["bracket", "--input", src])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() + out.getvalue()
    if code == 0:  # strict JSON: NaN and Infinity refused
        json.loads(out.getvalue(), parse_constant=_refuse_non_finite)
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if len(data["point"]) != data["dim"]:
        assert code == 2 and err.getvalue().startswith("error: point "), err.getvalue()


def _refuse_non_finite(name):
    raise ValueError(f"{name} is not a JSON number")


# gcx check argv: flags in bounds (or left out, None), then at most one flag out of bounds, which argparse reads
# last and so overrides; --samples stays small, so that no example runs long
BAD_CHECK_FLAGS = [
    *[(f"--tol={t}",) for t in ("0", "-1", "nan", "inf")],
    *[(f"--windows={w}",) for w in ("2:1", "1:2,1.5:3", "2:3,1:1.5", "1:inf", "1:nan", "a:b", "1", ",")],
    *[(f"--r-min={r}",) for r in ("-0.5", "0", "1", "2", "nan")],
    *[(f"--r-out={r}",) for r in ("0.5", "1", "inf", "nan")],
    # just past MAX_M and MAX_K, k not coprime with m, m < 1
    ("--m=201", "--k=1"), ("--m=2", "--k=101"), ("--m=3", "--k=-101"), ("--m=4", "--k=2"), ("--m=0", "--k=1"),
    ("--m=6",),  # alone, or with a drawn k: 0, 100 and -99 all share a factor with 6
    *[(f"--output={o}",) for o in ("{tmp}", "{tmp}/missing-dir/r.json", "{tmp}/fifo")],
]
check_argv = st.tuples(
    st.sampled_from(CHECK_TARGETS),
    st.one_of(st.none(), st.integers(-(2**31), 2**64)),  # --seed
    st.integers(1, 8),  # --samples
    st.sampled_from([None, "1e-300", "1e300"]),  # --tol
    st.sampled_from([None, "1:1.6,2:2.6", "1:1.0000001"]),  # --windows
    st.sampled_from([None, "1e-300", "0.9"]),  # --r-min
    st.sampled_from([None, "1.0000001", "1e300"]),  # --r-out
    # --m/--k: the largest accepted at the default --r-min, and MAX_M, which is past the bound of that --r-min and
    # accepted from --r-min 0.17 on
    st.sampled_from([None, (1, 0), (153, 100), (200, -99)]),
    st.sampled_from([None, "flat", "poly"]),  # --profile
    st.one_of(st.none(), st.sampled_from(BAD_CHECK_FLAGS)),
)


def _check_argv(case, tmp):
    target, seed, samples, tol, windows, r_min, r_out, mk, profile, bad = case
    flags = [("--seed", seed), ("--tol", tol), ("--windows", windows), ("--r-min", r_min), ("--r-out", r_out)]
    flags += [("--profile", profile), *zip(("--m", "--k"), mk or ())]
    argv = ["check", target, f"--samples={samples}", f"--output={tmp}/r.json"]
    argv += [f"{flag}={value}" for flag, value in flags if value is not None]  # = keeps a negative value a value
    return argv + [arg.format(tmp=tmp) for arg in bad or ()]


@settings(max_examples=50, deadline=None)
@example(("locus", None, 1, None, None, None, None, None, None, ("--output={tmp}/fifo",)))  # renamed over
@example(("all", 42, 3, "1e-300", None, None, None, None, None, None))  # every residual fails: exit 1
@given(check_argv)
def test_check_keeps_the_exit_code_contract(case):
    # in process, as the normal-form property: any exception fails the test
    with tempfile.TemporaryDirectory() as tmp:
        fifo = os.path.join(tmp, "fifo")
        os.mkfifo(fifo)
        argv = _check_argv(case, tmp)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = run_cli(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue() + out.getvalue()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert code == 2 or case[-1] is None, (argv, code)  # every flag out of bounds is refused
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        if code in (0, 1):  # a verdict: the report is written, and exit 1 only when it holds a failed check
            with open(os.path.join(tmp, "r.json")) as handle:
                passed = [r["pass"] for r in json.load(handle)]
            assert passed and all(passed) == (code == 0), (argv, passed)


def test_bracket_command(tmp_path, capsys):
    # u = d/dx1, v = x1 dx2: bracket = dx2
    payload = {
        "dim": 4,
        "point": [0.6, -0.1, 0.4, 0.9],
        "u": {
            "vec": [{"const": {"re": 1.0}}, {"const": {}}, {"const": {}}, {"const": {}}],
            "cov": [{"const": {}}, {"const": {}}, {"const": {}}, {"const": {}}],
        },
        "v": {
            "vec": [{"const": {}}, {"const": {}}, {"const": {}}, {"const": {}}],
            "cov": [{"const": {}}, {"coord": 1}, {"const": {}}, {"const": {}}],
        },
    }
    src = tmp_path / "fields.json"
    src.write_text(json.dumps(payload))
    code = run_cli(["bracket", "--input", str(src)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cov"][1] == {"re": 1.0, "im": 0.0}
    assert all(c == {"re": 0.0, "im": 0.0} for c in data["vec"])


def test_bracket_with_h_field(tmp_path, capsys):
    zero = {"const": {}}
    one = {"const": {"re": 1.0}}
    payload = {
        "dim": 4,
        "point": [0.2, 0.3, 0.4, 0.5],
        "u": {"vec": [one, zero, zero, zero], "cov": [zero] * 4},
        "v": {"vec": [zero, one, zero, zero], "cov": [zero] * 4},
        "H": {"terms": [{"indices": [1, 2, 3], "expr": one}]},
    }
    src = tmp_path / "fields.json"
    src.write_text(json.dumps(payload))
    assert run_cli(["bracket", "--input", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cov"][2] == {"re": 1.0, "im": 0.0}


def _square_bracket_payload(**extra):
    """u = d/dx1 and v = x1^2 dx2 at x1 = 1.6, whose bracket is 2 x1 dx2: 3.2, or 1.2 with x1 reduced mod 1."""
    zero = {"const": {}}
    v = {"vec": [zero] * 4, "cov": [zero, {"pow": [{"coord": 1}, 2]}, zero, zero]}
    return {**_bracket_payload(point=[1.6, 0.3, 0.4, 0.5]), "v": v, **extra}


@pytest.mark.parametrize(
    "extra, dx2",
    [({}, 3.2), ({"periodic": [False] * 4}, 3.2), ({"periodic": [True, False, False, False]}, 1.2)],
    ids=["absent", "all-false", "x1-periodic"],
)
def test_bracket_reads_a_boolean_periodic_mask(extra, dx2, tmp_path, capsys):
    src = tmp_path / "fields.json"
    src.write_text(json.dumps(_square_bracket_payload(**extra)))
    assert run_cli(["bracket", "--input", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["cov"][1]["re"] == pytest.approx(dx2, abs=1e-12)


@pytest.mark.parametrize(
    "periodic",
    [["false", False, False, False], [1, False, False, False], "ffff", None, {"x1": True}, [[False]] * 4],
    ids=["string-false", "leading-1", "string", "null", "object", "nested-lists"],
)
def test_bracket_refuses_a_periodic_mask_that_is_not_booleans(periodic, tmp_path, capsys):
    # bool() would read "false", 1 and every character of "ffff" as periodic, and reduce x1 modulo 1
    src = tmp_path / "fields.json"
    src.write_text(json.dumps(_square_bracket_payload(periodic=periodic)))
    assert run_cli(["bracket", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: periodic must be "), err
    assert captured.out == ""


def test_check_jobs_flag_rejected(tmp_path, capsys):
    # the --jobs thread pool is gone; run-to-run byte identity is criterion 10
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "surgery", "--jobs", "2", "--output", str(tmp_path / "rep.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_check_all_runs_on_one_core(tmp_path):
    # a product that reaches OpenBLAS's threaded kernels keeps worker threads spinning: CPU time past wall
    # time.  The child times itself from after its imports, so the spin of OpenBLAS's start-up threads
    # during `import numpy` is not counted against the checks.
    env = _child_env()
    child = (
        "import sys, time\n"
        "import gcx.cli\n"
        "cpu, wall = time.process_time(), time.perf_counter()\n"
        "code = gcx.cli.main(sys.argv[1:])\n"
        "print(code, time.process_time() - cpu, time.perf_counter() - wall)\n"
    )
    cmd = [sys.executable, "-c", child, "check", "all", "--seed", "42", "--output", str(tmp_path / "r.json")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, cpu, wall = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stdout
    cpu, wall = float(cpu), float(wall)
    assert cpu <= 1.2 * wall, f"CPU {cpu:.2f} s against {wall:.2f} s wall"
