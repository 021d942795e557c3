"""Negative controls for the benchmark's correctness checks.

Each check must accept the program's real output and reject a wrong one.
Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gcx import chart, models, spinor  # noqa: E402


def _report(name, passed=True, residual=0.0):
    return {"check": name, "pass": passed, "max_residual": residual, "worst_point": [0.5, 0.1, 0.2, 0.3]}


def test_reports_missing_or_failed_are_rejected():
    expected = ["a", "b"]
    assert checks.check_reports([_report("a"), _report("b")], expected) == []
    assert checks.check_reports([_report("a")], expected)
    assert checks.check_reports([_report("a"), _report("b", passed=False)], expected)


def test_negative_control_needs_a_large_residual():
    name = checks.NEGATIVE_CONTROL
    assert checks.check_negative_control([_report(name, residual=2.7)]) == []
    assert checks.check_negative_control([_report(name, residual=1e-4)])
    assert checks.check_negative_control([_report("other")])


POINTS = [(0.7, 0.1, 0.2, 0.3), (0.95, 0.6, 0.9, 0.45)]


def _annulus(p):
    return chart.ChartPoint(models.CHART_ANNULUS, p, models.ANGLES)


def test_gluing_identity_matches_the_program():
    psi, sigma = models.gluing_map(), models.tube_symplectic()
    program = lambda p: chart.pullback(psi, sigma, _annulus(p)).coeffs
    assert checks.check_two_form_identity("gluing", POINTS, program, oracle.gluing_pullback(), oracle.annulus_omega()) == []
    # a gluing map without the square root is not a symplectomorphism
    wrong = oracle.TwoFormOracle(oracle._pullback_matrix(
        [1 + 2 * oracle.sp.log(oracle.R), oracle.T3, oracle.T2, -oracle.T1],
        lambda y: {(0, 1): y[0], (2, 3): oracle.sp.Integer(1)},
    ))
    assert checks.check_two_form_identity("gluing", POINTS, program, wrong, oracle.annulus_omega())


def test_quotient_identity_rejects_the_wrong_model():
    params = models.LogModelParams(3, 2)
    qmap, omega_q = models.quotient_map(params), models.log_model(params)[1]
    program = lambda p: chart.pullback(qmap, omega_q, _annulus(p)).coeffs
    good = oracle.quotient_pullback(3, 2)
    assert checks.check_two_form_identity("q", POINTS, program, good, oracle.annulus_omega()) == []
    other = models.log_model(models.LogModelParams(2, 1))[1]
    wrong_program = lambda p: chart.pullback(qmap, other, _annulus(p)).coeffs
    assert checks.check_two_form_identity("q", POINTS, wrong_program, good, oracle.annulus_omega())


def test_fold_into_keeps_inside_points_and_folds_outside_ones():
    lo, hi = checks.GLUING_DOMAIN
    assert checks.fold_into((0.8, 1.25, 0.5, -0.25), (lo, hi)) == (0.8, 0.25, 0.5, 0.75)
    assert lo < checks.fold_into((0.0, 0.1, 0.2, 0.3), (lo, hi))[0] <= hi


def test_slice_integral_is_plus_one_and_minus_one_fails():
    window = (1.0, 2.0)
    h = models.b_extension_and_h(models.SurgeryGeometry(), window)[1]
    coefficient = lambda *c: workloads.h_coefficient(h, c)
    angles = [(0.2, 0.7)]
    integral = checks.slice_integral(coefficient, window, 0.37, angles)
    assert checks.check_slice_integral(window, integral) == []
    flipped = checks.slice_integral(lambda *c: -coefficient(*c), window, 0.37, angles)
    assert abs(flipped + 1.0) < 1e-6
    assert checks.check_slice_integral(window, flipped)


def test_normal_form_check_rejects_wrong_type_and_wrong_factors():
    rng = np.random.default_rng(5)
    for expected, rho in ((0, workloads._symplectic_spinor(rng)), (2, workloads._complex_spinor(rng))):
        nf = spinor.normal_form(rho)
        exponent = nf.b_plus_i_omega().coeffs
        assert checks.check_normal_form(expected, rho.coeffs, nf.type, nf.omega0.coeffs, exponent) == []
        assert checks.check_normal_form(2 - expected, rho.coeffs, nf.type, nf.omega0.coeffs, exponent)
        assert checks.check_normal_form(expected, rho.coeffs, nf.type, nf.omega0.coeffs, 1.01 * exponent)


@pytest.fixture(scope="module")
def query():
    return workloads._bracket_query(np.random.default_rng(11))


def test_bracket_is_skew_and_a_symmetric_result_is_rejected(query):
    forward = workloads.bracket(query)
    backward = workloads.bracket(query, swap=True)
    assert checks.check_skew(forward, backward) == []
    assert checks.check_skew(forward, forward)


def test_bracket_matches_the_oracle_and_a_flipped_twist_does_not(query):
    expected = oracle.courant_bracket(query)
    assert checks.check_bracket_oracle(workloads.bracket(query), expected) == []
    flipped = json.loads(json.dumps(query))
    for term in flipped["H"]["terms"]:
        term["expr"] = {"mul": [{"const": {"re": -1.0}}, term["expr"]]}
    assert checks.check_bracket_oracle(workloads.bracket(flipped), expected)


def test_located_point_must_sit_on_the_locus():
    assert checks.check_located((1e-12, -1e-12, 0.3, 0.4), True) == []
    assert checks.check_located((1e-6, 0.0, 0.3, 0.4), True)
    assert checks.check_located((0.0, 0.0, 0.3, 0.4), False)


LOCAL_MODEL = ("integrability_cplane", "integrability_polar", "type_jump", "polar_compatibility")


def test_check_run_times_the_program_and_counts_a_raising_check(monkeypatch):
    from gcx import cli, verify

    run_checks, write_reports = cli.run_checks, cli._write_reports
    wl = workloads.CheckRun("test-local-model", ["check", "local-model", "--samples", "20"], LOCAL_MODEL)
    inputs = wl.setup(1)
    result = wl.run_pass(inputs, time.perf_counter)
    assert [r["check"] for r in result.outputs] == list(LOCAL_MODEL) and result.failed == 0
    assert [u for u, _ in result.units] == [*LOCAL_MODEL, workloads.WRITE_UNIT, workloads.REST_UNIT]
    assert all(t >= 0 for _, t in result.units)
    assert wl.check(inputs, result.outputs, 1) == []

    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(verify, "check_type_jump", broken)
    result = wl.run_pass(inputs, time.perf_counter)
    # the program writes the two reports before the raising check; the two checks left count as failed
    assert [r["check"] for r in result.outputs] == list(LOCAL_MODEL[:2]) and result.failed == 2
    assert (cli.run_checks, cli._write_reports) == (run_checks, write_reports)


def test_tracer_restores_every_original():
    from gcx import jets, multilinear

    before = (jets.FormJet.wedge, chart.ChartMap.jets, chart.FormField.__init__, jets.Jet2.__init__,
              spinor.normal_form, models.b_extension_and_h, multilinear.clifford)
    t = tracer.Tracer()
    t.begin_pass()
    assert jets.FormJet.wedge is not before[0]
    spinor.normal_form(workloads._symplectic_spinor(np.random.default_rng(1)))
    layer = t.end_pass()
    after = (jets.FormJet.wedge, chart.ChartMap.jets, chart.FormField.__init__, jets.Jet2.__init__,
             spinor.normal_form, models.b_extension_and_h, multilinear.clifford)
    assert after == before
    assert layer["spinor.normal_form.calls"] == 1
    assert layer["multilinear.wedge.calls"] > 0
    assert layer["spinor.normal_form.self_s"] > 0 and layer["multilinear.wedge.self_s"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "pass_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
