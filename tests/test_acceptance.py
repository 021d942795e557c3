"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and match the check defaults they certify.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gcx import conventions
from gcx.chart import ChartPoint, integrability_residual
from gcx.cli import main as cli_main
from gcx.models import CHART_CPLANE, LogModelParams, local_model_spinor
from gcx.multilinear import (
    GcVector,
    Multiform,
    clifford,
    exp_wedge,
    pairing,
    pairing_gram,
)
from gcx.spinor import annihilator, normal_form
from gcx.verify import (
    FIBER_LATTICE,
    check_h_properties,
    check_integrability,
    check_locus,
    check_quotient,
    check_symplectomorphism,
    locate_type_change,
    locus_complex_structures,
)

N = 4
SEED = 42


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def omega0():
    return Multiform.from_terms(N, {(1, 2): 1.0, (3, 4): 1.0})


def dz1_dz2():
    return Multiform.from_terms(N, {(1,): 1.0, (2,): 1j}).wedge(
        Multiform.from_terms(N, {(3,): 1.0, (4,): 1j})
    )


def test_criterion_01_clifford_relation_and_signature():
    rng = np.random.default_rng(SEED)
    start = time.process_time()  # CPU time: a busy shared host stretches wall time, not the work
    worst = 0.0
    for _ in range(10_000):
        rho = Multiform(N, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        v = GcVector(
            N,
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
        )
        lhs = clifford(v, clifford(v, rho))
        rhs = pairing(v, v) * rho
        scale = max(rho.max_abs() * abs(pairing(v, v)), rho.max_abs(), 1e-30)
        worst = max(worst, (lhs - rhs).max_abs() / scale)
    elapsed = time.process_time() - start
    evals = np.linalg.eigvalsh(pairing_gram(N))
    signature_ok = int(np.sum(evals > 0)) == 4 and int(np.sum(evals < 0)) == 4
    report(
        1,
        "clifford-relation",
        worst <= 1e-12 and signature_ok and elapsed < 1.0,
        f"max rel err {worst:.2e}, signature (4,4): {signature_ok}, {elapsed:.2f}s",
    )


def test_criterion_02_annihilators_and_normal_form_roundtrip():
    cases = [exp_wedge(1j * omega0()), dz1_dz2(), Multiform.basis(N, (1,))]
    dims = []
    isotropy = 0.0
    for rho in cases:
        ann = annihilator(rho)
        dims.append(len(ann))
        isotropy = max(isotropy, ann.max_pairing())
    dims_ok = dims == [4, 4, 4]

    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for trial in range(1000):
        k = trial % 3
        b = Multiform(N, rng.standard_normal(16) + 1j * rng.standard_normal(16)).degree_part(2)
        if k == 0:
            om = Multiform.scalar(N, complex(*rng.standard_normal(2)) + 2.0)
        elif k == 1:
            om = Multiform(N, rng.standard_normal(16) + 1j * rng.standard_normal(16)).degree_part(1)
        else:
            a1 = Multiform(N, rng.standard_normal(16) + 1j * rng.standard_normal(16)).degree_part(1)
            a2 = Multiform(N, rng.standard_normal(16) + 1j * rng.standard_normal(16)).degree_part(1)
            om = a1.wedge(a2)
        rho = exp_wedge(b).wedge(om)
        nf = normal_form(rho)
        rebuilt = exp_wedge(nf.b_plus_i_omega()).wedge(nf.omega0)
        worst = max(worst, np.linalg.norm((rebuilt - rho).coeffs) / np.linalg.norm(rho.coeffs))
    report(
        2,
        "annihilator-and-normal-form",
        dims_ok and isotropy <= 1e-12 and worst <= 1e-10,
        f"dims {dims}, isotropy {isotropy:.2e}, roundtrip {worst:.2e}",
    )


def test_criterion_03_local_model_integrability_and_type():
    rho = local_model_spinor()
    rng = np.random.default_rng(SEED + 2)
    v_expected = GcVector(N, vec=[0, 0, -0.5, 0.5j])
    worst = 0.0
    witness_worst = 0.0
    for _ in range(1000):
        p = ChartPoint(CHART_CPLANE, tuple(rng.uniform(-1, 1, 4)))
        wit = integrability_residual(rho, None, p)
        worst = max(worst, wit.residual)
        val = rho(p).value()
        witness_worst = max(
            witness_worst, (clifford(wit.v, val) - clifford(v_expected, val)).max_abs()
        )
    types_ok = True
    for _ in range(200):
        on = ChartPoint(CHART_CPLANE, (0.0, 0.0, *rng.uniform(-1, 1, 2)))
        types_ok &= normal_form(rho(on).value()).type == 2
        x = rng.uniform(-1, 1, 4)
        if abs(complex(x[0], x[1])) > 1e-3:
            off = ChartPoint(CHART_CPLANE, tuple(x))
            types_ok &= normal_form(rho(off).value()).type == 0
    report(
        3,
        "local-model",
        worst <= 1e-10 and witness_worst <= 1e-10 and types_ok,
        f"residual {worst:.2e}, witness {witness_worst:.2e}, types ok: {types_ok}",
    )


def test_criterion_04_symplectomorphism():
    start = time.perf_counter()
    rep = check_symplectomorphism(samples=1000, seed=SEED, tol=1e-10)
    elapsed = time.perf_counter() - start
    report(
        4,
        "gluing-symplectomorphism",
        rep.passed and rep.max_residual <= 1e-10 and elapsed < 5.0,
        f"max residual {rep.max_residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_h_suite():
    rep = check_h_properties(samples=500, seed=SEED, tol=1e-8)
    sign_note = next(n for n in rep.notes if "slice integral" in n)
    report(
        5,
        "h-suite",
        rep.passed and rep.max_residual <= 1e-8,
        f"f' fundamental-theorem residual {rep.max_residual:.2e}; {sign_note}",
    )


def test_criterion_06_glued_integrability_with_negative_control():
    worst = 0.0
    for region in ("polar", "bump", "outer", "cplane"):
        rep = check_integrability(region, samples=500, seed=SEED, tol=1e-8)
        assert rep.passed, rep.check
        worst = max(worst, rep.max_residual)
    control = check_integrability("bump", samples=200, seed=SEED, flip_h_sign=True)
    report(
        6,
        "glued-integrability",
        worst <= 1e-8 and control.max_residual > 1e-3,
        f"four-region residual {worst:.2e}, wrong-sign residual {control.max_residual:.2e}",
    )


def test_criterion_07_quotient_suite():
    details = []
    ok = True
    for m, k in ((1, 0), (2, 1), (3, 2), (5, 2)):
        rep = check_quotient(LogModelParams(m, k), samples=300, seed=SEED)
        ok &= rep.passed
        details.append(f"(m={m},k={k}) {rep.max_residual:.1e}")
    report(7, "quotient-suite", ok, "; ".join(details))


def test_criterion_08_locus_suite():
    rep = check_locus(seeds_count=100, seed=SEED, tol=1e-9)
    # spot re-verification of tau with the production pieces
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.25, -0.3, 0.5, 0.5))])[0]
    tau = locus_complex_structures(rho, [lp], FIBER_LATTICE)[0][0]
    report(
        8,
        "locus-suite",
        rep.passed and abs(tau - 1j) <= 1e-9,
        f"max residual {rep.max_residual:.2e}, tau {tau:.9f}",
    )


def test_criterion_09_b_transform_bracket_suite():
    from gcx.chart import FormField, GcField, courant_bracket, e_b_transform
    from gcx.jets import FormJet
    from gcx.multilinear import interior_coeffs
    from helpers_naive import central_partials, random_polynomial

    rng = np.random.default_rng(SEED + 3)
    chart = "flat"

    def rand_gc():
        return GcField.from_expressions(
            chart,
            N,
            [random_polynomial(rng, N) for _ in range(N)],
            [random_polynomial(rng, N) for _ in range(N)],
        )

    def rand_form(masks):
        return FormField.from_expressions(
            chart,
            N,
            [{"indices": list(mk), "expr": random_polynomial(rng, N)} for mk in masks],
        )

    def d_field(f, partials=False):
        """d f, values alone; with partials (a closed B in a bracket), central differences of its values."""

        def values(c):
            return f.fn(c).d().values

        def fn(c):
            return FormJet(N, values(c), central_partials(values, c) if partials else None)

        return FormField(chart, N, fn)

    def apply_eb(bvals, w):
        """E_B on generator components (2N, count) at a block, with B's coefficients there."""
        ixb = interior_coeffs(bvals, w[:N])
        return w + np.concatenate([np.zeros_like(w[:N]), ixb[[1 << i for i in range(N)]]])

    h = d_field(rand_form([(1, 2), (3, 4)]))
    closed_b = d_field(rand_form([(1,), (2,), (3,), (4,)]), partials=True)
    open_b = rand_form([(1, 2), (1, 4), (2, 3)])
    d_open_b = d_field(open_b)

    shift_sign = float(conventions.BRACKET_SHIFT_SIGN)
    u, v = rand_gc(), rand_gc()
    # 200 points, drawn one after another, evaluated as one block
    p = ChartPoint(chart, tuple(rng.uniform(-1, 1, (200, 4)).T))
    # closed B: plain equivariance
    ub, vb = e_b_transform(closed_b, u), e_b_transform(closed_b, v)
    lhs = courant_bracket(ub, vb, h, p)
    rhs = apply_eb(closed_b(p).values, courant_bracket(u, v, h, p))
    worst_closed = np.linalg.norm(lhs - rhs, axis=0).max()
    # non-closed B: frozen shift [E_B u, E_B v]_H = E_B([u,v]_{H+s*dB})
    ub, vb = e_b_transform(open_b, u), e_b_transform(open_b, v)
    lhs = courant_bracket(ub, vb, h, p)
    h_shift = FormField(chart, N, lambda c: FormJet(N, h.fn(c).values + d_open_b.fn(c).values * shift_sign))
    rhs = apply_eb(open_b(p).values, courant_bracket(u, v, h_shift, p))
    worst_shift = np.linalg.norm(lhs - rhs, axis=0).max()
    report(
        9,
        "b-transform-brackets",
        worst_closed <= 1e-8 and worst_shift <= 1e-8,
        f"closed-B {worst_closed:.2e}, shifted {worst_shift:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    # the second run is a fresh interpreter importing the same gcx package
    import gcx

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gcx.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out_a, out_b = tmp_path / "report-a.json", tmp_path / "report-b.json"
    assert cli_main(["check", "all", "--seed", "42", "--output", str(out_a)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "gcx.cli", "check", "all", "--seed", "42", "--output", str(out_b)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    identical = out_a.read_bytes() == out_b.read_bytes()
    reports = json.loads(out_a.read_bytes())
    report(
        10,
        "determinism",
        identical and all(r["pass"] for r in reports),
        f"{len(reports)} checks byte-identical across two processes: {identical}",
    )
