import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcx.chart import ChartMap, ChartPoint, pullback
from gcx.models import (
    ANGLES,
    CHART_ANNULUS,
    CHART_CPLANE,
    CHART_TUBE,
    LogModelParams,
    SurgeryGeometry,
    local_model_polar,
    local_model_spinor,
    tube_symplectic,
)
from gcx import verify
from gcx.verify import (
    FIBER_LATTICE,
    check_h_properties,
    check_integrability,
    check_locus,
    check_plan,
    check_polar_compatibility,
    check_quotient,
    check_symplectomorphism,
    check_type_jump,
    degenerate_locus_field,
    locate_type_change,
    locus_complex_structures,
    reduce_modular,
)


def test_symplectomorphism_check_passes():
    rep = check_symplectomorphism(samples=300, seed=42, tol=1e-10)
    assert rep.passed
    assert rep.max_residual <= 1e-10
    assert rep.samples == 300


def test_symplectomorphism_perturbed_map_fails():
    # perturbation oracle: nudging the tube radius by 0.01 must break the identity
    def fwd(ins):
        r, t1, t2, t3 = ins
        rt = (1.0 + 2.0 * r.log()).sqrt() + 0.01
        return [rt, t3, t2, -1.0 * t1]

    bad_psi = ChartMap(CHART_ANNULUS, CHART_TUBE, 4, fwd, target_periodic=ANGLES)
    sigma = tube_symplectic()
    _, omega = local_model_polar()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        p = ChartPoint(CHART_ANNULUS, (rng.uniform(0.62, 1.0), *rng.uniform(0, 1, 3)), ANGLES)
        worst = max(worst, (pullback(bad_psi, sigma, p) - omega(p).value()).max_abs())
    assert worst > 1e-3


def test_symplectomorphism_single_boundary_sample():
    rep = check_symplectomorphism(samples=1, seed=0, tol=1e-10)
    assert rep.passed


@pytest.mark.parametrize("region", ["cplane", "polar", "bump", "outer"])
def test_integrability_regions_pass(region):
    rep = check_integrability(region, samples=60, seed=42, tol=1e-8)
    assert rep.passed, rep.notes
    assert rep.max_residual <= 1e-8


def test_integrability_wrong_h_sign_fails():
    rep = check_integrability("bump", samples=60, seed=42, flip_h_sign=True)
    assert rep.passed  # the negative control passes when the residual is large
    assert rep.max_residual > 1e-3
    assert list(rep.components) == ["wrong_sign"] and rep.components["wrong_sign"].figure == rep.max_residual
    assert rep.check == "h_sign_negative_control"


def test_integrability_invalid_region():
    with pytest.raises(ValueError, match="unknown integrability region"):
        check_integrability("nowhere")


def test_h_properties_default_geometry():
    rep = check_h_properties(samples=200, seed=42)
    assert rep.passed
    assert rep.max_residual <= 1e-8
    integral = rep.components["slice_integral"]
    assert integral.passed and abs(integral.figure - 1.0) <= 1e-6 and integral.worst_point is None
    assert rep.notes[0] == f"slice integral = {integral.figure:.9f} (sign +1)"


def test_h_properties_fails_on_flipped_slice_sign(monkeypatch):
    # negative control for H_SLICE_SIGN: the default bump integrates to +1,
    # so a frozen convention of -1 must fail the report
    from gcx import conventions

    monkeypatch.setattr(conventions, "H_SLICE_SIGN", -1)
    rep = check_h_properties(samples=20, seed=42)
    assert not rep.passed
    integral = rep.components["slice_integral"]
    assert not integral.passed and integral.figure > 0.0  # the bump still integrates to +1
    assert rep.components["fundamental_theorem"].passed and rep.components["support"].passed


def test_polar_compatibility_fails_on_turn_angle_overlap(monkeypatch):
    # negative control for POLAR_OVERLAP: the geometric torus angle
    # z1 = r e^{2 pi i theta1} scales the dtheta1 terms by 2*pi, so an
    # overlap map built on it must fail the report
    import gcx.verify
    from gcx.models import polar_overlap_map

    assert check_polar_compatibility(samples=20, seed=42).passed
    monkeypatch.setattr(
        gcx.verify, "polar_overlap_map", lambda: polar_overlap_map(angle_scale=2 * math.pi)
    )
    rep = check_polar_compatibility(samples=20, seed=42)
    assert not rep.passed
    assert rep.max_residual > 1.0


def test_h_slice_integral_vanishes_outside_window():
    # quadrature over radii beyond the bump support sees an exactly zero form
    from gcx.models import b_extension_and_h

    geo = SurgeryGeometry()
    _, h = b_extension_and_h(geo)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    lo, hi = geo.r_out, geo.r_out + 1.0
    radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    integral = 0.5 * (hi - lo) * sum(
        w * h(ChartPoint(CHART_TUBE, (r, 0.1, 0.37, 0.9), ANGLES)).value().coeffs[0b1011].real
        for w, r in zip(weights, radii)
    )
    assert integral == 0.0


def test_h_properties_disjoint_windows():
    geo = SurgeryGeometry(r_out=4.0)
    rep1 = check_h_properties(geometry=geo, samples=100, seed=7, window=(1.0, 2.0))
    rep2 = check_h_properties(geometry=geo, samples=100, seed=7, window=(2.5, 3.5))
    assert rep1.passed and rep2.passed
    assert rep1.params["window"] == [1.0, 2.0]
    assert rep2.params["window"] == [2.5, 3.5]


def test_integrability_bump_in_second_window():
    geo = SurgeryGeometry(r_out=4.0)
    rep = check_integrability("bump", samples=60, seed=3, geometry=geo, window=(2.5, 3.5))
    assert rep.passed


@pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2), (5, 2)])
def test_quotient_checks(m, k):
    rep = check_quotient(LogModelParams(m, k), samples=80, seed=42)
    assert rep.passed, rep.notes
    assert any("discrepancy" in n for n in rep.notes)


def test_type_jump():
    rep = check_type_jump(samples=60, seed=42)
    assert rep.passed


def test_type_jump_worst_point_is_the_misclassified_point(monkeypatch):
    # classify the fifth drawn point wrongly in its block: the report must name it
    from gcx import verify
    from gcx.chart import FormField

    rho = local_model_spinor()
    seen = []  # the evaluated points, in draw order
    classified = []  # how many points the block path has typed so far, per call

    def recording(coords):
        seen.extend(zip(*coords))
        return rho.fn(coords)

    real_normal_forms = verify.normal_forms

    def wrong_at_fifth(coeffs):
        types, *rest = real_normal_forms(coeffs)
        start = sum(classified)
        classified.append(len(types))
        if start <= 4 < start + len(types):
            types = types.copy()
            types[4 - start] = 1
        return (types, *rest)

    monkeypatch.setattr(verify, "local_model_spinor", lambda: FormField(rho.chart, 4, recording))
    monkeypatch.setattr(verify, "normal_forms", wrong_at_fifth)
    rep = check_type_jump(samples=20, seed=42)
    assert not rep.passed
    assert rep.max_residual == 1.0
    assert rep.worst_point == list(seen[4])
    assert rep.worst_point != list(seen[0])


def test_polar_compatibility_check():
    rep = check_polar_compatibility(samples=60, seed=42, tol=1e-9)
    assert rep.passed
    assert rep.max_residual <= 1e-9


# ------------------------------------------------------------- locus


def test_locate_type_change_from_seed():
    rho = local_model_spinor()
    seed_pt = ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.45, 0.81))
    lp = locate_type_change(rho, [seed_pt])[0]
    assert lp.converged
    assert lp.nondegenerate
    assert abs(complex(lp.location.coords[0], lp.location.coords[1])) < 1e-10
    # fibre coordinates are untouched by the Newton step on this model
    assert lp.location.coords[2] == pytest.approx(0.45)
    # the tangent plane, the Jacobian's kernel, is the fibre plane: FIBER_LATTICE passes the lattice check
    tangent = np.linalg.svd(verify._scalar_jacobian(rho(lp.location)))[2][2:]
    assert np.abs(tangent[:, :2]).max() < 1e-9


def test_scalar_jacobian_is_a_view_of_the_partials():
    # the Newton loop reads (Re, Im) of rho0's partials in place, with the values np.vstack would copy;
    # on a block of 5 points, each (2, n) slice is that point's Jacobian
    block = ChartPoint(CHART_CPLANE, tuple(np.random.default_rng(3).uniform(-0.4, 0.9, (4, 5))))
    for field in (local_model_spinor(), degenerate_locus_field()):
        jet = field(ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.45, 0.81)))
        jac = verify._scalar_jacobian(jet)
        assert np.shares_memory(jac, jet.grads)
        expected = np.vstack([jet.grads[0].real, jet.grads[0].imag])
        assert jac.shape == expected.shape and np.ascontiguousarray(jac).tobytes() == expected.tobytes()
        jet = field(block)
        jac = verify._scalar_jacobian(jet)
        assert np.shares_memory(jac, jet.grads) and jac.shape == (5, 2, 4)
        expected = np.stack([jet.grads[0].real, jet.grads[0].imag], axis=1)
        assert np.ascontiguousarray(jac).tobytes() == expected.tobytes()


def test_locate_on_locus_returns_immediately():
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.0, 0.0, 0.2, 0.9))])[0]
    assert len(lp.residuals) == 1  # no Newton step
    assert lp.converged


def test_locate_degenerate_fixture():
    lp = locate_type_change(
        degenerate_locus_field(), [ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.5, 0.5))]
    )[0]
    assert lp.converged
    assert not lp.nondegenerate
    assert len(lp.residuals) == 37  # |z| halves each step: 36 steps to |z^2| <= 1e-22
    # Jacobian oracle: d(z^2) = 2 z dz vanishes on the locus
    svals = np.linalg.svd(verify._scalar_jacobian(degenerate_locus_field()(lp.location)), compute_uv=False)
    assert svals[-1] < 1e-9


_EPS = np.finfo(float).eps


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from(["full", "rank1", "near", "zero"]),
    st.integers(-150, 150),
    st.integers(4, 14),
    st.integers(0, 2**32 - 1),
)
def test_newton_frame_matches_lstsq_and_svd(n, kind, scale, noise, seed):
    # oracle: numpy's SVD and lstsq(rcond=None) on the same 2 x n Jacobian, at any scale; rank-1 inputs
    # g = c r (r real), near rank 1 (plus 1e-4 to 1e-14 noise), full rank and zero
    rng = np.random.default_rng(seed)
    cplx = lambda size=None: rng.normal(size=size) + 1j * rng.normal(size=size)  # noqa: E731
    g = {"full": cplx(n), "rank1": cplx() * rng.normal(size=n), "zero": np.zeros(n, complex)}.get(kind)
    if kind == "near":
        g = cplx() * rng.normal(size=n) + 10.0**-noise * cplx(n)
    g, f = g * 10.0**scale, cplx() * 10.0 ** (scale + rng.integers(-3, 4))
    jac = np.array([g.real, g.imag])
    step, sigma1, sigma2 = verify._newton_frame(jac, f)
    svals = np.linalg.svd(jac, compute_uv=False)
    # numpy's own sigma1 is off by up to about 4.4 eps sigma1 (against a 50-digit reference), the frame's by 2
    assert abs(sigma1 - svals[0]) <= 8 * _EPS * svals[0] and abs(sigma2 - svals[1]) <= 8 * _EPS * svals[0]
    expected = np.linalg.lstsq(jac, [f.real, f.imag], rcond=None)[0]
    cutoff = _EPS * max(2, n) * svals[0]
    if not svals[0]:  # rank 0: no step
        assert not any(step) and not expected.any()
    elif svals[1] <= cutoff / 10:  # rank 1 for both: the truncated step, to round-off of |f| / sigma1
        assert np.linalg.norm(step - expected) <= 1e3 * _EPS * abs(f) / svals[0]
    elif svals[1] >= 10 * cutoff:  # rank 2 for both: within 1e3 eps kappa, relative
        assert np.linalg.norm(step - expected) <= 1e3 * _EPS * svals[0] / svals[1] * np.linalg.norm(expected)


def _constant_rho0_field(value, grad):
    """A field whose degree-0 component has a fixed value and fixed partials, whatever the point."""
    from gcx.chart import FormField
    from gcx.jets import FormJet

    def fn(coords):
        jet = FormJet.zero(4)
        jet.values[0] = value
        jet.grads[0] = grad
        jet.values[0b0101] = 1.0
        return jet

    return FormField(CHART_CPLANE, 4, fn)


@pytest.mark.parametrize("grad", [(math.inf, 1.0, 0.0, 0.0), (0.5, 0.0, math.nan * 1j, 0.0), (1e200, 1e200j, 1e200, 0.0)])
def test_locate_on_a_non_finite_jacobian_is_not_converged_and_quiet(grad, capfd):
    # an inf or NaN partial ends the run; 1e200 partials, whose squares overflow, take tiny steps: no
    # exception, no warning, and nothing printed (LAPACK's error lines go to stdout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = locate_type_change(_constant_rho0_field(1.0, grad), [ChartPoint(CHART_CPLANE, (0.1, 0.2, 0.3, 0.4))])[0]
    assert not lp.converged and not lp.nondegenerate
    assert capfd.readouterr() == ("", "")


def test_locate_on_a_rank_one_jacobian_pins_the_truncated_step():
    # rho0 = x1 + x2^2 is real: its Jacobian has rank 1, the step is the minimal-norm one, and the zero
    # it reaches is degenerate
    from gcx.chart import FormField
    from gcx.jets import Jet2

    def fn(coords):
        jet = local_model_spinor().fn(coords)
        jet[0] = Jet2.coordinate(4, 1, coords[0]) + Jet2.coordinate(4, 2, coords[1]) ** 2
        return jet

    lp = locate_type_change(FormField(CHART_CPLANE, 4, fn), [ChartPoint(CHART_CPLANE, (0.3, 0.4, 0.5, 0.6))])[0]
    assert len(lp.residuals) == 5 and lp.converged and not lp.nondegenerate
    # the location, not its residuals, is pinned: a step's round-off moves the residuals
    assert np.allclose(lp.location.coords, (-0.025534607884091017, 0.15979551897375288, 0.5, 0.6), rtol=0, atol=1e-12)


def test_locate_nonconvergence_recorded_not_fatal():
    # a field whose scalar part never vanishes: Newton stalls, flag recorded
    lp = locate_type_change(_constant_rho0_field(1.0, 0.0), [ChartPoint(CHART_CPLANE, (0.1, 0.2, 0.3, 0.4))])[0]
    assert not lp.converged
    assert lp.residuals[-1] == pytest.approx(1.0)


def test_locus_complex_structure_tau():
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    tau, dbar, tangent = locus_complex_structures(rho, [lp], FIBER_LATTICE)
    assert abs(tau[0] - 1j) < 1e-9
    assert dbar[0] < 1e-9
    assert tangent[0] < 1e-9


def test_locus_tau_unimodular_invariance():
    # modular-reduction oracle: integer unimodular changes of lattice basis
    # leave the reduced modulus fixed
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    l1, l2 = FIBER_LATTICE
    for a, b, c, d in [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0), (3, 2, 1, 1)]:
        assert a * d - b * c in (1, -1)
        m1 = a * l1 + b * l2
        m2 = c * l1 + d * l2
        tau = locus_complex_structures(rho, [lp], (m1, m2))[0]
        assert abs(tau[0] - 1j) < 1e-9


def test_locus_tau_quotient_lattice():
    # quotient fibre lattice (1/m, 0), (0, 1): modulus m*i, already reduced
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    for m in (2, 5):
        l1 = np.array([0.0, 0.0, 1.0 / m, 0.0])
        l2 = np.array([0.0, 0.0, 0.0, 1.0])
        tau = locus_complex_structures(rho, [lp], (l1, l2))[0]
        assert abs(tau[0] - m * 1j) < 1e-9


def test_locus_structure_rejects_degenerate():
    lp = locate_type_change(
        degenerate_locus_field(), [ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.5, 0.5))]
    )[0]
    with pytest.raises(ValueError, match="degenerate"):
        locus_complex_structures(degenerate_locus_field(), [lp], FIBER_LATTICE)


def test_reduce_modular():
    assert reduce_modular(2j) == 2j
    assert abs(reduce_modular(1j + 5) - 1j) < 1e-12
    # tau and -1/tau reduce identically
    t = 0.3 + 1.7j
    assert abs(reduce_modular(t) - reduce_modular(-1 / t)) < 1e-12
    with pytest.raises(ValueError):
        reduce_modular(0.5)
    # a zero first lattice vector makes tau 0 / 0
    with pytest.raises(ValueError, match="degenerate lattice"):
        reduce_modular(complex(math.nan, math.nan))


def test_check_locus_report():
    rep = check_locus(seeds_count=25, seed=42)
    assert rep.passed, rep.notes
    assert rep.max_residual <= 1e-9
    assert rep.components["degenerate_fixture"].passed
    assert "degenerate fixture (z1^2) flagged: True" in rep.notes


def test_check_locus_worst_point_is_the_largest_residual(monkeypatch):
    # inflate the dbar residual of the fourth located point, then recompute
    # the per-point residual max(|z1|, |tau - i|, dbar, tangent) and its argmax
    real_structures = verify.locus_complex_structures
    located = []

    def inflated_at_fourth(rho, points, lattice_basis):
        tau, dbar, tangent = real_structures(rho, points, lattice_basis)
        dbar = dbar.copy()
        dbar[3] = 1e-3
        for lp, t, d, g in zip(points, tau, dbar, tangent):
            z1 = abs(complex(*lp.location.coords[:2]))
            located.append((lp.location.coords, max(z1, abs(t - 1j), d, g)))
        return tau, dbar, tangent

    monkeypatch.setattr(verify, "locus_complex_structures", inflated_at_fourth)
    rep = check_locus(seeds_count=10, seed=42)
    residuals = [r for _, r in located]
    assert int(np.argmax(residuals)) == 3
    assert rep.worst_point == list(located[3][0])
    assert rep.max_residual == 1e-3
    assert not rep.passed


def test_check_locus_fails_on_a_nan_tau(monkeypatch):
    # one rule for every report: a NaN residual fails its component and stays NaN in max_residual
    real_structures = verify.locus_complex_structures

    def nan_at_second(rho, points, lattice_basis):
        tau, dbar, tangent = real_structures(rho, points, lattice_basis)
        tau = tau.copy()
        tau[1] = complex(math.nan, 1.0)
        return tau, dbar, tangent

    monkeypatch.setattr(verify, "locus_complex_structures", nan_at_second)
    rep = check_locus(seeds_count=10, seed=42)
    assert not rep.passed
    assert math.isnan(rep.max_residual)
    assert not rep.components["tau"].passed and math.isnan(rep.components["tau"].figure)
    assert [name for name, c in rep.components.items() if not c.passed] == ["tau"]


def test_locus_block_core_equals_the_one_point_wrapper():
    # one field evaluation and stacked wedges and contractions over 25 located points: each point's figures
    # equal those of its one-point block
    rho = local_model_spinor()
    rng = np.random.default_rng(8)
    seeds = [ChartPoint(CHART_CPLANE, (*rng.uniform(-0.35, 0.35, 2), *rng.uniform(0, 1, 2))) for _ in range(25)]
    located = locate_type_change(rho, seeds)
    tau, dbar, tangent = locus_complex_structures(rho, located, FIBER_LATTICE)
    assert tau.shape == dbar.shape == tangent.shape == (25,)
    for i, lp in enumerate(located):
        one_tau, one_dbar, one_tangent = locus_complex_structures(rho, [lp], FIBER_LATTICE)
        assert one_tau[0] == tau[i]
        assert one_dbar[0] == dbar[i]
        assert one_tangent[0] == tangent[i]


def _spy_on_factorizations(monkeypatch) -> list:
    """The names of the np.linalg factorizations called from now on, in call order."""
    calls = []
    for name in ("svd", "eig", "inv", "pinv", "lstsq", "solve"):
        real = getattr(np.linalg, name)

        def spy(*args, _real=real, _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_locate_and_check_locus_make_no_linalg_factorization(monkeypatch):
    # Newton steps are closed forms, and the locus structure is wedges and contractions
    calls = _spy_on_factorizations(monkeypatch)
    rng = np.random.default_rng(4)
    fields = [local_model_spinor(), degenerate_locus_field()]
    for i in range(28):
        seed = ChartPoint(CHART_CPLANE, (*rng.uniform(-0.5, 0.5, 2), *rng.uniform(0, 1, 2)))
        assert locate_type_change(fields[i % 2], [seed])[0].converged
    assert check_locus(seeds_count=100, seed=42).passed
    assert calls == []


def test_clean_integrability_blocks_make_no_linalg_factorization(monkeypatch):
    # every model spinor is pure, so its witness is A^H b / |rho|^2: no SVD in integrability_residual
    calls, during = _spy_on_factorizations(monkeypatch), []

    def residual(*args, _real=verify.integrability_residual):
        before = len(calls)
        wit = _real(*args)
        during.append(calls[before:])
        return wit

    monkeypatch.setattr(verify, "integrability_residual", residual)
    reports = [check_integrability(region, samples=150, seed=5) for region in ("cplane", "polar", "bump", "outer")]
    reports.append(check_quotient(LogModelParams(m=3, k=2), samples=150, seed=5))
    assert all(rep.passed for rep in reports)
    assert len(during) == 5 * 3  # blocks of 64 points
    assert all(seen == [] for seen in during)


def test_locus_block_core_rejects_a_degenerate_point_among_nondegenerate_ones():
    rho = local_model_spinor()
    good = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    bad = locate_type_change(degenerate_locus_field(), [ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.5, 0.5))])[0]
    with pytest.raises(ValueError, match="degenerate"):
        locus_complex_structures(rho, [good, bad, good], FIBER_LATTICE)


def test_locus_structure_rejects_a_lattice_off_the_tangent_plane():
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    off_plane = (np.array([1.0, 0.0, 0.0, 0.0]), FIBER_LATTICE[1])
    with pytest.raises(ValueError, match="tangent plane"):
        locus_complex_structures(rho, [lp], off_plane)
    with pytest.raises(ValueError, match="tangent plane"):
        locus_complex_structures(rho, [lp, lp], (FIBER_LATTICE[0], off_plane[0]))


def test_locus_structure_refuses_a_zero_first_lattice_vector_without_a_warning():
    # Omega(X, l1) = 0 there: the refusal comes before tau's division, so numpy warns of no 0 / 0
    rho = local_model_spinor()
    lp = locate_type_change(rho, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degenerate lattice"):
            locus_complex_structures(rho, [lp, lp], (np.zeros(4), FIBER_LATTICE[1]))


def _locus_field(rho0, omega=None, linear=np.eye(4)):
    """The local model with rho0(y) for z1, y = linear @ x the coordinate jets, and the constant 2-form omega
    (16 coefficients) for dz1^dz2; omega defaults to dz1^dz2 pulled back by x -> linear @ x."""
    from gcx.chart import FormField
    from gcx.jets import Jet2
    from gcx.multilinear import Multiform

    if omega is None:
        rows = linear[::2] + 1j * linear[1::2]  # dz1 and dz2 pulled back, as covectors
        dz1, dz2 = (Multiform.from_terms(4, {(j + 1,): c for j, c in enumerate(row)}) for row in rows)
        omega = dz1.wedge(dz2).coeffs

    def fn(coords):
        jet = local_model_spinor().fn(coords)
        xs = [Jet2.coordinate(4, j + 1, coords[j]) for j in range(4)]
        jet[0] = rho0([sum((xs[j] * linear[i, j] for j in range(1, 4)), xs[0] * linear[i, 0]) for i in range(4)])
        jet.values[1:] = omega[1:].reshape((-1,) + (1,) * (jet.values.ndim - 1))
        return jet

    return FormField(CHART_CPLANE, 4, fn)


def _tangent_lattice(field, lp, coeffs):
    """Lattice vectors coeffs (2, 2) @ (an orthonormal basis of ker d(rho0)) at a located point."""
    g = field(lp.location).grads[0]
    return tuple(coeffs @ np.linalg.svd(np.array([g.real, g.imag]))[2][2:])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["local", "rho_f"]), st.integers(0, 2**32 - 1))
def test_locus_structure_matches_the_j_eig_svd_pinv_reference(kind, seed):
    # the local model and rho_f = z1 (1 + a z2 + b z1) + dz1^dz2 under a real linear change of coordinates of
    # condition number <= 4, either orientation, on skewed lattices of the tangent plane: tau is the reference's,
    # so tau is not flipped to -conj(tau), and the field is holomorphic, so dbar and tangent are at round-off
    from helpers_naive import naive_locus_structures

    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    linear = q * rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)  # columns of either sign
    a, b = (rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3) for _ in range(2))
    factor = (lambda z1, z2: 1.0) if kind == "local" else (lambda z1, z2: 1 + a * z2 + b * z1)
    field = _locus_field(lambda y: (y[0] + 1j * y[1]) * factor(y[0] + 1j * y[1], y[2] + 1j * y[3]), linear=linear)
    start = np.linalg.solve(linear, [*rng.uniform(-0.3, 0.3, 2), *rng.uniform(0, 1, 2)])
    lp = locate_type_change(field, [ChartPoint(CHART_CPLANE, tuple(start))])[0]
    assert lp.converged and lp.nondegenerate
    angle, shear, stretch = rng.uniform(0, 2 * np.pi), rng.uniform(-2, 2), rng.uniform(0.3, 2) * rng.choice([-1, 1])
    unit, normal = np.array([np.cos(angle), np.sin(angle)]), np.array([-np.sin(angle), np.cos(angle)])
    lattice = _tangent_lattice(field, lp, np.array([unit, shear * unit + stretch * normal]))
    tau, dbar, tangent = locus_complex_structures(field, [lp], lattice)
    ref_tau = naive_locus_structures(field, [lp], lattice)[0]
    assert abs(tau[0] - reduce_modular(ref_tau[0])) <= 1e-9
    assert dbar[0] <= 1e-14 and tangent[0] <= 1e-14


@pytest.mark.parametrize(
    "rho0, dbar, tangent",
    [
        # rho0 = conj(z1): d(rho0) ^ Omega = 2i dx1^dx2^dz2, and its kernel is the fibre, a complex line
        (lambda y: y[0] - 1j * y[1], 2.0 / math.sqrt(2.0), 0.0),
        # rho0 = z1 + 0.3 conj(z2): |g ^ Omega| = 0.6, |g ^ conj(g) ^ Omega| = 1.2 and |g|^2 = 2.18
        (lambda y: y[0] + 1j * y[1] + 0.3 * (y[2] - 1j * y[3]), 0.6 / math.sqrt(2.18), 1.2 / 2.18),
    ],
)
def test_locus_structure_of_a_non_holomorphic_rho0_fails(rho0, dbar, tangent):
    field = _locus_field(rho0)
    lp = locate_type_change(field, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    assert lp.converged and lp.nondegenerate
    got = locus_complex_structures(field, [lp], _tangent_lattice(field, lp, np.eye(2)))
    assert got[1][0] == pytest.approx(dbar, rel=1e-12) and got[2][0] == pytest.approx(tangent, rel=1e-12, abs=1e-15)


def test_locus_structure_rejects_a_degenerate_omega_at_a_nondegenerate_point():
    # z1 + dx1^dx2: rho0 has a nondegenerate zero, but Omega is real, so L meets conj(L)
    omega = np.zeros(16, complex)
    omega[0b0011] = 1.0
    field = _locus_field(lambda y: y[0] + 1j * y[1], omega)
    lp = locate_type_change(field, [ChartPoint(CHART_CPLANE, (0.2, 0.1, 0.3, 0.6))])[0]
    assert lp.converged and lp.nondegenerate
    with pytest.raises(ValueError, match="degenerate"):
        locus_complex_structures(field, [lp], FIBER_LATTICE)


# ------------------------------------------------------- determinism


def test_reports_deterministic():
    a = check_symplectomorphism(samples=50, seed=11)
    c = check_symplectomorphism(samples=50, seed=11)
    assert json.dumps(a.to_json_dict()) == json.dumps(c.to_json_dict())
    d = check_symplectomorphism(samples=50, seed=12)
    assert json.dumps(a.to_json_dict()) != json.dumps(d.to_json_dict())


def test_tolerance_monotonicity():
    # tightening tol can flip pass -> fail but never fail -> pass
    loose = check_integrability("bump", samples=40, seed=5, tol=1e-6)
    tight = check_integrability("bump", samples=40, seed=5, tol=1e-14)
    assert loose.max_residual == tight.max_residual
    assert (not tight.passed) or loose.passed


def test_report_json_schema():
    rep = check_type_jump(samples=20, seed=1)
    data = rep.to_json_dict()
    assert set(data) == {"check", "params", "samples", "max_residual", "worst_point", "pass", "notes"}
    json.dumps(data)  # serializable


# -------------------------------------------------------- check plan

# the README's table of reports, in run order, at default flags (one window, the four default quotients)
PLAN_NAMES = {
    "local-model": ["integrability_cplane", "integrability_polar", "type_jump", "polar_compatibility"],
    "surgery": [
        "symplectomorphism",
        "h_properties",
        "integrability_bump",
        "integrability_outer",
        "h_sign_negative_control",
    ],
    "quotient": ["quotient_m1_k0", "quotient_m2_k1", "quotient_m3_k2", "quotient_m5_k2"],
    "locus": ["locus"],
}


def run_config(*flags):
    from gcx import cli

    return cli.config_from_args(cli.build_parser().parse_args(["check", *flags]))


@pytest.mark.parametrize("target", [*PLAN_NAMES, "all"])
def test_check_plan_names_the_readme_reports(target):
    names = [name for name, _ in check_plan(run_config(target))]
    expected = [n for t, rows in PLAN_NAMES.items() if target in (t, "all") for n in rows]
    assert names == expected
    if target == "all":
        assert len(names) == 14


def test_plan_names_and_stream_ids_are_distinct():
    names = [name for name, _ in check_plan(run_config("all"))]
    streams = list(verify.STREAMS.values())
    assert len(set(names)) == len(names) and len(set(streams)) == len(streams)
    # every report draws from the stream of its own name, a quotient from the quotient stream
    assert {re.sub(r"_m\d+_k\d+$", "", n) for n in names} == set(verify.STREAMS)


def test_check_plan_runs_window_rows_window_by_window():
    cfg = run_config("surgery", "--samples", "1", "--r-out", "4", "--windows", "1:2,2.5:3.5")
    plan = [(name, make().params.get("window")) for name, make in check_plan(cfg)]
    assert plan == [
        ("symplectomorphism", None),
        ("h_properties_w1", [1.0, 2.0]),
        ("integrability_bump_w1", [1.0, 2.0]),
        ("h_properties_w2", [2.5, 3.5]),
        ("integrability_bump_w2", [2.5, 3.5]),
        ("integrability_outer", [2.5, 3.5]),  # the last window
        ("h_sign_negative_control", [1.0, 2.0]),  # the first window
    ]


def test_each_repeated_call_binds_its_own_window_or_quotient():
    # a call that read its loop variable late would run the last window or quotient every time
    cfg = run_config("all", "--samples", "1", "--r-out", "4", "--windows", "1:2,2.5:3.5")
    cfg.quotients = [(2, 1), (3, 2)]
    got = {}
    for name, make in check_plan(cfg):
        if "_w" in name or name.startswith("quotient"):
            params = make().params
            got[name] = params["window"] if "_w" in name else [params["m"], params["k"]]
    assert got == {
        "h_properties_w1": [1.0, 2.0],
        "integrability_bump_w1": [1.0, 2.0],
        "h_properties_w2": [2.5, 3.5],
        "integrability_bump_w2": [2.5, 3.5],
        "quotient_m2_k1": [2, 1],
        "quotient_m3_k2": [3, 2],
    }


# ------------------------------------------------ blocks of sample points


def test_sign_control_records_the_threshold_its_verdict_reads():
    rep = check_integrability("bump", samples=20, seed=42, flip_h_sign=True)
    assert rep.params["tol"] == verify.SIGN_CONTROL_TOL == 1e-3
    assert rep.passed == (rep.max_residual > rep.params["tol"])
    # the plan's call runs it with that threshold too
    cfg = SimpleNamespace(
        target="surgery", seed=42, samples=20, tol=1e-9, tol_second=1e-8,
        geometry=SurgeryGeometry(), windows=[(1.0, 2.0)], quotients=[],
    )
    (make,) = [make for name, make in check_plan(cfg) if name == "h_sign_negative_control"]
    assert make().params["tol"] == 1e-3


def test_integrability_cplane_evaluates_its_field_once_per_block(monkeypatch):
    from gcx.chart import FormField

    model, calls = local_model_spinor(), []

    def counted(coords):
        calls.append(np.shape(coords))
        return model.fn(coords)

    monkeypatch.setattr(verify, "local_model_spinor", lambda: FormField(model.chart, model.dim, counted))
    assert check_integrability("cplane", samples=500).passed
    assert len(calls) == -(-500 // verify.BLOCK) == 8


def per_point_annulus(rng, samples, r_lo, r_hi):
    """The sampler's draws one point at a time: u, then three angles."""
    pts = []
    for _ in range(samples):
        r = r_hi - (r_hi - r_lo) * rng.uniform(0.0, 1.0)
        pts.append((r, *rng.uniform(0.0, 1.0, 3)))
    return np.array(pts).T


def test_block_samplers_draw_the_points_one_at_a_time_gives():
    samples = 3 * verify.BLOCK + 5
    ref = per_point_annulus(verify._rng(42, "quotient", extra=5), samples, 0.1, 1.0)
    rng = verify._rng(42, "quotient", extra=5)
    counts = [min(verify.BLOCK, samples - i) for i in range(0, samples, verify.BLOCK)]
    blocks = [verify._sample_annulus(rng, count, 0.1, 1.0) for count in counts]
    got = np.hstack([np.array(b.coords) for b in blocks])
    assert np.array_equal(got, ref)  # bit for bit


def test_block_runner_worst_point_is_the_per_point_argmax():
    # the wrong-sign control has O(1) residuals that vary from point to point
    from gcx.chart import FormField, integrability_residual
    from gcx.jets import FormJet

    samples = 2 * verify.BLOCK + 7
    rep = check_integrability("bump", samples=samples, seed=11, flip_h_sign=True)
    rho, h, (chart, r_lo, r_hi), _ = verify._region_setup("bump", SurgeryGeometry(), None)
    minus_h = FormField(CHART_TUBE, 4, lambda c: FormJet(4, h.fn(c).values * -1.0))
    coords = per_point_annulus(verify._rng(11, "h_sign_negative_control"), samples, r_lo, r_hi)
    points = [ChartPoint(chart, tuple(c), ANGLES) for c in coords.T]
    residuals = [integrability_residual(rho, minus_h, p).residual for p in points]
    assert rep.max_residual == pytest.approx(max(residuals), rel=1e-12)
    assert rep.worst_point == list(points[int(np.argmax(residuals))].coords)
    assert len(set(np.round(residuals, 6))) > samples // 2  # no ties to hide a wrong index


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    # a block draws the same doubles as one draw of all its points and each point's figures are its own,
    # so BLOCK sets the memory and speed of a check and nothing in its report
    samples = 2 * 64 + 7
    runs = {
        "quotient": lambda: check_quotient(LogModelParams(5, 2), samples=samples),
        "cplane": lambda: check_integrability("cplane", samples=samples),
        "bump": lambda: check_integrability("bump", samples=samples),
        "sign control": lambda: check_integrability("bump", samples=samples, flip_h_sign=True),
        "type_jump": lambda: check_type_jump(samples=samples),
        "polar_compatibility": lambda: check_polar_compatibility(samples=samples),
        "h_properties": lambda: check_h_properties(samples=samples),
        "symplectomorphism": lambda: check_symplectomorphism(samples=samples),
    }
    reports = {}
    for block in (17, 32, 64):
        monkeypatch.setattr(verify, "BLOCK", block)
        reports[block] = {name: run().to_json_dict() for name, run in runs.items()}
    assert reports[17] == reports[32] == reports[64]


def test_quotient_check_memory_is_bounded_by_the_block():
    import tracemalloc

    sizes = (500, 2000)
    for samples in sizes:  # tables and caches are built once per process, outside the measurement
        check_quotient(LogModelParams(5, 2), samples=samples)
    peaks = []
    for samples in sizes:
        tracemalloc.start()
        try:
            assert check_quotient(LogModelParams(5, 2), samples=samples).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.5 * 2**20
    assert peaks[0] <= 0.6 * 2**20  # the deck map's evaluation is gone before the quotient pullbacks
    assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("run", [check_h_properties, check_polar_compatibility])
def test_h_and_polar_check_memory_is_bounded_by_the_block(run):
    import tracemalloc

    sizes = (500, 2000)
    run(samples=verify.BLOCK + 4)  # tables and caches (full and 4-point blocks), outside the measurement
    peaks = []
    for samples in sizes:
        tracemalloc.start()
        try:
            assert run(samples=samples).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]
    if run is check_h_properties:  # BLOCK // 16 nodes and a block's f' integrals stay within the bump check's peak
        check_integrability("bump", samples=sizes[0])
        tracemalloc.start()
        try:
            check_integrability("bump", samples=sizes[0])
            assert peaks[0] <= tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_polar_compatibility_worst_point_is_the_per_point_argmax(monkeypatch):
    # the overlap z1 = r^2 e^{i theta1} doubles the dr/r terms: an error of 1/r, which varies by point
    from gcx.spinor import normal_form

    def squared(ins):
        r, t1, t2, t3 = ins
        return [r * r * t1.cos(), r * r * t1.sin(), t2, t3]

    overlap = ChartMap(CHART_ANNULUS, CHART_CPLANE, 4, squared)
    monkeypatch.setattr(verify, "polar_overlap_map", lambda: overlap)
    samples = 2 * verify.BLOCK + 7
    rep = check_polar_compatibility(samples=samples, seed=11)
    rho, (b_field, w_field) = local_model_spinor(), local_model_polar()
    coords = per_point_annulus(verify._rng(11, "polar_compatibility"), samples, 0.1, 1.0)
    points = [ChartPoint(CHART_ANNULUS, tuple(c), ANGLES) for c in coords.T]
    residuals = [
        (normal_form(pullback(overlap, rho, p)).b_plus_i_omega() - (b_field(p).value() + 1j * w_field(p).value()))
        .max_abs()
        for p in points
    ]
    assert not rep.passed
    assert rep.max_residual == pytest.approx(max(residuals), rel=1e-12)
    assert rep.worst_point == list(points[int(np.argmax(residuals))].coords)
    second, first = sorted(residuals)[-2:]
    assert first > second + 1e-3  # the largest is not tied, so its index is the one to find


def test_h_properties_fails_when_h_leaks_outside_the_window(monkeypatch):
    # negative control for the support check: a constant dr^dt1^dt3 term past hi
    # leaves d(H) and the slice integral over [lo, hi] as they were
    from gcx.chart import FormField
    from gcx.models import b_extension_and_h

    def leaky(geometry, window=None):
        btilde, h = b_extension_and_h(geometry, window)

        def fn(coords):
            jet = h.fn(coords)
            jet.values[0b1011] += 1e-3 * (coords[0] > 2.0)
            return jet

        return btilde, FormField(CHART_TUBE, 4, fn)

    clean = check_h_properties(samples=20)
    assert clean.components["support"].passed and clean.components["support"].figure == 0.0
    monkeypatch.setattr(verify, "b_extension_and_h", leaky)
    rep = check_h_properties(samples=20)
    support = rep.components["support"]
    assert not support.passed and support.figure == 1e-3
    assert "support confined to window [1.0, 2.0]: False" in rep.notes
    assert rep.max_residual == clean.max_residual
    for name in ("fundamental_theorem", "slice_integral"):
        assert rep.components[name] == clean.components[name] and rep.components[name].passed
    assert not rep.passed


def test_cli_exits_3_on_a_sampled_point_outside_a_map_domain(monkeypatch, tmp_path, capsys):
    from gcx.cli import main

    sample = verify._sample_annulus

    def one_bad_point(rng, samples, r_lo, r_hi, chart=CHART_ANNULUS):
        block = sample(rng, samples, r_lo, r_hi, chart)
        return block.with_coords([np.r_[0.5, block.coords[0][1:]], *block.coords[1:]])

    monkeypatch.setattr(verify, "_sample_annulus", one_bad_point)
    code = main(["check", "surgery", "--samples", "10", "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "outside the domain of map annulus->tube" in err and "Traceback" not in err


def test_quotient_check_fails_on_a_deck_map_with_the_wrong_twist(monkeypatch):
    # t2 + k in place of t2 + k/m: B and omega are translation invariant, so only q(deck(p)) = q(p) sees it
    def wrong_twist(params):
        m, k = params.m, params.k
        def fn(ins):
            r, t1, t2, t3 = ins
            return [r, t1 + 1.0 / m, t2 + k, t3]

        return ChartMap(CHART_ANNULUS, CHART_ANNULUS, 4, fn, target_periodic=ANGLES)

    note = "orbit size {} and q(deck(p)) = q(p) at r = 0 and r = 0.5: {}"
    quotients = [LogModelParams(m, k) for m, k in ((2, 1), (3, 2), (5, 2))]
    for params in quotients:
        assert check_quotient(params, samples=20).notes[-1] == note.format(params.m, True)
    monkeypatch.setattr(verify, "deck_action_map", wrong_twist)
    for params in quotients:
        rep = check_quotient(params, samples=20)
        assert not rep.passed
        assert rep.notes[-1] == note.format(params.m, False)
        assert [name for name, c in rep.components.items() if not c.passed] == ["orbit"]


def log_model_times_theta1(params, r_min=0.05):
    """The quotient model with B' times the theta1' coordinate, which is not closed."""
    from gcx.chart import FormField
    from gcx.jets import Jet2
    from gcx.models import CHART_QUOTIENT, log_model

    bq, wq = log_model(params, r_min)

    def fn(coords):
        return bq.fn(coords).scale(Jet2.coordinate(4, 2, coords[1]))

    return FormField(CHART_QUOTIENT, 4, fn), wq


def spy_on_figures(monkeypatch) -> dict:
    """{name: (per-point figures, their points)} of every block a runner reduces from now on, in draw order."""
    real_largest, seen = verify._largest, {}

    def recording(figures, coords):
        for name, row in figures.items():
            rows, points = seen.setdefault(name, ([], []))
            rows.extend(np.asarray(row, dtype=float))
            points.extend(map(list, zip(*(np.asarray(c, dtype=float) for c in coords))))
        return real_largest(figures, coords)

    monkeypatch.setattr(verify, "_largest", recording)
    return seen


def test_quotient_closedness_fails_on_a_quotient_b_that_is_not_closed(monkeypatch):
    # B' times the theta1' coordinate is not closed: d(q^*B' - B), read as q^*(dB') - dB, must see it
    monkeypatch.setattr(verify, "log_model", log_model_times_theta1)
    for m, k in ((1, 0), (2, 1), (3, 2), (5, 2)):
        rep = check_quotient(LogModelParams(m, k), samples=64)
        closed = rep.components["d_discrepancy"]
        assert not rep.passed and not closed.passed
        # B' itself changed, so its pullback fails too; the deck, omega, integrability and orbit tests never read it
        assert [name for name, c in rep.components.items() if not c.passed] == ["b_discrepancy", "d_discrepancy"]
        assert closed.figure > 1.0 > rep.params["tol"]
        assert rep.notes[2].endswith(f"d(discrepancy) = {closed.figure:.3e}")


def test_quotient_worst_point_is_where_its_max_residual_is(monkeypatch):
    # the not-closed control's largest residual is d(discrepancy): the report's worst point is that
    # component's, the first argmax of its per-point figures
    monkeypatch.setattr(verify, "log_model", log_model_times_theta1)
    seen = spy_on_figures(monkeypatch)
    rep = check_quotient(LogModelParams(5, 2), samples=64)
    closed = rep.components["d_discrepancy"]
    assert rep.max_residual == closed.figure
    assert rep.worst_point == closed.worst_point
    rows, points = seen["d_discrepancy"]
    assert len(rows) == 64 and rep.worst_point == points[int(np.argmax(rows))]


def test_each_residual_carries_the_argmax_of_its_own_figures(monkeypatch):
    # three blocks of the not-closed control: every residual's worst point is the first argmax of its
    # own per-point figures, and the non-residual orbit test carries none
    monkeypatch.setattr(verify, "log_model", log_model_times_theta1)
    seen = spy_on_figures(monkeypatch)
    samples = 2 * verify.BLOCK + 7
    rep = check_quotient(LogModelParams(3, 2), samples=samples)
    residuals = {name: c for name, c in rep.components.items() if c.worst_point is not None}
    assert list(residuals) == ["deck", "omega", "b_discrepancy", "d_discrepancy", "integrability"]
    assert rep.components["orbit"].worst_point is None
    for name, c in residuals.items():
        rows, points = seen[name]
        assert len(rows) == samples
        assert c.figure == max(rows) and c.worst_point == points[int(np.argmax(rows))], name
    assert len({tuple(c.worst_point) for c in residuals.values()}) > 1  # not one shared point


def test_report_takes_the_worst_point_of_its_largest_residual():
    # a tie goes to the first residual in note order, a NaN wins, and a figure with no worst point never counts
    small = verify.Component("a", 1.0, True, None, [0.1, 0.1])
    first = verify.Component("b", 2.0, True, None, [0.2, 0.2])
    second = verify.Component("c", 2.0, True, None, [0.3, 0.3])
    det = verify.Component("det", 9.0, True)
    rep = verify._report("x", 1, 1, 1e-9, [small, det, first, second])
    assert (rep.max_residual, rep.worst_point) == (2.0, [0.2, 0.2])
    nan = verify.Component("nan", math.nan, False, None, [0.5, 0.5])
    rep = verify._report("x", 1, 1, 1e-9, [small, first, nan, second])
    assert math.isnan(rep.max_residual) and rep.worst_point == [0.5, 0.5] and not rep.passed


def test_per_block_keeps_the_first_largest_point_and_a_nan():
    xs = np.arange(3 * verify.BLOCK, dtype=float)
    rows = {"rising": xs, "flat": np.zeros_like(xs), "nan": np.where(xs == verify.BLOCK + 5, math.nan, xs)}
    starts = iter(range(0, len(xs), verify.BLOCK))

    def draw(count):
        start = next(starts)
        return ChartPoint("line", (xs[start : start + count],))

    top = verify._per_block(lambda p: {n: r[p.coords[0].astype(int)] for n, r in rows.items()}, draw, len(xs))
    assert top["rising"] == (xs[-1], [xs[-1]])
    assert top["flat"] == (0.0, [0.0])
    assert math.isnan(top["nan"][0]) and top["nan"][1] == [verify.BLOCK + 5.0]  # later, larger blocks keep it


@pytest.mark.parametrize("profile", ["flat", "poly"])
def test_h_properties_fails_on_a_wiggled_bump_derivative(monkeypatch, profile):
    # f' x (1 + 0.3 sin 2 pi x): H and its cross-check read the same f', and the wiggle is odd about
    # the window's midpoint, so the slice integral stays 1; only f' against f can see it
    from gcx.models import BumpProfile

    geo = SurgeryGeometry(profile=profile)
    assert check_h_properties(geometry=geo, samples=200).passed
    descent = BumpProfile._descent

    def wiggled(prof, x):
        f, fp = descent(prof, x)
        return f, fp * (1.0 + 0.3 * np.sin(2 * np.pi * x))

    monkeypatch.setattr(BumpProfile, "_descent", wiggled)
    rep = check_h_properties(geometry=geo, samples=200)
    assert not rep.passed
    assert rep.max_residual > 1e-2
    assert [name for name, c in rep.components.items() if not c.passed] == ["fundamental_theorem"]
    assert "slice integral = 1.000000000 (sign +1)" == rep.notes[0]


def test_symplectomorphism_fails_on_a_wrong_btilde_coefficient(monkeypatch):
    # rt drt^dt2 -> rt^2 drt^dt2 in Btilde: closed either way, so H, its slice integral and
    # integrability cannot see it; psi^*Btilde = B on the annulus can
    from gcx.chart import FormField
    from gcx.jets import Jet2
    from gcx.models import b_extension_and_h

    def squared(geometry, window=None):
        btilde, h = b_extension_and_h(geometry, window)

        def fn(coords):
            jet = btilde.fn(coords)
            jet[0b0101] = jet[0b0101] * Jet2.coordinate(4, 1, coords[0])
            return jet

        return FormField(CHART_TUBE, 4, fn), h

    rep = check_symplectomorphism(samples=200)
    assert rep.passed and rep.notes[1].startswith("psi^*Btilde = B at the ")
    monkeypatch.setattr(verify, "b_extension_and_h", squared)
    rep = check_symplectomorphism(samples=200)
    assert not rep.passed
    assert rep.max_residual > 0.5
    assert [name for name, c in rep.components.items() if not c.passed] == ["btilde_pullback"]
    assert rep.components["btilde_pullback"].figure == rep.max_residual


def test_legendre_rule_matches_leggauss_and_integrates_its_top_degree():
    # the Newton rule against numpy's eigenvalue rule, and exact on x^(2n-2), the top even degree an
    # n-node rule integrates exactly: its integral over [-1, 1] is 2 / (2n - 1)
    for nodes in (verify.FT_NODES, verify.QUAD_NODES):
        x, w = verify._legendre_rule(nodes)
        ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
        assert np.abs(x - ref_x).max() <= 1e-14 and np.abs(w - ref_w).max() <= 1e-14
        assert (w * x ** (2 * nodes - 2)).sum() == pytest.approx(2.0 / (2 * nodes - 1), rel=1e-13)


def test_check_all_builds_each_gauss_rule_once(monkeypatch, tmp_path):
    # a Gauss rule built per call repeats a Newton iteration over the 128-term recurrence
    from gcx import cli

    built = []
    legendre_rule = verify._legendre_rule

    def legendre_rule_spy(nodes):
        built.append(nodes)
        return legendre_rule(nodes)

    monkeypatch.setattr(verify, "_legendre_rule", legendre_rule_spy)
    verify._gauss_rule.cache_clear()
    try:
        args = cli.build_parser().parse_args(["check", "all", "--samples", "20", "--output", str(tmp_path / "r.json")])
        reports = cli.run_checks(cli.config_from_args(args))
        assert all(rep.passed for rep in reports)
        check_h_properties(samples=20, seed=7)
        assert sorted(built) == [verify.FT_NODES, verify.QUAD_NODES]
    finally:
        verify._gauss_rule.cache_clear()  # no rule built through the spy outlives the test
