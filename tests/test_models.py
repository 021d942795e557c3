import math

import numpy as np
import pytest
import sympy as sp

from gcx.chart import ChartMap, ChartPoint, integrability_residual, pullback, pullback_jet
from gcx.jets import FormJet
from gcx.models import (
    ANGLES,
    CHART_ANNULUS,
    CHART_CPLANE,
    CHART_QUOTIENT,
    CHART_TUBE,
    LogModelParams,
    SurgeryGeometry,
    b_extension_and_h,
    bump_profile,
    deck_action_map,
    gluing_map,
    glued_spinor_field,
    local_model_polar,
    local_model_spinor,
    log_model,
    polar_overlap_map,
    polar_spinor_field,
    quotient_map,
    quotient_spinor_field,
    tube_symplectic,
)
from gcx.multilinear import GcVector, Multiform, clifford
from gcx.spinor import check_nondegenerate, is_pure, normal_form
from helpers_naive import central_partials
from helpers_symbolic import sadd, sd, sevaluate, spullback

R_SYMS = sp.symbols("r t1 t2 t3", positive=True)
T_SYMS = sp.symbols("rt u1 u2 u3", positive=True)
Q_SYMS = sp.symbols("rp v1 v2 v3", positive=True)
C_SYMS = sp.symbols("x1 y1 x2 y2")


def annulus_forms_symbolic():
    r = R_SYMS[0]
    B = {(1, 3): 1 / r, (2, 4): sp.Integer(-1)}
    W = {(1, 4): 1 / r, (2, 3): sp.Integer(1)}
    return B, W


def apt(*coords):
    return ChartPoint(CHART_ANNULUS, coords, ANGLES)


def tpt(*coords):
    return ChartPoint(CHART_TUBE, coords, ANGLES)


def cpt(*coords):
    return ChartPoint(CHART_CPLANE, coords)


def rand_apts(rng, count, lo=0.06, hi=1.0):
    return [apt(rng.uniform(lo, hi), *rng.uniform(0, 1, 3)) for _ in range(count)]


# ------------------------------------------------------- cplane model


def test_local_model_value_on_locus():
    rho = local_model_spinor()
    p = cpt(0.0, 0.0, 0.7, -0.4)
    val = rho(p).value()
    dz1dz2 = Multiform.from_terms(4, {(1,): 1.0, (2,): 1j}).wedge(
        Multiform.from_terms(4, {(3,): 1.0, (4,): 1j})
    )
    assert val.allclose(dz1dz2, tol=1e-15)
    assert normal_form(val).type == 2


def test_local_model_normal_form_off_locus():
    rho = local_model_spinor()
    nf = normal_form(rho(cpt(1.0, 0.0, 0.3, 0.8)).value())
    assert nf.type == 0
    dz1dz2 = Multiform.from_terms(4, {(1,): 1.0, (2,): 1j}).wedge(
        Multiform.from_terms(4, {(3,): 1.0, (4,): 1j})
    )
    assert nf.b_plus_i_omega().allclose(dz1dz2, tol=1e-12)
    assert check_nondegenerate(nf)


def test_local_model_integrability_and_witness():
    rho = local_model_spinor()
    rng = np.random.default_rng(12)
    # -d/dz2 = -(d/dx2 - i d/dy2)/2 in coords (x1, y1, x2, y2)
    v_expected = GcVector(4, vec=[0, 0, -0.5, 0.5j])
    for _ in range(50):
        p = cpt(*rng.uniform(-1, 1, 4))
        wit = integrability_residual(rho, None, p)
        assert wit.residual <= 1e-12
        val = rho(p).value()
        assert (clifford(wit.v, val) - clifford(v_expected, val)).max_abs() < 1e-10


# ------------------------------------------------------ annulus model


def test_annulus_forms_closed_symbolically_and_numerically():
    B, W = annulus_forms_symbolic()
    assert sd(B, R_SYMS) == {}
    assert sd(W, R_SYMS) == {}
    b_field, w_field = local_model_polar()
    rng = np.random.default_rng(3)
    for p in rand_apts(rng, 10):
        assert b_field(p).d().value().max_abs() < 1e-12
        assert w_field(p).d().value().max_abs() < 1e-12


def test_annulus_forms_match_symbolic_values():
    B, W = annulus_forms_symbolic()
    b_field, w_field = local_model_polar()
    p = apt(0.37, 0.1, 0.6, 0.9)
    for form, fld in ((B, b_field), (W, w_field)):
        expected = Multiform.from_terms(4, sevaluate(form, R_SYMS, p.coords))
        assert fld(p).value().allclose(expected, tol=1e-13)


def test_annulus_omega_nondegenerate_and_spinor_pure():
    _, w_field = local_model_polar()
    w = w_field(apt(0.5, 0.2, 0.3, 0.4)).value()
    assert abs(w.wedge(w).top()) > 1e-9
    rho = polar_spinor_field()
    val = rho(apt(0.5, 0.2, 0.3, 0.4)).value()
    assert is_pure(val)
    nf = normal_form(val)
    assert nf.type == 0
    assert check_nondegenerate(nf)


def test_annulus_guard():
    b_field, _ = local_model_polar(r_min=0.05)
    with pytest.raises(ValueError, match="radius"):
        b_field(apt(0.01, 0, 0, 0))


def test_polar_overlap_compatibility():
    """Pulling the cplane spinor back through z1 = r e^{i t1} yields the annulus forms."""
    # symbolic oracle for the pullback of the degree-2 part over the scalar part
    r, t1, t2, t3 = R_SYMS
    phi = [r * sp.cos(t1), r * sp.sin(t1), t2, t3]
    rho2 = {
        (1, 3): sp.Integer(1),
        (1, 4): sp.I,
        (2, 3): sp.I,
        (2, 4): sp.Integer(-1),
    }
    pulled = spullback(rho2, phi, R_SYMS, C_SYMS)
    z1 = r * sp.exp(sp.I * t1)
    scaled = {k: sp.simplify((v / z1).rewrite(sp.exp)) for k, v in pulled.items()}
    B, W = annulus_forms_symbolic()
    expected = sadd(B, W, scale=sp.I)
    assert set(scaled) == set(expected)
    for key in expected:
        assert sp.simplify(scaled[key] - expected[key]) == 0

    # numeric check through the package's own pullback + normal form
    rho = local_model_spinor()
    overlap = polar_overlap_map()
    b_field, w_field = local_model_polar()
    rng = np.random.default_rng(8)
    for p in rand_apts(rng, 20, lo=0.1):
        nf = normal_form(pullback(overlap, rho, p))
        assert nf.type == 0
        expected_exp = b_field(p).value() + 1j * w_field(p).value()
        assert (nf.b_plus_i_omega() - expected_exp).max_abs() < 1e-9


def test_polar_overlap_turn_angle_scales_theta1_terms():
    # with the geometric torus angle z1 = r e^{2 pi i t1} the dtheta1
    # coefficients pick up the factor 2*pi; at t1 = 0.6, y1 = r sin(2 pi t1) < 0,
    # which the cplane image, whose chart has no periodic coordinate, keeps
    rho = local_model_spinor()
    overlap = polar_overlap_map(angle_scale=2 * math.pi)
    b_field, w_field = local_model_polar()
    for p in (apt(0.4, 0.13, 0.5, 0.21), apt(0.5, 0.6, 0.5, 0.21)):
        r, t1 = p.coords[:2]
        assert overlap.at(p).image.coords[1] == pytest.approx(r * math.sin(2 * math.pi * t1), abs=1e-15)
        nf = normal_form(pullback(overlap, rho, p))
        got = nf.b_plus_i_omega()
        b = b_field(p).value().coeffs
        w = w_field(p).value().coeffs
        expected = np.array(b + 1j * w)
        for mask in (0b0101, 0b1001):  # dr terms unscaled
            assert abs(got.coeffs[mask] - expected[mask]) < 1e-12
        for mask in (0b0110, 0b1010):  # dtheta1 terms scaled by 2*pi
            assert abs(got.coeffs[mask] - 2 * math.pi * expected[mask]) < 1e-11


# ------------------------------------------------------ quotient model


def deck_image(params, p):
    return deck_action_map(params).at(p).image


def test_deck_action_examples():
    assert deck_image(LogModelParams(1, 0), apt(0.5, 0.1, 0.2, 0.3)).coords == pytest.approx(
        (0.5, 0.1, 0.2, 0.3)
    )
    moved = deck_image(LogModelParams(2, 1), apt(0.5, 0.1, 0.2, 0.3))
    assert moved.coords == pytest.approx((0.5, 0.6, 0.7, 0.3))


@pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2), (5, 2)])
def test_deck_action_orbits(m, k):
    params = LogModelParams(m, k)
    for r in (0.0, 0.5):
        p = apt(r, 0.12, 0.34, 0.56)
        orbit = []
        q = p
        for _ in range(m):
            q = deck_image(params, q)
            orbit.append(q.coords)
        assert np.allclose(orbit[-1], p.coords, atol=1e-12)  # order m
        seen = {tuple(np.round(c, 9)) for c in orbit}
        assert len(seen) == m  # free, including on the central fibre


def test_deck_action_invalid_params():
    with pytest.raises(ValueError):
        LogModelParams(4, 2)
    with pytest.raises(ValueError):
        LogModelParams(0, 1)


def test_deck_invariance_of_annulus_forms():
    b_field, w_field = local_model_polar()
    rng = np.random.default_rng(5)
    for m, k in ((2, 1), (3, 2), (5, 2)):
        mapping = deck_action_map(LogModelParams(m, k))
        for p in rand_apts(rng, 5):
            for fld in (b_field, w_field):
                assert (pullback(mapping, fld, p) - fld(p).value()).max_abs() < 1e-13


def test_log_model_m1_reduces_to_annulus():
    bq, wq = log_model(LogModelParams(1, 0))
    b, w = local_model_polar()
    p = apt(0.3, 0.4, 0.5, 0.6)
    pq = ChartPoint(CHART_QUOTIENT, p.coords, ANGLES)
    assert bq(pq).value().allclose(b(p).value(), tol=1e-14)
    assert wq(pq).value().allclose(w(p).value(), tol=1e-14)


@pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (5, 2)])
def test_quotient_pullbacks_symbolic_and_numeric(m, k):
    r, t1, t2, t3 = R_SYMS
    rp = Q_SYMS[0]
    phi = [r**m, m * t1, t2 - k * t1, t3]
    Bq = {
        (1, 3): 1 / rp,
        (1, 2): sp.Rational(k, m) / rp,
        (2, 4): -sp.Rational(1, m),
    }
    Wq = {(1, 4): 1 / (m * rp), (2, 3): sp.Rational(1, m)}
    B, W = annulus_forms_symbolic()

    pulled_w = spullback(Wq, phi, R_SYMS, Q_SYMS)
    assert pulled_w.keys() == W.keys()
    for key in W:
        assert sp.simplify(pulled_w[key] - W[key]) == 0

    pulled_b = spullback(Bq, phi, R_SYMS, Q_SYMS)
    expected_b = {(1, 3): sp.Integer(m) / r, (2, 4): sp.Integer(-1)}
    assert pulled_b.keys() == expected_b.keys()
    for key in expected_b:
        assert sp.simplify(pulled_b[key] - expected_b[key]) == 0

    # discrepancy (m-1) dlog r ^ dtheta2, closed
    disc = sadd(pulled_b, B, scale=-1)
    assert disc == {(1, 3): sp.nsimplify(m - 1) / r} if m > 1 else disc == {}
    assert sd(disc, R_SYMS) == {}

    # numeric route through the package pullback
    params = LogModelParams(m, k)
    qmap = quotient_map(params)
    bq, wq = log_model(params)
    b, w = local_model_polar()
    rng = np.random.default_rng(100 + m)
    for p in rand_apts(rng, 10, lo=0.2):
        assert (pullback(qmap, wq, p) - w(p).value()).max_abs() < 1e-12
        got_disc = pullback(qmap, bq, p) - b(p).value()
        expected = Multiform.from_terms(4, {(1, 3): (m - 1) / p.coords[0]})
        assert (got_disc - expected).max_abs() < 1e-10


def test_quotient_spinor_integrable():
    rho = quotient_spinor_field(LogModelParams(3, 2))
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = ChartPoint(CHART_QUOTIENT, (rng.uniform(0.2, 1.0), *rng.uniform(0, 1, 3)), ANGLES)
        wit = integrability_residual(rho, None, p)
        assert wit.residual < 1e-10


# ---------------------------------------------------------- tube model


def test_tube_symplectic_closed_and_nondegenerate():
    sigma = tube_symplectic()
    p = tpt(1.0, 0.3, 0.6, 0.9)
    jet = sigma(p)
    assert jet.d().value().max_abs() < 1e-14
    val = jet.value()
    assert abs(val.wedge(val).top()) == pytest.approx(2.0)  # 2*rt at rt=1
    from gcx.spinor import from_symplectic

    rho = from_symplectic(val)
    assert normal_form(rho).type == 0


def test_gluing_map_boundary_and_formula():
    psi = gluing_map()
    out = psi.at(apt(1.0, 0.2, 0.5, 0.7)).image
    assert out.chart == CHART_TUBE
    assert out.coords == pytest.approx((1.0, 0.7, 0.5, 0.8))  # (1, c, b, -a) mod 1
    out2 = psi.at(apt(math.exp(-0.25), 0.0, 0.0, 0.0)).image
    assert out2.coords[0] == pytest.approx(math.sqrt(0.5))


def gluing_map_inverse(slack: float = 1e-12) -> ChartMap:
    """The tube -> annulus inverse of gluing_map: r = exp((rt^2 - 1)/2) on 0 < rt <= 1."""

    def inv(ins):
        rt, t1, t2, t3 = ins
        r = ((rt * rt - 1.0) * 0.5).exp()
        return [r, -1.0 * t3, t2, t1]

    return ChartMap(
        CHART_TUBE,
        CHART_ANNULUS,
        4,
        inv,
        target_periodic=ANGLES,
        domain=lambda c: 0.0 < c[0] <= 1.0 + slack,
    )


def test_gluing_map_round_trip():
    psi, psi_inv = gluing_map(), gluing_map_inverse()
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = apt(rng.uniform(1 / math.sqrt(math.e) + 1e-6, 1.0), *rng.uniform(0, 1, 3))
        q = psi_inv.at(psi.at(p).image).image
        assert np.abs(np.array(q.coords) - np.array(p.coords)).max() < 1e-12


def test_gluing_map_domain_guards():
    psi = gluing_map()
    with pytest.raises(ValueError, match="domain"):
        psi.at(apt(0.5, 0, 0, 0))  # below 1/sqrt(e)
    with pytest.raises(ValueError, match="domain"):
        gluing_map_inverse().at(tpt(1.5, 0, 0, 0))


def test_gluing_pullback_is_symplectomorphism_symbolic():
    r, t1, t2, t3 = R_SYMS
    rt = T_SYMS[0]
    phi = [sp.sqrt(1 + 2 * sp.log(r)), t3, t2, -t1]
    sigma = {(1, 2): rt, (3, 4): sp.Integer(1)}
    pulled = spullback(sigma, phi, R_SYMS, T_SYMS)
    _, W = annulus_forms_symbolic()
    assert pulled.keys() == W.keys()
    for key in W:
        assert sp.simplify(pulled[key] - W[key]) == 0


def test_gluing_pullback_numeric():
    psi = gluing_map()
    sigma = tube_symplectic()
    _, w_field = local_model_polar()
    rng = np.random.default_rng(10)
    for _ in range(25):
        p = apt(rng.uniform(0.62, 1.0), *rng.uniform(0, 1, 3))
        got = pullback(psi, sigma, p)
        assert (got - w_field(p).value()).max_abs() < 1e-12
        _, jac = psi.jets(p.array())
        assert abs(np.linalg.det(jac)) > 1e-12


# ---------------------------------------------------------------- bump


@pytest.mark.parametrize("profile", ["flat", "poly"])
def test_bump_basic_values(profile):
    geo = SurgeryGeometry(profile=profile)
    prof = bump_profile(geo)
    f, fp = prof.evaluate(0.5)
    assert f == 1.0 and fp == 0.0
    f, fp = prof.evaluate(geo.r_out + 1.0)
    assert f == 0.0 and fp == 0.0
    # endpoints of the descent window
    assert (prof.lo, prof.hi) == (1.0, geo.r_out)
    assert prof.evaluate(prof.lo)[0] == 1.0
    assert prof.evaluate(prof.hi)[0] == 0.0


@pytest.mark.parametrize("profile", ["flat", "poly"])
def test_bump_junction_continuity_and_monotone(profile):
    geo = SurgeryGeometry(profile=profile)
    prof = bump_profile(geo)
    eps = 1e-4
    for junction in (1.0, geo.r_out):
        inner = prof.evaluate(junction + (eps if junction == 1.0 else -eps))
        outer = prof.evaluate(junction + (-eps if junction == 1.0 else eps))
        assert abs(inner[1] - outer[1]) < 1e-2  # derivative levels meet at the seam
    grid = np.linspace(1.0, geo.r_out, 200)
    vals = [prof.evaluate(r)[0] for r in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # all-orders-flat profile: derivatives vanish at the seams to round-off
    if profile == "flat":
        for r in (1.0 + 1e-9, geo.r_out - 1e-9):
            _, fp = prof.evaluate(r)
            assert abs(fp) < 1e-10


@pytest.mark.parametrize("profile", ["flat", "poly"])
def test_bump_fundamental_theorem_by_quadrature(profile):
    geo = SurgeryGeometry(profile=profile)
    prof = bump_profile(geo)
    nodes, weights = np.polynomial.legendre.leggauss(160)
    lo, hi = prof.lo, prof.hi
    scaled = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    integral = 0.5 * (hi - lo) * sum(
        w * prof.evaluate(r)[1] for w, r in zip(weights, scaled)
    )
    assert prof.evaluate(1.0)[0] - prof.evaluate(hi)[0] == pytest.approx(1.0)
    assert integral == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("profile", ["flat", "poly"])
def test_bump_derivative_matches_finite_differences(profile):
    # the hand-written f and f' against sympy's exact derivative of the same formula, at the x the code
    # forms, inside both seams (past the flat profile's 5e-3 guards) and in the middle of the window
    prof = bump_profile(SurgeryGeometry(profile=profile))
    x = sp.Symbol("x")
    if profile == "flat":
        a, b = sp.exp(-1 / x), sp.exp(-1 / (1 - x))
        f_exact = b / (a + b)
    else:
        f_exact = 1 - (6 * x**5 - 15 * x**4 + 10 * x**3)
    fp_exact = sp.diff(f_exact, x) / sp.Rational(prof.hi - prof.lo)
    h = 1e-5
    for r in (1.006, 1.01, 1.2, 1.5, 1.8, 1.99, 1.994):
        f, fp = prof.evaluate(r)
        at = {x: sp.Rational((r - prof.lo) / (prof.hi - prof.lo))}
        # f lies in [0, 1] and the poly form 1 - (...) cancels near hi, so f may also miss by ulps of 1
        assert f == pytest.approx(float(f_exact.evalf(40, subs=at)), rel=1e-12, abs=1e-15)
        assert fp == pytest.approx(float(fp_exact.evalf(40, subs=at)), rel=1e-12, abs=0.0)
        f_hi = prof.evaluate(r + h)
        f_lo = prof.evaluate(r - h)
        assert (f_hi[0] - f_lo[0]) / (2 * h) == pytest.approx(fp, abs=1e-7)


def test_bump_window_override():
    geo = SurgeryGeometry(r_out=4.0)
    prof = bump_profile(geo, window=(2.5, 3.5))
    assert prof.evaluate(2.0) == (1.0, 0.0)
    assert prof.evaluate(3.75) == (0.0, 0.0)
    assert 0.0 < prof.evaluate(3.0)[0] < 1.0
    with pytest.raises(ValueError):
        bump_profile(geo, window=(0.5, 2.0))


# -------------------------------------------------------- B extension


def test_b_extension_support_and_h_closed_form():
    geo = SurgeryGeometry()
    btilde, h = b_extension_and_h(geo)
    # inside the tube: Btilde is the full pulled-back form, H vanishes exactly
    p = tpt(0.8, 0.1, 0.2, 0.3)
    assert h(p).value().max_abs() == 0.0
    bt = btilde(p).value()
    assert bt.allclose(Multiform.from_terms(4, {(1, 3): 0.8, (2, 4): -1.0}), tol=1e-14)
    # outside: both vanish exactly
    p = tpt(geo.r_out + 0.5, 0.4, 0.5, 0.6)
    assert btilde(p).value().max_abs() == 0.0
    assert h(p).value().max_abs() == 0.0
    # in the descent window: H = -f'(rt) drt^dt1^dt3 (the assembled d(Btilde))
    rt = 1.5
    _, fp = bump_profile(geo).evaluate(rt)
    val = h(tpt(rt, 0.0, 0.0, 0.0)).value()
    expected = Multiform.from_terms(4, {(1, 2, 4): -fp})
    assert val.allclose(expected, tol=1e-12)
    assert fp != 0.0


def test_b_extension_dh_vanishes():
    geo = SurgeryGeometry()
    _, h = b_extension_and_h(geo)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = tpt(rng.uniform(0.1, geo.r_out + 0.5), *rng.uniform(0, 1, 3))
        # dH from central differences of H's values: jets carry no second derivatives of Btilde
        dh = FormJet(4, h(p).values, central_partials(lambda x: h.fn(x).values, p.array())).d()
        assert dh.value().max_abs() < 1e-10


def test_glued_spinor_integrable_against_minus_db():
    geo = SurgeryGeometry()
    rho = glued_spinor_field(geo)
    _, h = b_extension_and_h(geo)
    from gcx.chart import FormField

    minus_h = FormField(CHART_TUBE, 4, lambda c: FormJet(4, h.fn(c).values * -1.0))
    rng = np.random.default_rng(14)
    worst_right = 0.0
    worst_wrong = 0.0
    for _ in range(15):
        p = tpt(rng.uniform(1.05, geo.r_out - 0.05), *rng.uniform(0, 1, 3))
        worst_right = max(worst_right, integrability_residual(rho, minus_h, p).residual)
        worst_wrong = max(worst_wrong, integrability_residual(rho, h, p).residual)
    assert worst_right < 1e-10
    assert worst_wrong > 1e-3


def test_glued_spinor_type_zero():
    geo = SurgeryGeometry()
    rho = glued_spinor_field(geo)
    val = rho(tpt(1.4, 0.2, 0.6, 0.8)).value()
    nf = normal_form(val)
    assert nf.type == 0
    assert check_nondegenerate(nf)


def _order_contract_fields():
    """(name, field, whether it carries first partials, chart, radius range) for every model field."""
    geo = SurgeryGeometry()
    btilde, h = b_extension_and_h(geo)
    b, w = local_model_polar()
    bq, wq = log_model(LogModelParams(5, 2))
    return [
        ("local", local_model_spinor(), True, CHART_CPLANE, (-1.0, 1.0)),
        ("polar_b", b, True, CHART_ANNULUS, (0.06, 1.0)),
        ("polar_omega", w, True, CHART_ANNULUS, (0.06, 1.0)),
        ("polar_spinor", polar_spinor_field(), True, CHART_ANNULUS, (0.06, 1.0)),
        ("quotient_b", bq, True, CHART_QUOTIENT, (0.01, 1.0)),
        ("quotient_omega", wq, True, CHART_QUOTIENT, (0.01, 1.0)),
        ("quotient_spinor", quotient_spinor_field(LogModelParams(5, 2)), True, CHART_QUOTIENT, (0.01, 1.0)),
        ("tube_symplectic", tube_symplectic(), True, CHART_TUBE, (0.06, 3.0)),
        ("btilde", btilde, True, CHART_TUBE, (0.06, 3.0)),
        ("h", h, False, CHART_TUBE, (0.06, 3.0)),
        ("glued_spinor", glued_spinor_field(geo), True, CHART_TUBE, (0.06, 3.0)),
    ]


ORDER_CONTRACT_FIELDS = _order_contract_fields()


@pytest.mark.parametrize("name, field, partials, chart, radii", ORDER_CONTRACT_FIELDS, ids=[r[0] for r in ORDER_CONTRACT_FIELDS])
def test_field_at_a_lower_order_keeps_the_levels_it_carries(name, field, partials, chart, radii):
    # a 16-point block: the field returns what it carries (H, a d, has values alone: grads None), and
    # its pullback through the identity map, a jet of values alone, keeps its values bit for bit
    rng = np.random.default_rng(17)
    coords = rng.uniform(0.0, 1.0, (4, 16))
    coords[0] = radii[0] + (radii[1] - radii[0]) * coords[0]
    p = ChartPoint(chart, tuple(coords), () if chart == CHART_CPLANE else ANGLES)
    full = field(p)
    assert (full.grads is not None) == partials
    if partials:
        assert full.grads.shape == full.values.shape + (4,) and np.isfinite(full.grads).all()
    low = pullback_jet(ChartMap(chart, chart, 4, lambda ins: list(ins)).at(p), field)
    assert low.grads is None
    assert np.array_equal(low.values, full.values)


def test_h_at_order_zero_has_no_derivative_to_take():
    _, h = b_extension_and_h(SurgeryGeometry())
    p = tpt(1.5, 0.1, 0.2, 0.3)
    assert h(p).grads is None
    with pytest.raises(ValueError, match="first partials"):
        h(p).d()
