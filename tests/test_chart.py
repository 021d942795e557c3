import numpy as np
import pytest

from gcx import conventions
from gcx import expressions as ex
from gcx.chart import (
    ChartMap,
    ChartPoint,
    FormField,
    GcField,
    courant_bracket,
    e_b_transform,
    integrability_residual,
    pullback,
    pullback_jet,
)
from gcx.jets import FormJet, Jet2, _Jet
from gcx.multilinear import Multiform, exp_wedge, interior_coeffs
from helpers_naive import central_partials, naive_action_table, random_polynomial

N = 4
FLAT = "flat"
ZERO, ONE = {"const": {}}, {"const": {"re": 1.0}}


def pt(*coords):
    return ChartPoint(FLAT, coords)


def form_field(terms):
    """terms: {(i1,..): expr node}"""
    payload = [{"indices": list(k), "expr": v} for k, v in terms.items()]
    return FormField.from_expressions(FLAT, N, payload)


def constant_form(form: Multiform) -> FormField:
    """The form at every point: one JSON const term per nonzero coefficient."""
    terms = form.to_json_dict()["terms"]
    return form_field({tuple(t["indices"]): {"const": {"re": t["re"], "im": t["im"]}} for t in terms})


def gc_field(vec=None, cov=None):
    vec = list(vec) if vec else [ZERO] * N
    cov = list(cov) if cov else [ZERO] * N
    return GcField.from_expressions(FLAT, N, vec, cov)


# ---------------------------------------------------------------- jets


def test_jet_matches_finite_differences():
    rng = np.random.default_rng(100)
    node = {
        "add": [
            {"mul": [{"const": {"re": 0.7}}, {"coord": 1}, {"coord": 2}]},
            {"pow": [{"coord": 3}, 3]},
            {"mul": [{"const": {"re": 0.3}}, {"exp": {"mul": [{"const": {"re": 0.2}}, {"coord": 4}]}}]},
            {"sin": {"coord": 2}},
        ]
    }
    h = 1e-5
    for _ in range(10):
        x = rng.uniform(-1, 1, N)
        jet = ex.evaluate(node, x)
        for i in range(N):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (ex.evaluate(node, xp).values - ex.evaluate(node, xm).values) / (2 * h)
            scale = max(1.0, abs(jet.grads[i]))
            assert abs(fd - jet.grads[i]) <= 1e-7 * scale


def test_jet_division_and_log():
    x = Jet2.coordinate(1, 1, 0.5)
    inv = 1.0 / x
    assert inv.values == pytest.approx(2.0)
    assert inv.grads[0] == pytest.approx(-4.0)
    lg = x.log()
    assert lg.grads[0] == pytest.approx(2.0)


# ------------------------------------------------- exterior derivative


def test_d_of_x1_dx2():
    alpha = form_field({(2,): {"coord": 1}})
    out = alpha(pt(0.3, 0.4, 0.5, 0.6)).d().value()
    assert out.allclose(Multiform.basis(N, (1, 2)), tol=1e-14)


def test_d_of_constant_form_is_zero():
    alpha = form_field({(1, 3): {"const": {"re": 2.5}}})
    assert alpha(pt(1, 2, 3, 4)).d().value().max_abs() == 0.0


def test_d_squared_vanishes():
    rng = np.random.default_rng(8)
    for _ in range(5):
        terms = {
            (1,): random_polynomial(rng, N),
            (2,): random_polynomial(rng, N),
            (1, 3): random_polynomial(rng, N),
            (2, 4): random_polynomial(rng, N),
        }
        alpha = form_field(terms)
        p = pt(*rng.uniform(-1, 1, N))
        dd = d_field(alpha, partials=True)(p).d().value()  # d of the exact d alpha, by central differences
        assert dd.max_abs() < 1e-8


# ------------------------------------------------------ courant bracket


def test_bracket_constant_fields_vanish():
    u = gc_field(vec=[ONE, ZERO, ZERO, ZERO])
    v = gc_field(vec=[ZERO, ONE, ZERO, ZERO])
    out = courant_bracket(u, v, None, pt(0.1, 0.2, 0.3, 0.4))
    assert np.linalg.norm(out.as_array()) == pytest.approx(0.0, abs=1e-15)


def test_bracket_hand_cartan_example():
    # oracle by hand: L_{d/dx1}(x1 dx2) = i_X(dx1^dx2) + d(0) = dx2
    u = gc_field(vec=[ONE, ZERO, ZERO, ZERO])
    v = gc_field(cov=[ZERO, {"coord": 1}, ZERO, ZERO])
    out = courant_bracket(u, v, None, pt(0.7, -0.3, 0.2, 0.9))
    assert np.abs(out.vec).max() < 1e-14
    assert np.allclose(out.cov, [0, 1, 0, 0])


def test_bracket_h_contraction_example():
    # i_Y i_X (dx1^dx2^dx3) = dx3 for X = d/dx1, Y = d/dx2
    u = gc_field(vec=[ONE, ZERO, ZERO, ZERO])
    v = gc_field(vec=[ZERO, ONE, ZERO, ZERO])
    h = form_field({(1, 2, 3): ONE})
    out = courant_bracket(u, v, h, pt(0.1, 0.2, 0.3, 0.4))
    assert np.abs(out.vec).max() < 1e-14
    assert np.allclose(out.cov, [0, 0, 1, 0])


def rand_gc_field(rng):
    return gc_field(
        vec=[random_polynomial(rng, N) for _ in range(N)],
        cov=[random_polynomial(rng, N) for _ in range(N)],
    )


def d_field(f: FormField, partials: bool = False) -> FormField:
    """d f, values alone; with partials, it takes central differences of its values for their partials."""

    def values(coords):
        return f.fn(coords).d().values

    def fn(coords):
        grads = central_partials(values, coords) if partials else None
        return FormJet(f.dim, values(coords), grads)

    return FormField(f.chart, f.dim, fn)


def sum_field(a: FormField, b: FormField) -> FormField:
    """a + b, values alone, as H fields are."""
    return FormField(a.chart, a.dim, lambda coords: FormJet(a.dim, a.fn(coords).values + b.fn(coords).values))


def apply_e_b(b_vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E_B on generator components (2n, N) at a block, with B's coefficients (2^n, N) there."""
    ixb = interior_coeffs(b_vals, w[:N])
    return w + np.concatenate([np.zeros_like(w[:N]), ixb[[1 << i for i in range(N)]]])


def block(rng, count):
    """count points drawn as count successive uniform draws of N coordinates, as one block."""
    return pt(*rng.uniform(-1, 1, (count, N)).T)


def test_bracket_closed_b_equivariance():
    rng = np.random.default_rng(55)
    lam = form_field({(i,): random_polynomial(rng, N) for i in range(1, N + 1)})
    b = d_field(lam, partials=True)  # closed by construction; E_B reads its partials
    h = d_field(form_field({(1, 2): random_polynomial(rng, N), (3, 4): random_polynomial(rng, N)}))
    u, v = rand_gc_field(rng), rand_gc_field(rng)
    ub, vb = e_b_transform(b, u), e_b_transform(b, v)
    p = block(rng, 20)
    lhs = courant_bracket(ub, vb, h, p)
    rhs = apply_e_b(b(p).values, courant_bracket(u, v, h, p))
    assert np.linalg.norm(lhs - rhs, axis=0).max() < 1e-8


@pytest.mark.parametrize("count", [1, 17, 64])
@pytest.mark.parametrize("twisted", [False, True], ids=["H=0", "H"])
def test_block_bracket_equals_the_per_point_bracket(twisted, count):
    rng = np.random.default_rng(57)
    h = d_field(form_field({(1, 2): random_polynomial(rng, N), (2, 3): random_polynomial(rng, N)}))
    b = form_field({(1, 2): random_polynomial(rng, N), (1, 4): random_polynomial(rng, N)})
    u, v = rand_gc_field(rng), e_b_transform(b, rand_gc_field(rng))
    h = h if twisted else None
    p = block(rng, count)
    got = courant_bracket(u, v, h, p)
    want = np.stack([courant_bracket(u, v, h, pt(*c)).as_array() for c in p.array().T], axis=-1)
    assert got.shape == (2 * N, count)
    assert np.array_equal(got, want)


def test_bracket_rejects_generators_without_partials():
    # E_B with a B that is a d has no partials of i_X B to give, and a generator of values alone none at all;
    # a bracket of either would read zeros for the missing partials
    rng = np.random.default_rng(55)
    lam = form_field({(i,): random_polynomial(rng, N) for i in range(1, N + 1)})
    b = FormField(FLAT, N, lambda x: lam.fn(x).d())
    u, v = rand_gc_field(rng), rand_gc_field(rng)
    ub, vb = e_b_transform(b, u), e_b_transform(b, v)
    bare = GcField(FLAT, N, lambda x: _Jet(N, u.fn(x).values))
    p = pt(0.1, 0.2, 0.3, 0.4)
    assert bare(p).grads is None
    for left, right in ((ub, vb), (ub, v), (u, vb), (bare, v), (u, bare)):
        with pytest.raises(ValueError, match="first partials"):
            courant_bracket(left, right, None, p)


def test_bracket_nonclosed_b_shift_frozen_sign():
    # frozen: [E_B u, E_B v]_H = E_B([u, v]_{H + s*dB}) with s = BRACKET_SHIFT_SIGN
    rng = np.random.default_rng(56)
    b = form_field({(1, 2): random_polynomial(rng, N), (1, 4): random_polynomial(rng, N)})
    h = d_field(form_field({(2, 3): random_polynomial(rng, N)}))
    db = d_field(b)
    sign = float(conventions.BRACKET_SHIFT_SIGN)
    shift = FormField(FLAT, N, lambda coords: FormJet(N, db.fn(coords).values * sign))
    wrong_shift = FormField(FLAT, N, lambda coords: FormJet(N, db.fn(coords).values * -sign))
    u, v = rand_gc_field(rng), rand_gc_field(rng)
    ub, vb = e_b_transform(b, u), e_b_transform(b, v)
    p = block(rng, 20)
    lhs = courant_bracket(ub, vb, h, p)
    rhs_frozen = apply_e_b(b(p).values, courant_bracket(u, v, sum_field(h, shift), p))
    rhs_wrong = apply_e_b(b(p).values, courant_bracket(u, v, sum_field(h, wrong_shift), p))
    worst_good = np.linalg.norm(lhs - rhs_frozen, axis=0).max()
    worst_bad = np.linalg.norm(lhs - rhs_wrong, axis=0).max()
    assert worst_good < 1e-8
    assert worst_bad > 1e-3  # the opposite sign convention fails


# -------------------------------------------------------------- pullback


def identity_map():
    return ChartMap(FLAT, FLAT, N, lambda ins: list(ins))


def swap12_map():
    return ChartMap(FLAT, FLAT, N, lambda ins: [ins[1], ins[0], ins[2], ins[3]])


def test_pullback_identity():
    rng = np.random.default_rng(2)
    alpha = form_field({(1, 2): random_polynomial(rng, N), (3,): random_polynomial(rng, N)})
    p = pt(0.3, -0.2, 0.6, 0.1)
    assert pullback(identity_map(), alpha, p).allclose(alpha(p).value(), tol=1e-13)


def test_pullback_swap():
    alpha = form_field({(1,): ONE})
    out = pullback(swap12_map(), alpha, pt(0.5, 0.25, 0, 0))
    assert out.allclose(Multiform.basis(N, (2,)), tol=1e-14)


def curved_map():
    def fn(ins):
        x1, x2, x3, x4 = ins
        return [
            x1 + x2 * x2 * 0.3,
            x2 + (x3 * x1) * 0.5,
            x3 + x4 * x4 * x4 * 0.1,
            x4 + x1 * 0.2,
        ]

    return ChartMap(FLAT, FLAT, N, fn)


def test_pullback_naturality():
    rng = np.random.default_rng(66)
    phi = curved_map()
    alpha = form_field({(1,): random_polynomial(rng, N), (2, 3): random_polynomial(rng, N)})
    beta = form_field({(4,): random_polynomial(rng, N), (1, 2): random_polynomial(rng, N)})
    for _ in range(10):
        p = pt(*rng.uniform(-0.8, 0.8, N))
        lhs = pullback(phi, alpha, p).wedge(pullback(phi, beta, p))
        wedge_field = FormField(FLAT, N, lambda c: alpha.fn(c).wedge(beta.fn(c)))
        rhs = pullback(phi, wedge_field, p)
        assert (lhs - rhs).max_abs() < 1e-9
        # d commutes with pullback: d of the pulled-back values by central differences
        def pulled(x):
            return pullback(phi, alpha, pt(*x)).coeffs

        d_pull = FormJet(N, pulled(p.array()), central_partials(pulled, p.array())).d().value()
        pull_d = pullback(phi, d_field(alpha), p)
        assert (d_pull - pull_d).max_abs() < 1e-9


def test_chart_map_domain_guard():
    phi = ChartMap(FLAT, FLAT, N, lambda ins: list(ins), domain=lambda c: c[0] > 0)
    with pytest.raises(ValueError, match="outside the domain"):
        phi.jets(np.array([-1.0, 0, 0, 0]))


# ---------------------------------------------------- integrability


def test_integrability_constant_symplectic():
    omega0 = Multiform.from_terms(N, {(1, 2): 1.0, (3, 4): 1.0})
    rho = constant_form(exp_wedge(1j * omega0))
    wit = integrability_residual(rho, None, pt(0.4, 0.1, -0.7, 0.2))
    assert wit.residual < 1e-14
    assert np.linalg.norm(wit.v.as_array()) < 1e-12


def test_integrability_obstructed_example():
    # rho = exp((1 + x3) i dx1^dx2); degree-1 and degree-3 conditions clash
    def fn(coords):
        c = Jet2.coordinate(N, 3, coords[2])
        jet = FormJet.zero(N)
        jet[0b0011] = (1.0 + c) * 1j
        return jet.exp_wedge()

    rho = FormField(FLAT, N, fn)
    # least-squares oracle, built directly from the action matrix
    from gcx.multilinear import action_matrix

    p = pt(0.0, 0.0, 0.0, 0.0)
    jet = rho(p)
    target = jet.d().value().coeffs
    mat = action_matrix(jet.value())
    sol, _, _, _ = np.linalg.lstsq(mat, target, rcond=None)
    oracle = float(np.linalg.norm(mat @ sol - target))
    assert oracle == pytest.approx(np.sqrt(0.5), rel=1e-9)

    wit = integrability_residual(rho, None, p)
    assert wit.residual == pytest.approx(oracle, rel=1e-12)
    assert wit.residual > 0.1


def _lstsq_reference(values, grads):
    """Per point numpy lstsq of the action matrix, built from the term-by-term dense table, against d rho."""
    jet = FormJet(N, values, grads)
    target = jet.d().values
    action = naive_action_table(N)
    sols, residuals = [], []
    for i in range(values.shape[1]):
        mat = np.einsum("jus,s->uj", action, values[:, i])
        sol, _, _, _ = np.linalg.lstsq(mat, target[:, i], rcond=None)
        sols.append(sol)
        residuals.append(np.linalg.norm(mat @ sol - target[:, i]))
    return np.array(sols).T, np.array(residuals)


@pytest.mark.parametrize("kind", ["mixed", "even", "pure"])
def test_integrability_least_squares_matches_lstsq(kind):
    # mixed parity keeps all 16 action rows; an even spinor leaves the 8 even rows zero, whose
    # target components must still count; a pure spinor's action matrix has rank 4 of 8
    from gcx.multilinear import _tables

    rng = np.random.default_rng(23)
    count = 37
    values = rng.normal(size=(16, count)) + 1j * rng.normal(size=(16, count))
    if kind != "mixed":
        values[_tables(N).degree % 2 == 1] = 0.0
    if kind == "pure":  # exp of a random complex 2-form at each point, scaled so that
        # a cutoff not relative to the largest singular value would keep round-off
        two = FormJet.constant(N, np.where(_tables(N).degree[:, None] == 2, values, 0.0))
        values = 1e3 * two.exp_wedge().values
    grads = rng.normal(size=(16, count, N)) + 1j * rng.normal(size=(16, count, N))
    sols, residuals = _lstsq_reference(values, grads)
    assert residuals.min() > 0.1  # the even target components of a pure or even spinor included

    def fn(coords):  # the block's jets, or the first point's at one point
        cols = slice(None) if np.ndim(coords) > 1 else 0
        return FormJet(N, values[:, cols], grads[:, cols])

    rho = FormField(FLAT, N, fn)
    wit = integrability_residual(rho, None, ChartPoint(FLAT, tuple(rng.uniform(-1, 1, (N, count)))))
    assert np.abs(wit.residual - residuals).max() <= 1e-12 * residuals.max()
    assert np.abs(wit.v - sols).max() <= 1e-12 * np.abs(sols).max()
    one = integrability_residual(rho, None, pt(0.1, 0.2, 0.3, 0.4))  # the N-less path, point 0
    assert one.residual == pytest.approx(residuals[0], rel=1e-12)
    assert np.abs(one.v.as_array() - sols[:, 0]).max() <= 1e-12 * np.abs(sols[:, 0]).max()


def test_integrability_rejects_zero_spinor():
    rho = form_field({(): {"coord": 1}})
    with pytest.raises(ValueError, match="zero locus"):
        integrability_residual(rho, None, pt(0.0, 1.0, 1.0, 1.0))


def test_interior_jet_matches_finite_differences():
    # contraction of a varying 2-form by a varying vector field, FD oracle
    rng = np.random.default_rng(91)
    b = form_field({(1, 2): random_polynomial(rng, N), (2, 4): random_polynomial(rng, N)})
    u = rand_gc_field(rng)
    h = 1e-5

    def contracted(coords):
        uj = u.fn(coords)
        return b.fn(coords).interior_jet(uj.values[:N], uj.grads[:N])

    x = rng.uniform(-1, 1, N)
    jet = contracted(x)
    for i in range(N):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd_vals = (contracted(xp).values - contracted(xm).values) / (2 * h)
        assert np.abs(fd_vals - jet.grads[:, i]).max() < 1e-7


def test_interior_jet_on_a_block_equals_its_columns():
    rng = np.random.default_rng(93)
    b = form_field({mask: random_polynomial(rng, N) for mask in ((1, 2), (2, 4), (1, 3, 4))})
    u = rand_gc_field(rng)
    coords = rng.uniform(-1, 1, (N, 17))
    uj = u.fn(coords)
    got = b.fn(coords).interior_jet(uj.values[:N], uj.grads[:N])
    assert got.values.shape == (1 << N, 17) and got.grads.shape == (1 << N, 17, N)
    for c, x in enumerate(coords.T):
        one = u.fn(x)
        col = b.fn(x).interior_jet(one.values[:N], one.grads[:N])
        assert np.array_equal(got.values[:, c], col.values)
        assert np.array_equal(got.grads[:, c], col.grads)


def test_gc_jet_cov_form_round_trip():
    # the covector slice of a generator jet, moved into the one-form
    # coefficients of a FormJet and back by component get/set
    rng = np.random.default_rng(92)
    u = rand_gc_field(rng)
    x = rng.uniform(-1, 1, N)
    uj = u.fn(x)
    cov = FormJet.zero(N)
    for i in range(N):
        cov[1 << i] = uj[N + i]
    assert np.array_equal(cov.values[[1 << i for i in range(N)]], uj.values[N:])
    assert cov.value().allclose(cov.value().degree_part(1), tol=0.0)
    back = u.fn(x)
    back.values[N:] = back.grads[N:] = 0.0
    for i in range(N):
        back[N + i] = cov[1 << i]
    assert np.array_equal(back.values, uj.values)
    assert np.array_equal(back.grads, uj.grads)


def test_model_field_jets_match_finite_differences():
    from gcx.chart import ChartPoint as CP
    from gcx.models import ANGLES, local_model_polar

    b_field, _ = local_model_polar()
    h = 1e-5
    for r in (0.2, 0.55, 0.9):
        p = CP("annulus", (r, 0.3, 0.6, 0.1), ANGLES)
        jet = b_field(p)
        up = b_field(p.with_coords((r + h, 0.3, 0.6, 0.1)))
        dn = b_field(p.with_coords((r - h, 0.3, 0.6, 0.1)))
        fd = (up.values - dn.values) / (2 * h)
        assert np.abs(fd - jet.grads[:, 0]).max() < 1e-7 * max(1.0, 1 / r**2)


# ------------------------------------------------------------ plumbing


def test_chart_point_periodic_reduction():
    p = ChartPoint("annulus", (0.5, 1.25, -0.25, 2.0), (False, True, True, True))
    assert p.coords == (0.5, 0.25, 0.75, 0.0)


def test_chart_point_mismatch_rejected():
    alpha = form_field({(1,): ONE})
    with pytest.raises(ValueError, match="chart"):
        alpha(ChartPoint("elsewhere", (0, 0, 0, 0)))


def test_expression_json_vocabulary():
    node = {"add": [{"mul": [{"const": {"re": 2.0}}, {"coord": 1}]}, {"cos": {"coord": 2}}]}
    ex.compile(node, N)
    with pytest.raises(ValueError):
        ex.compile({"tan": {"coord": 1}}, N)
    with pytest.raises(ValueError):
        ex.compile({"coord": 9}, N)
    with pytest.raises(ValueError):
        ex.compile({"pow": [{"coord": 1}, 0.5]}, N)
    # unit-period convention: cos at a quarter turn vanishes
    jet = ex.evaluate({"cos": {"coord": 1}}, np.array([0.25, 0, 0, 0]))
    assert abs(jet.values) < 1e-15


# ------------------------------------------- blocks of points in one pass

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gcx import models  # noqa: E402

block_settings = settings(max_examples=25, deadline=None)


def block_point(chart, coords, periodic=models.ANGLES):
    """A block ChartPoint and its points one at a time."""
    coords = np.asarray(coords, dtype=float)
    block = ChartPoint(chart, tuple(coords), periodic)
    return block, [ChartPoint(chart, tuple(c), periodic) for c in coords.T]


def assert_stacked(got, refs, axis=-1):
    ref = np.stack(refs, axis=axis)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))


def assert_jet_block(block, points):
    axis = np.ndim(points[0].values)
    assert_stacked(block.values, [j.values for j in points], axis)
    if block.grads is None:  # values alone, as a pullback is
        assert all(j.grads is None for j in points)
    else:
        assert_stacked(block.grads, [j.grads for j in points], axis)


def annulus_coords(rng, count, r_lo=0.65, r_hi=1.0):
    return np.vstack([rng.uniform(r_lo, r_hi, count), rng.uniform(-0.5, 1.5, (3, count))])


def half_plane_form():
    """x1 dx1^dx3 where x1 > 0, zero elsewhere: its coefficient vanishes on part of a block."""

    def fn(coords):
        jet = FormJet.zero(N, np.shape(coords)[1:])
        on = coords[0] > 0
        jet.values[0b0101] = np.where(on, coords[0], 0.0)
        jet.grads[0b0101, ..., 0] = np.where(on, 1.0, 0.0)
        jet.values[0b1100] = 2.0
        return jet

    return FormField(FLAT, N, fn)


@block_settings
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_block_map_jets_and_pullbacks_match_points(seed, count):
    rng = np.random.default_rng(seed)
    coords = annulus_coords(rng, count)
    block, points = block_point(models.CHART_ANNULUS, coords)
    params = models.LogModelParams(3, 2)
    cases = [
        (models.gluing_map(), models.tube_symplectic()),
        (models.quotient_map(params), models.log_model(params)[0]),
        (models.quotient_map(params), models.quotient_spinor_field(params)),
        (models.deck_action_map(params), models.local_model_polar()[1]),
        (models.polar_overlap_map(), models.local_model_spinor()),
    ]
    for phi, alpha in cases:
        y, jac = phi.jets(coords)
        per = [phi.jets(c) for c in coords.T]
        assert_stacked(y, [p[0] for p in per])
        assert_stacked(jac, [p[1] for p in per], axis=0)
        assert_jet_block(pullback_jet(phi.at(block), alpha), [pullback_jet(phi.at(p), alpha) for p in points])
    # a block where the coefficient of dx1^dx3 vanishes at some points only
    flat = ChartMap(FLAT, FLAT, N, lambda ins: [ins[0] * ins[1], ins[1], ins[2] + ins[0], ins[3]])
    signs = np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0)
    block, points = block_point(FLAT, coords * signs, periodic=())
    alpha = half_plane_form()
    assert_jet_block(pullback_jet(flat.at(block), alpha), [pullback_jet(flat.at(p), alpha) for p in points])
    # a form that is zero everywhere: an empty sum, which must still be zeros of the form's shape
    zero = constant_form(Multiform(N))
    pulled = [pullback_jet(flat.at(p), zero).values for p in points]
    assert all(v.shape == (1 << N,) and not v.any() for v in pulled)
    pulled = pullback_jet(flat.at(block), zero).values
    assert pulled.shape == (1 << N, count) and not pulled.any()


def test_map_bases_are_the_wedge_recursion_bit_for_bit():
    # the pulled-back basis monomials, gathered from the covector rows of the action table, against the recursion
    # d(phi^low) ^ basis(mask without low) through the full wedge: every value and every zero's sign, on the maps
    # of the checks, at a block of 17 points, at one point and at a block of one
    from gcx.multilinear import wedge_coeffs

    maps = [models.gluing_map(), models.polar_overlap_map()]
    for m, k in [(1, 0), (2, 1), (3, 2), (5, 2), (7, 3)]:
        params = models.LogModelParams(m, k)
        maps += [models.quotient_map(params), models.deck_action_map(params)]
    coords = annulus_coords(np.random.default_rng(17), 17)
    for phi in maps:
        for where in (coords, coords[:, 0], coords[:, :1]):
            at = phi.at(ChartPoint(models.CHART_ANNULUS, tuple(where), models.ANGLES))
            old = {1 << t: at.basis(1 << t) for t in range(N)}
            for mask in range(1, 1 << N):
                if mask not in old:
                    low = mask & -mask
                    old[mask] = wedge_coeffs(N, old[low], old[mask ^ low])
                got = at.basis(mask)
                assert got.shape == old[mask].shape and got.tobytes() == old[mask].tobytes(), (phi, mask)


def test_block_map_with_constant_outputs_matches_points():
    # outputs without the block axis (a number, a jet built from one) are constant over the block
    coords = annulus_coords(np.random.default_rng(3), 5)
    phi = ChartMap(FLAT, FLAT, N, lambda ins: [ins[0], 0.5 * Jet2.constant(N, 1.0), 2.0, ins[1] * ins[3]])
    y, jac = phi.jets(coords)
    per = [phi.jets(c) for c in coords.T]
    assert_stacked(y, [p[0] for p in per])
    assert_stacked(jac, [p[1] for p in per], axis=0)
    assert np.array_equal(y[1:3], [[0.5] * 5, [2.0] * 5]) and not jac[:, 1:3].any()


def test_block_expression_and_constant_fields_match_points():
    # JSON-built and constant fields carry the block axis, constant terms included
    coords = np.random.default_rng(9).uniform(0.5, 1.5, (N, 5))
    block, points = block_point(FLAT, coords, periodic=())
    x1, x3 = {"coord": 1}, {"coord": 3}
    fields = [
        form_field({(1, 3): {"mul": [x1, {"sin": x3}]}, (): {"const": {"re": 2.0}}, (2, 4): {"const": {"re": 0.5}}}),
        gc_field(vec=[x1, ONE, {"pow": [x3, 2]}, ZERO]),
        constant_form(Multiform.from_terms(N, {(1, 2): 1.0, (3,): -2.0})),
        gc_field(vec=[{"const": {"re": float(i)}} for i in range(N)], cov=[ONE] * N),
    ]
    for field in fields:
        assert_jet_block(field(block), [field(p) for p in points])


@block_settings
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_block_integrability_residual_matches_points(seed, count):
    rng = np.random.default_rng(seed)
    geometry = models.SurgeryGeometry()
    window = (1.0, 1.6)
    _, h = models.b_extension_and_h(geometry, window)
    tube = np.vstack([rng.uniform(0.9, 1.8, count), rng.uniform(0, 1, (3, count))])
    cases = [
        (models.local_model_spinor(), None, models.CHART_CPLANE, rng.uniform(-1, 1, (4, count)), ()),
        (models.polar_spinor_field(), None, models.CHART_ANNULUS, annulus_coords(rng, count, 0.05),
         models.ANGLES),
        (models.glued_spinor_field(geometry, window), h, models.CHART_TUBE, tube, models.ANGLES),
    ]
    for rho, h_field, chart, coords, periodic in cases:
        block, points = block_point(chart, coords, periodic)
        wit = integrability_residual(rho, h_field, block)
        per = [integrability_residual(rho, h_field, p) for p in points]
        assert_stacked(wit.residual, [w.residual for w in per])
        assert_stacked(wit.v, [w.v.as_array() for w in per])


def test_block_with_one_point_outside_the_domain_raises():
    coords = annulus_coords(np.random.default_rng(5), 7)
    coords[0, 4] = 0.5  # below the gluing map's 1/sqrt(e)
    block, _ = block_point(models.CHART_ANNULUS, coords)
    with pytest.raises(ValueError, match=r"point \(0\.5, .*outside the domain"):
        models.gluing_map().at(block)
    coords[0, 4] = 0.01  # below the annulus model's r_min
    block, _ = block_point(models.CHART_ANNULUS, coords)
    with pytest.raises(ValueError, match="annulus model requires radius >= 0.05, got 0.01"):
        models.polar_spinor_field()(block)


# ------------------------------------------ compiled expression trees

from helpers_naive import naive_evaluate  # noqa: E402

# constants drawn from exact zeros, signed units and general complex numbers, so that folded
# products and sums meet every sign of zero
constants = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -0.5, 2.0, 1j, -1j]),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
).map(complex).map(lambda c: {"const": {"re": c.real, "im": c.imag}})


def extend_tree(children):
    nodes = st.lists(children, min_size=1, max_size=4)
    return st.one_of(
        nodes.map(lambda c: {"add": c}),
        nodes.map(lambda c: {"mul": c}),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: {"pow": list(t)}),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos"]), children).map(lambda t: {t[0]: t[1]}),
    )


constant_trees = st.recursive(constants, extend_tree, max_leaves=6)
trees = st.recursive(
    st.one_of(st.integers(1, N).map(lambda i: {"coord": i}), constants, constant_trees), extend_tree, max_leaves=12
)


def outcome(fn):
    """(values bytes, partials bytes, shapes), or the type of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            jet = fn()
    except ArithmeticError as exc:
        return type(exc)
    values, grads = np.asarray(jet.values), np.asarray(jet.grads)
    return values.tobytes(), grads.tobytes(), values.shape, grads.shape


@settings(max_examples=200, deadline=None)
@given(trees, st.lists(st.floats(-1.5, 1.5), min_size=4 * 17, max_size=4 * 17))
# -0.5 times a zero partial of x1 is -0, to which the tree walk adds x1 times the constant's +0 partial
@example({"mul": [{"const": {"re": -0.5}}, {"coord": 1}]}, [0.25] * (4 * 17))
# the partials of a product of two negative constants are -0, and the power keeps that sign
@example({"pow": [{"mul": [{"const": {"re": -1.0}}, {"const": {"re": -1.0}}]}, 2]}, [0.25] * (4 * 17))
# a constant that is not leading keeps its place in the fold: (x1 c) x2 and (x1 x2) c differ in the signs of
# zero partials at x1 = -1/4, x2 = 1/4, and (1 + 2^-53) - 1 = 0 where (1 - 1) + 2^-53 is not
@example({"mul": [{"coord": 1}, {"const": {"re": -0.5}}, {"coord": 2}]}, [-0.25] * 17 + [0.25] * (3 * 17))
@example({"add": [{"coord": 1}, {"const": {"re": 2.0**-53}}, {"coord": 2}]}, [1.0] * 17 + [-1.0] * 17 + [0.25] * 34)
def test_compiled_tree_matches_the_tree_walk_bit_for_bit(node, raw):
    # values and partials, signed zeros included, at one point and on a 17-point block
    block = np.array(raw).reshape(N, 17)
    for coords in (block[:, 0], block):
        assert outcome(lambda: ex.evaluate(node, coords)) == outcome(lambda: naive_evaluate(node, coords))


def test_generator_field_shares_its_coordinate_jets_and_builds_no_jet_for_a_constant(monkeypatch):
    vec = [
        {"mul": [{"const": {"re": 0.37}}, {"coord": 1}, {"coord": 2}]},
        {"mul": [{"coord": 3}, {"const": {"re": -1.5}}]},
        {"add": [{"const": {"re": 2.0}}, {"mul": [{"const": {"re": -3.0}}, {"const": {"re": -4.0}}]}, {"coord": 4}]},
        {"coord": 2},
    ]
    cov = [
        {"mul": [{"const": {"re": -0.25}}, {"pow": [{"coord": 1}, 2]}]},
        {"const": {"re": 0.5}},
        ZERO,
        {"sin": {"coord": 3}},
    ]
    field = GcField.from_expressions(FLAT, N, vec, cov)
    x = np.array([0.3, -0.4, 0.5, 0.6])
    expected = [outcome(lambda node=node: naive_evaluate(node, x)) for node in vec + cov]

    coordinates, constant_jets = [], []
    coordinate, constant = Jet2.coordinate.__func__, Jet2.constant.__func__

    def spy_coordinate(cls, n, i, value):
        coordinates.append(i)
        return coordinate(cls, n, i, value)

    def spy_constant(cls, n, value):  # a jet of a number, as a const leaf evaluated anew would be
        constant_jets.append(value)
        return constant(cls, n, value)

    monkeypatch.setattr(Jet2, "coordinate", classmethod(spy_coordinate))
    monkeypatch.setattr(Jet2, "constant", classmethod(spy_constant))
    for _ in range(2):
        jet = field(pt(*x))
        assert [outcome(lambda c=c: jet[c]) for c in range(2 * N)] == expected
    assert coordinates == [1, 2, 3, 4] * 2
    assert constant_jets == []


def test_expression_fields_reject_bad_trees_at_construction():
    x1 = {"coord": 1}
    with pytest.raises(ValueError, match="out of range"):
        GcField.from_expressions(FLAT, N, [{"coord": 5}, ZERO, ZERO, ZERO], [ZERO] * N)
    with pytest.raises(ValueError, match="pow exponent"):
        FormField.from_expressions(FLAT, N, [{"indices": [1], "expr": {"pow": [x1, 65]}}])
    with pytest.raises(ValueError, match="unknown expression node kind"):
        FormField.from_expressions(FLAT, N, [{"indices": [1, 2], "expr": {"tan": x1}}])
    with pytest.raises(ValueError, match="strictly ascending"):
        FormField.from_expressions(FLAT, N, [{"indices": [2, 1], "expr": x1}])
    with pytest.raises(ValueError, match="expected 4 vec and cov"):
        GcField.from_expressions(FLAT, N, [ZERO] * 3, [ZERO] * N)
