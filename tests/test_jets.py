"""Property tests for the shared jet core: product rule, component access, wedge, d."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gcx.jets import FormJet, Jet2
from gcx.models import BumpProfile
from gcx.multilinear import Multiform, exp_wedge
from helpers_naive import from_multiform, naive_exp_wedge, naive_interior, naive_wedge, to_multiform

N = 4
SIZE = 1 << N
DEGREE = np.array([bin(s).count("1") for s in range(SIZE)])

# complex elements on a dyadic grid in [-2, 2] + [-2, 2]i, smallest first so
# that examples shrink towards 0: one small integer choice per element keeps
# three form jets drawn element by element inside hypothesis' example-size
# health check, where two float choices per element do not
GRID = sorted((complex(a / 8, b / 8) for a in range(-16, 17) for b in range(-16, 17)), key=abs)


def complex_arrays(shape):
    # draw every element: a constant fill makes constant jets, whose wedges vanish
    return arrays(complex, shape, elements=st.sampled_from(GRID), fill=st.nothing())


@st.composite
def jet_parts(draw, shape):
    """(values, grads)."""
    return draw(complex_arrays(shape)), draw(complex_arrays(shape + (N,)))


scalar_jets = jet_parts(()).map(lambda p: Jet2(N, complex(p[0]), p[1]))
form_jets = jet_parts((SIZE,)).map(lambda p: FormJet(N, *p))


@st.composite
def homogeneous_form_jets(draw):
    """(degree, jet) with every coefficient outside that degree zero."""
    degree = draw(st.integers(0, N))
    jet = draw(form_jets)
    off = DEGREE != degree
    jet.values[off] = jet.grads[off] = 0.0
    return degree, jet


def assert_jets_close(a, b, tol=1e-10):
    for x, y in ((a.values, b.values), (a.grads, b.grads)):
        assert np.allclose(x, y, rtol=1e-12, atol=tol)


property_settings = settings(max_examples=30, deadline=None)


@property_settings
@given(scalar_jets, scalar_jets, scalar_jets)
def test_scalar_product_commutative_and_associative(a, b, c):
    assert_jets_close(a * b, b * a)
    assert_jets_close((a * b) * c, a * (b * c))


@property_settings
@given(form_jets, scalar_jets, scalar_jets)
def test_form_scalar_product_commutative_and_associative(f, a, b):
    assert isinstance(a * f, FormJet)
    assert_jets_close(f * a, a * f)
    assert_jets_close((f * a) * b, f * (a * b))


@property_settings
@given(form_jets, scalar_jets, scalar_jets)
def test_scale_composes(f, a, b):
    assert_jets_close(f.scale(a).scale(b), f.scale(a * b))


@property_settings
@given(form_jets, scalar_jets, st.integers(0, SIZE - 1))
def test_component_set_then_get_round_trips(f, s, mask):
    before = FormJet(N, f.values.copy(), f.grads.copy())
    f[mask] = s
    got = f[mask]
    assert got.values == s.values
    assert np.array_equal(got.grads, s.grads)
    others = np.arange(SIZE) != mask
    assert np.array_equal(f.values[others], before.values[others])
    assert np.array_equal(f.grads[others], before.grads[others])


@property_settings
@given(form_jets, form_jets, form_jets)
def test_wedge_associative(a, b, c):
    assert_jets_close(a.wedge(b).wedge(c), a.wedge(b.wedge(c)), tol=1e-9)


@property_settings
@given(homogeneous_form_jets(), homogeneous_form_jets())
def test_wedge_graded_commutative(pa, pb):
    (p, a), (q, b) = pa, pb
    assert_jets_close(a.wedge(b), b.wedge(a) * (-1) ** (p * q))


@property_settings
@given(form_jets)
def test_exp_wedge_value_matches_multiform(f):
    # keep the even positive degrees, as exp_wedge requires
    odd_or_scalar = (DEGREE == 0) | (DEGREE % 2 == 1)
    f.values[odd_or_scalar] = f.grads[odd_or_scalar] = 0.0
    assert f.exp_wedge().value().allclose(exp_wedge(Multiform(N, f.values)), tol=1e-10)


# (dim, seed, points: 0 for one point without a block axis); drawn flat, the arrays from the seed
exp_cases = st.tuples(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1), st.integers(0, 5))


@property_settings
@given(exp_cases)
def test_exp_wedge_matches_the_series(case):
    # multilinear.exp_wedge and FormJet.exp_wedge against sum_j b^j / j! on brute-force wedges,
    # values and partials, by the product rule on each power
    n, seed, points = case
    rng = np.random.default_rng(seed)
    size, block = 1 << n, (points,) if points else ()
    degree = np.array([bin(s).count("1") for s in range(size)])
    even = (degree % 2 == 0) & (degree > 0)
    values, grads = (10.0 ** rng.uniform(-3, 3) * part for part in random_parts(rng, (size, *block), n))
    values[~even] = grads[~even] = 0.0
    jet = FormJet(n, values, grads).exp_wedge()

    def at(x, k):  # point k of a block, or the one point
        return x[:, k] if points else x

    for k in range(max(points, 1)):
        partials = [from_multiform(Multiform(n, g)) for g in at(grads, k).T]
        series, d_series = naive_exp_wedge(from_multiform(Multiform(n, at(values, k))), partials)
        ref = to_multiform(series, n).coeffs
        tol = 1e-12 * np.abs(ref).max()
        assert np.abs(at(jet.values, k) - ref).max() <= tol
        assert np.abs(exp_wedge(Multiform(n, at(values, k))).coeffs - ref).max() <= tol
        for i, d_ref in enumerate(d_series):
            assert np.abs(at(jet.grads, k)[..., i] - to_multiform(d_ref, n).coeffs).max() <= 1e-12 * magnitude(jet)
    bad = rng.choice(np.flatnonzero(~even))
    for level in (values, grads):
        level[bad] = 1.0
        with pytest.raises(ValueError, match="even-degree"):
            FormJet(n, values, grads).exp_wedge()
        level[bad] = 0.0
    values[bad] = 1.0
    with pytest.raises(ValueError, match="even-degree"):
        exp_wedge(Multiform(n, at(values, 0)))


def test_exp_wedge_keeps_a_power_that_vanishes_to_first_order():
    # B = x1 (dx1^dx2 + dx3^dx4) at x1 = 0: B^B / 2 = x1^2 dx1^dx2^dx3^dx4 vanishes there
    # with its gradient, but not its second partial (central differences of the gradient)
    def top(x1):
        b = FormJet.zero(N)
        b[0b0011] = b[0b1100] = Jet2.coordinate(N, 1, x1)
        return b.exp_wedge()[0b1111]

    assert top(0.0).values == 0 and not top(0.0).grads.any()
    h = 1e-3
    assert (top(h).grads[0] - top(-h).grads[0]) / (2 * h) == pytest.approx(2.0, rel=1e-12)


# -- the signed-gather kernels against the brute-force oracle ---------------


def naive_wedge_coeffs(n, x, y):
    """Coefficients of x ^ y by the bubble-sort oracle."""
    oracle = naive_wedge(from_multiform(Multiform(n, x)), from_multiform(Multiform(n, y)))
    return to_multiform(oracle, n).coeffs


def naive_one_form(n, i):
    """Coefficients of dx^{i+1}."""
    out = np.zeros(1 << n, dtype=complex)
    out[1 << i] = 1.0
    return out


@st.composite
def sized_form_jets(draw, n):
    size = 1 << n
    values = draw(complex_arrays((size,)))
    grads = draw(complex_arrays((size, n)))
    return FormJet(n, values, grads)


DIMS = st.sampled_from([2, 3, 4])


@st.composite
def wedge_operands(draw):
    n = draw(DIMS)
    return n, draw(sized_form_jets(n)), draw(sized_form_jets(n))


def assert_close_relative(got, ref, scale):
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(1.0, scale)


def magnitude(jet):
    return max(np.abs(part).max() for part in (jet.values, jet.grads))


@property_settings
@given(wedge_operands())
def test_wedge_matches_naive_product_rule(operands):
    n, a, b = operands
    got = a.wedge(b)
    scale = magnitude(a) * magnitude(b)

    def w(x, y):
        return naive_wedge_coeffs(n, x, y)

    assert_close_relative(got.values, w(a.values, b.values), scale)
    for i in range(n):
        ref = w(a.grads[:, i], b.values) + w(a.values, b.grads[:, i])
        assert_close_relative(got.grads[:, i], ref, scale)


@property_settings
@given(DIMS.flatmap(sized_form_jets))
def test_d_matches_naive_sum_of_partials(f):
    # d f = sum_i dx^i ^ d_i f, which consumes the partials: the result has values alone
    n = f.dim
    got = f.d()

    def w(i, x):
        return naive_wedge_coeffs(n, naive_one_form(n, i), x)

    assert got.grads is None
    assert_close_relative(got.values, sum(w(i, f.grads[:, i]) for i in range(n)), magnitude(f))


@st.composite
def contractions(draw):
    """(f, X, dX): a form jet and a tangent vector jet, X (n,) and dX[i, j] = d_j X_i."""
    n = draw(DIMS)
    return draw(sized_form_jets(n)), draw(complex_arrays((n,))), draw(complex_arrays((n, n)))


@property_settings
@given(contractions())
def test_interior_jet_matches_naive_product_rule(case):
    # i_X f, and its partials d_j (i_X f) = i_(d_j X) f + i_X d_j f
    f, xv, xg = case
    n = f.dim
    got = f.interior_jet(xv, xg)
    scale = magnitude(f) * max(1.0, np.abs(xv).max(), np.abs(xg).max())

    def i(k, x):  # contraction of coefficients x by d/dx^{k+1}
        return to_multiform(naive_interior(k + 1, from_multiform(Multiform(n, x))), n).coeffs

    assert_close_relative(got.values, sum(xv[k] * i(k, f.values) for k in range(n)), scale)
    for j in range(n):
        ref = sum(xg[k, j] * i(k, f.values) + xv[k] * i(k, f.grads[:, j]) for k in range(n))
        assert_close_relative(got.grads[:, j], ref, scale)


@property_settings
@given(form_jets, scalar_jets)
def test_order_one_product_keeps_values_and_grads(f, a):
    # the product rule on values and first partials
    product = f.scale(a)
    assert np.array_equal(product.values, f.values * a.values)
    assert np.allclose(product.grads, a.values * f.grads + f.values[:, None] * a.grads, rtol=1e-12, atol=1e-12)


# -- BumpProfile.evaluate at one radius --------------------------------------

PROFILES = (
    BumpProfile("flat", 1.0, 2.0),
    BumpProfile("flat", 1.5, 3.0),
    BumpProfile("poly", 1.5, 3.0),
)


@property_settings
@given(st.lists(st.tuples(st.integers(0, 2), st.floats(1.55, 1.95)), min_size=2, max_size=12))
def test_bump_memo_returns_each_profiles_own_values(calls):
    # alternating profiles at one radius must never see each other's pair;
    # each one-radius pair is its profile's array path at that radius
    for k, r in calls:
        for profile in (PROFILES[k], PROFILES[(k + 1) % 3]):
            assert profile.evaluate(r) == tuple(float(v[0]) for v in profile.evaluate(np.array([r])))
        assert PROFILES[k].evaluate(r) != PROFILES[(k + 1) % 3].evaluate(r)


def test_bump_negative_radius_raises_every_call():
    profile = PROFILES[0]
    profile.evaluate(1.5)
    for _ in range(3):
        with pytest.raises(ValueError, match="radius"):
            profile.evaluate(-0.25)


# -- a block of N points against the same points one at a time ------------
#
# Elements come from a numpy generator seeded by hypothesis: a block of
# several jets drawn element by element would trip hypothesis' example-size
# health check.


def random_parts(rng, shape, n=N):
    def c(*s):
        return rng.normal(size=s) + 1j * rng.normal(size=s)

    return c(*shape), c(*shape, n)


def block_of(jets):
    """Stack per-point jets of one type into a jet of the block (sample axis after the components)."""
    first = jets[0]
    axis = np.ndim(first.values)
    grads = None if first.grads is None else np.stack([j.grads for j in jets], axis)
    return type(first)(first.dim, np.stack([j.values for j in jets], axis), grads)


def assert_block_matches(block, points):
    stacked = block_of(points)
    for level in ("values", "grads"):
        got, ref = getattr(block, level), getattr(stacked, level)
        if ref is None:  # values alone, as a d is
            assert got is None
            continue
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))


blocks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5))


@property_settings
@given(blocks)
def test_block_form_jet_ops_match_points(draw):
    seed, count = draw
    rng = np.random.default_rng(seed)
    a = [FormJet(N, *random_parts(rng, (SIZE,))) for _ in range(count)]
    b = [FormJet(N, *random_parts(rng, (SIZE,))) for _ in range(count)]
    s = [Jet2(N, *random_parts(rng, ())) for _ in range(count)]
    ba, bb, bs = block_of(a), block_of(b), block_of(s)
    assert_block_matches(ba.wedge(bb), [x.wedge(y) for x, y in zip(a, b)])
    assert_block_matches(ba.scale(bs), [x.scale(y) for x, y in zip(a, s)])
    assert_block_matches(bs * ba + bb, [y * x + z for x, y, z in zip(a, s, b)])
    assert_block_matches(ba.d(), [x.d() for x in a])
    even = (DEGREE % 2 == 0) & (DEGREE > 0)
    for x in a:
        x.values[~even] = x.grads[~even] = 0.0
    assert_block_matches(block_of(a).exp_wedge(), [x.exp_wedge() for x in a])


def test_block_jet2_functions_match_points():
    rng = np.random.default_rng(7)
    points = [Jet2(N, *random_parts(rng, ())) for _ in range(6)]
    block = block_of(points)
    for fn in (lambda j: j.exp(), lambda j: j.log(), lambda j: j.sqrt(), lambda j: (2 * np.pi * j).sin(),
               lambda j: (1.0 / j) ** 3 - j.cos(), lambda j: j**0 + j):
        assert_block_matches(fn(block), [fn(j) for j in points])


@pytest.mark.parametrize("value, k", [(1e6, 64), (0.0, -1)], ids=["overflow", "zero-division"])
def test_a_point_fails_as_a_one_point_block_does(value, k):
    # a scalar jet holds np.complex128, so a point follows numpy's errstate exactly as a block does
    with np.errstate(all="ignore"):
        point, block = Jet2.coordinate(N, 1, value) ** k, Jet2.coordinate(N, 1, np.array([value])) ** k
    np.testing.assert_array_equal(np.asarray(point.values)[None], block.values)
    np.testing.assert_array_equal(point.grads[None], block.grads)
    with np.errstate(all="raise"):
        for at in (value, np.array([value])):
            with pytest.raises(FloatingPointError):
                Jet2.coordinate(N, 1, at) ** k


def _power_by_products(x: Jet2, k: int) -> Jet2:
    """x^k as |k| - 1 jet products, then for k < 0 the quotient rule by hand: 1/p and -p'/p^2."""
    out = x
    for _ in range(abs(k) - 1):
        out = out * x
    if k > 0:
        return out
    return Jet2(N, 1.0 / out.values, -out.grads / np.asarray(out.values**2)[..., None])


@pytest.mark.parametrize("partials", [0, 1])
@pytest.mark.parametrize("batch", [(), (5,)], ids=["scalar", "block"])
def test_power_matches_repeated_products(batch, partials):
    # the closed form (x^k, k x^(k-1) x') against k - 1 products of the product rule, to round-off
    rng = np.random.default_rng(12)
    values = rng.uniform(0.5, 1.5, batch) * np.exp(2j * np.pi * rng.uniform(0, 1, batch))
    grads = rng.standard_normal(batch + (N,)) + 1j * rng.standard_normal(batch + (N,))
    x = Jet2(N, values if batch else complex(values), grads if partials else None)
    one = x**0
    assert np.array_equal(one.values, np.ones(batch)) and np.array_equal(one.grads, np.zeros(batch + (N,)))
    powers = [k for k in range(-64, 65) if k]
    if not partials:  # values alone: x^0 is still the constant 1, and every other power is refused, as x * x is
        for operation in [lambda k=k: x**k for k in powers] + [lambda: x * x]:
            with pytest.raises(TypeError):
                operation()
        return
    for k in powers:
        got, want = x**k, _power_by_products(x, k)
        assert np.all(np.abs(got.values - want.values) <= 1e-13 * np.abs(want.values)), k
        assert np.all(np.abs(got.grads - want.grads) <= 1e-13 * np.abs(want.grads)), k


def test_block_bump_profile_matches_radii_one_at_a_time():
    # radii on and beside lo, hi and both 5e-3 guards of the flat profile
    for profile in PROFILES:
        lo, hi = profile.lo, profile.hi
        width = hi - lo
        edges = [lo, hi, lo + 5e-3 * width, hi - 5e-3 * width]
        radii = {r + e for r in edges for e in (-1e-9, 0.0, 1e-9)} | {0.0, 0.5 * (lo + hi), hi + 1}
        radii = np.array(sorted(radii))
        block = profile.evaluate(radii)
        for i, r in enumerate(radii):
            one = profile.evaluate(float(r))
            assert all(v.shape == () for v in one)  # one radius gives 0-d results
            assert tuple(float(v[i]) for v in block) == one
            assert tuple(float(v[0]) for v in profile.evaluate(radii[i : i + 1])) == one
        jet = profile.jet(radii)
        for i, r in enumerate(radii):
            ref = profile.jet(float(r))
            assert jet.values[i] == ref.values and np.array_equal(jet.grads[i], ref.grads)
    with pytest.raises(ValueError, match="radius"):
        PROFILES[0].evaluate(np.array([1.5, -0.25]))


def test_d_signs_its_one_gather_in_place():
    # a 64-point jet: d holds one (n, 2^n, N) gather of the partials, numpy's buffer for the
    # broadcast sign product (up to np.getbufsize() elements) and the result, and no signed copy
    import tracemalloc

    rng = np.random.default_rng(6)
    jet = FormJet(N, *random_parts(rng, (16, 64)))
    jet.d()  # tables built outside the measurement
    tracemalloc.start()
    try:
        got = jet.d()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = N * jet.values.size
    bound = (gather + min(gather, np.getbufsize())) * jet.values.itemsize + got.values.nbytes
    assert peak <= 1.1 * bound, (peak, bound)


# -- a jet of values alone (grads None) ----------------------------------------
#
# d, interior_jet and a component write refuse one with a ValueError; every other rule fails on the
# absent partials.  None returns a result, and none changes an operand.

VALUES_ALONE_RULES = {
    "sum": (TypeError, lambda j: j.f0 + j.f),
    "sum_reflected": (TypeError, lambda j: j.f + j.f0),
    "number_plus": (TypeError, lambda j: 1.0 + j.a0),
    "difference": (TypeError, lambda j: j.f0 - j.f),
    "number_minus": (TypeError, lambda j: 1.0 - j.a0),
    "number_times": (TypeError, lambda j: 2.0 * j.f0),
    "over_number": (TypeError, lambda j: j.f0 / 2.0),
    "number_over": (TypeError, lambda j: 1.0 / j.a0),
    "product": (TypeError, lambda j: j.a0 * j.f),
    "scale": (TypeError, lambda j: j.f0.scale(j.a)),
    "scale_by": (TypeError, lambda j: j.f.scale(j.a0)),
    "scalar_product": (TypeError, lambda j: j.a * j.a0),
    "power_3": (TypeError, lambda j: j.a0**3),
    "power_-2": (TypeError, lambda j: j.a0**-2),
    "exp": (TypeError, lambda j: j.a0.exp()),
    "log": (TypeError, lambda j: j.a0.log()),
    "sqrt": (TypeError, lambda j: j.a0.sqrt()),
    "sin": (TypeError, lambda j: j.a0.sin()),
    "cos": (TypeError, lambda j: j.a0.cos()),
    "component_read": (TypeError, lambda j: j.f0[0b0011]),
    "wedge_left": (TypeError, lambda j: j.f0.wedge(j.f)),
    "wedge_right": (TypeError, lambda j: j.f.wedge(j.f0)),
    "exp_wedge": (TypeError, lambda j: j.f0.exp_wedge()),
    "interior_jet": (ValueError, lambda j: j.f0.interior_jet(j.xv, j.xg)),
    "d": (ValueError, lambda j: j.f0.d()),
    "component_write": (ValueError, lambda j: j.f.__setitem__(0b0011, j.a0)),
}


@pytest.mark.parametrize("rule", VALUES_ALONE_RULES)
def test_values_alone_is_refused_by_every_rule(rule):
    error, apply = VALUES_ALONE_RULES[rule]
    rng = np.random.default_rng(8)
    even = (DEGREE % 2 == 0) & (DEGREE > 0)
    f, a = FormJet(N, *random_parts(rng, (SIZE, 3))), Jet2(N, *random_parts(rng, (3,)))
    f.values[~even] = f.grads[~even] = 0.0  # an exponent exp_wedge accepts
    xv, xg = random_parts(rng, (N, 3))
    jets = SimpleNamespace(f=f, a=a, f0=FormJet(N, f.values.copy()), a0=Jet2(N, a.values.copy()), xv=xv, xg=xg)
    before = {name: (jet.values.copy(), None if jet.grads is None else jet.grads.copy()) for name, jet in
              vars(jets).items() if name in ("f", "a", "f0", "a0")}
    with pytest.raises(error, match="first partials" if error is ValueError else None):
        apply(jets)
    for name, (values, grads) in before.items():
        jet = getattr(jets, name)
        assert np.array_equal(jet.values, values) and (jet.grads is grads is None or np.array_equal(jet.grads, grads))


# -- every rule hands Jet2 complex128, which it keeps without a second cast ------
#
# At a point the values are np.complex128, so numpy's errstate acts on a point as on a block; on a block
# values and partials are complex128 arrays.  Python numbers, ints, floats and real arrays are still cast.

SCALAR_RULES = {
    "sum": lambda a, b: a + b,
    "number_plus": lambda a, b: 2 + a,
    "difference": lambda a, b: a - b,
    "number_minus": lambda a, b: 1.5 - a,
    "product": lambda a, b: a * b,
    "number_times": lambda a, b: 3 * a,
    "times_number": lambda a, b: a * 0.5,
    "over_number": lambda a, b: a / 4,
    "over_jet": lambda a, b: a / b,
    "number_over": lambda a, b: 1 / a,
    "power_0": lambda a, b: a**0,
    "power_-3": lambda a, b: a**-3,
    "power_3": lambda a, b: a**3,
    "exp": lambda a, b: a.exp(),
    "log": lambda a, b: a.log(),
    "sqrt": lambda a, b: a.sqrt(),
    "sin": lambda a, b: a.sin(),
    "cos": lambda a, b: a.cos(),
}
FORM_RULES = {
    "jet_times_form": lambda a, f: a * f,
    "form_times_jet": lambda a, f: f * a,
    "scale": lambda a, f: f.scale(a),
}


def _operands(batch):
    """Two scalar jets away from 0 and a form jet, at one point (batch ()) or on a block."""
    rng = np.random.default_rng(14)
    a, b = (Jet2(N, *random_parts(rng, batch)) + 3.0 for _ in range(2))
    return a, b, FormJet(N, *random_parts(rng, (SIZE, *batch)))


def _assert_complex128(jet, shape):
    if shape:
        assert type(jet.values) is np.ndarray and jet.values.dtype == np.complex128 and jet.values.shape == shape
    else:
        assert type(jet.values) is np.complex128
    assert type(jet.grads) is np.ndarray and jet.grads.dtype == np.complex128 and jet.grads.shape == shape + (N,)


@pytest.mark.parametrize("batch", [(), (5,)], ids=["point", "block"])
@pytest.mark.parametrize("rule", [*SCALAR_RULES, *FORM_RULES])
def test_every_rule_result_is_complex128(rule, batch):
    a, b, f = _operands(batch)
    if rule in SCALAR_RULES:
        out = SCALAR_RULES[rule](a, b)
        assert type(out) is Jet2
        _assert_complex128(out, batch)
    else:
        out = FORM_RULES[rule](a, f)
        assert type(out) is FormJet
        _assert_complex128(out, (SIZE, *batch))
        _assert_complex128(out[0b0101], batch)


@pytest.mark.parametrize(
    "value",
    [1.5, 2, np.complex128(0.5 - 1j), np.array(0.25 + 1j), np.array([1.0, -2.0, 0.5j])],
    ids=["float", "int", "complex128", "0-d-array", "block"],
)
def test_constant_keeps_its_values_with_zero_partials(value):
    jet = Jet2.constant(N, value)
    _assert_complex128(jet, np.shape(value))
    np.testing.assert_array_equal(jet.values, value)
    assert not jet.grads.any()


@pytest.mark.parametrize(
    "value, grad",
    [
        (2, [1, 0, 0, 0]),
        (0.5, np.arange(N, dtype=float)),
        (np.float64(-1.25), np.zeros(N, np.float32)),
        (np.array([1.0, 2.0]), np.ones((2, N))),
        (np.array([3, 4]), np.ones((2, N), dtype=int)),
        (np.array([1 + 1j, 2j], dtype=np.complex64), np.ones((2, N), dtype=np.complex64)),
    ],
    ids=["int", "float", "float64", "real-block", "int-block", "complex64-block"],
)
def test_jet2_casts_what_is_not_complex128(value, grad):
    jet = Jet2(N, value, grad)
    _assert_complex128(jet, np.shape(value))
    np.testing.assert_array_equal(jet.values, value)
    np.testing.assert_array_equal(jet.grads, grad)


@pytest.mark.parametrize(
    "combine",
    [lambda a, b, f: a + b, lambda a, b, f: a - b, lambda a, b, f: a * b, lambda a, b, f: f * b, lambda a, b, f: b * f,
     lambda a, b, f: f.wedge(FormJet.zero(1))],
    ids=["sum", "difference", "product", "form_times_jet", "jet_times_form", "wedge"],
)
def test_a_dimension_mismatch_is_refused(combine):
    # partials of a 1-dimensional jet broadcast against any others, so only the dimension check stops them
    a, f = Jet2.coordinate(N, 1, 0.5), FormJet.zero(N)
    b = Jet2.coordinate(1, 1, 0.5)
    with pytest.raises(ValueError, match=r"^dimension mismatch: (4 vs 1|1 vs 4)$"):
        combine(a, b, f)
