"""Property tests for the shared jet core: product rule, component access, wedge."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gcx.jets import FormJet, Jet2
from gcx.multilinear import Multiform, exp_wedge

N = 4
SIZE = 1 << N
DEGREE = np.array([bin(s).count("1") for s in range(SIZE)])

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def complex_arrays(shape):
    parts = st.tuples(arrays(float, shape, elements=finite), arrays(float, shape, elements=finite))
    return parts.map(lambda ri: ri[0] + 1j * ri[1])


@st.composite
def jet_parts(draw, shape):
    """(values, grads, hess) with hess symmetric in its last two axes."""
    values = draw(complex_arrays(shape))
    grads = draw(complex_arrays(shape + (N,)))
    half = draw(complex_arrays(shape + (N, N)))
    return values, grads, half + half.swapaxes(-1, -2)


scalar_jets = jet_parts(()).map(lambda p: Jet2(N, complex(p[0]), p[1], p[2]))
form_jets = jet_parts((SIZE,)).map(lambda p: FormJet(N, *p))


@st.composite
def homogeneous_form_jets(draw):
    """(degree, jet) with every coefficient outside that degree zero."""
    degree = draw(st.integers(0, N))
    jet = draw(form_jets)
    off = DEGREE != degree
    jet.values[off] = jet.grads[off] = jet.hess[off] = 0.0
    return degree, jet


def assert_jets_close(a, b, tol=1e-10):
    for x, y in ((a.values, b.values), (a.grads, b.grads), (a.hess, b.hess)):
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
    before = FormJet(N, f.values.copy(), f.grads.copy(), f.hess.copy())
    f[mask] = s
    got = f[mask]
    assert got.values == s.values
    assert np.array_equal(got.grads, s.grads) and np.array_equal(got.hess, s.hess)
    others = np.arange(SIZE) != mask
    assert np.array_equal(f.values[others], before.values[others])
    assert np.array_equal(f.grads[others], before.grads[others])
    assert np.array_equal(f.hess[others], before.hess[others])


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
    f.values[odd_or_scalar] = f.grads[odd_or_scalar] = f.hess[odd_or_scalar] = 0.0
    assert f.exp_wedge().value().allclose(exp_wedge(Multiform(N, f.values)), tol=1e-10)


def test_exp_wedge_keeps_a_power_that_vanishes_to_first_order():
    # B = x1 (dx1^dx2 + dx3^dx4) at x1 = 0: B^B / 2 = x1^2 dx1^dx2^dx3^dx4
    # vanishes there with its gradient, but its Hessian does not
    b = FormJet.zero(N)
    b[0b0011] = b[0b1100] = Jet2.coordinate(N, 1, 0.0)
    top = b.exp_wedge()[0b1111]
    assert top.values == 0 and not top.grads.any()
    assert top.hess[0, 0] == 2.0
