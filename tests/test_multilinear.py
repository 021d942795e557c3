import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gcx.multilinear import (
    GcVector,
    Multiform,
    action_matrix,
    clifford,
    exp_wedge,
    exterior_coeffs,
    interior_coeffs,
    pairing,
    pairing_gram,
    wedge_coeffs,
)
from helpers_naive import (
    from_multiform,
    naive_action_table,
    naive_clifford,
    naive_exp_wedge,
    naive_wedge,
    random_multiform,
    to_multiform,
)

N = 4


def mf(terms):
    return Multiform.from_terms(N, terms)


# -- hypothesis strategies: forms and generators in dims 2..4 ---------------

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
dims = st.sampled_from([2, 3, 4])
property_settings = settings(max_examples=50, deadline=None)


def complex_arrays(size):
    # draw every element: a constant fill makes degenerate forms (a ^ b = 0)
    part = arrays(float, size, elements=finite, fill=st.nothing())
    parts = st.tuples(part, part)
    return parts.map(lambda ri: ri[0] + 1j * ri[1])


def forms(n, degree=None):
    """Random forms of dim n; with a degree, zero off that degree."""
    keep = np.array([degree is None or bin(s).count("1") == degree for s in range(1 << n)])
    return complex_arrays(1 << n).map(lambda c: Multiform(n, np.where(keep, c, 0.0)))


@st.composite
def homogeneous_pairs(draw):
    n = draw(dims)
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    return p, q, draw(forms(n, p)), draw(forms(n, q))


@st.composite
def generator_and_form(draw):
    n = draw(dims)
    vec, cov = draw(complex_arrays(n)), draw(complex_arrays(n))
    return GcVector(n, vec, cov), draw(forms(n))


def test_clifford_interior_on_dual_covector():
    # i_{d/dx1} dx1 = 1
    v = GcVector(N, vec=np.eye(N)[0])
    out = clifford(v, Multiform.basis(N, (1,)))
    assert out.allclose(Multiform.scalar(N, 1.0))


def test_clifford_wedge_with_empty_form():
    v = GcVector(N, cov=np.eye(N)[0])
    out = clifford(v, Multiform.scalar(N, 1.0))
    assert out.allclose(Multiform.basis(N, (1,)))


def test_clifford_mixed_action_matches_bruteforce():
    # oracle: (d/dx2 + dx1) . (dx1^dx2) expanded over basis subsets
    oracle = naive_clifford([0, 1, 0, 0], [1, 0, 0, 0], {(1, 2): 1.0}, N)
    assert oracle == {(1,): -1.0}
    v = GcVector(N, vec=[0, 1, 0, 0], cov=[1, 0, 0, 0])
    out = clifford(v, Multiform.basis(N, (1, 2)))
    assert out.allclose(mf({(1,): -1.0}))


def test_clifford_agrees_with_bruteforce_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_multiform(rng, N)
        vec = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cov = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        expected = to_multiform(naive_clifford(vec, cov, from_multiform(rho), N), N)
        got = clifford(GcVector(N, vec, cov), rho)
        assert got.allclose(expected, tol=1e-12)


def test_clifford_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        clifford(GcVector(3, vec=np.eye(3)[0]), Multiform.scalar(4, 1.0))


def test_pairing_values():
    e1 = GcVector(N, vec=[1, 0, 0, 0], cov=[1, 0, 0, 0])
    assert pairing(e1, e1) == pytest.approx(1.0)
    assert pairing(GcVector(N, vec=np.eye(N)[0]), GcVector(N, vec=np.eye(N)[1])) == 0.0
    u = GcVector(N, vec=[1, 0, 0, 0], cov=[0, 2, 0, 0])
    v = GcVector(N, vec=[0, 1, 0, 0], cov=[3, 0, 0, 0])
    # direct evaluation: (eta(X) + xi(Y)) / 2 = (3*1 + 2*1) / 2
    assert pairing(u, v) == pytest.approx(2.5)
    assert pairing(v, u) == pytest.approx(2.5)


def test_pairing_signature():
    evals = np.linalg.eigvalsh(pairing_gram(N))
    assert int(np.sum(evals > 0)) == N
    assert int(np.sum(evals < 0)) == N


def test_clifford_relation_randomized():
    # v.(v.rho) = <v,v> rho, exact to round-off
    rng = np.random.default_rng(123)
    for _ in range(200):
        rho = random_multiform(rng, N)
        v = GcVector(
            N,
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
            rng.standard_normal(N) + 1j * rng.standard_normal(N),
        )
        lhs = clifford(v, clifford(v, rho))
        rhs = pairing(v, v) * rho
        assert (lhs - rhs).max_abs() <= 1e-12 * max(1.0, rho.max_abs() * np.linalg.norm(v.as_array()) ** 2)


@property_settings
@given(dims.flatmap(lambda n: st.tuples(forms(n), forms(n), forms(n))))
def test_wedge_associative_property(abc):
    a, b, c = abc
    scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
    assert a.wedge(b).wedge(c).allclose(a.wedge(b.wedge(c)), tol=1e-12 * scale)


@property_settings
@given(homogeneous_pairs())
def test_wedge_graded_commutative_property(pair):
    p, q, a, b = pair
    scale = max(1.0, a.max_abs() * b.max_abs())
    assert a.wedge(b).allclose(b.wedge(a) * (-1) ** (p * q), tol=1e-12 * scale)


@property_settings
@given(generator_and_form())
def test_clifford_relation_property(v_rho):
    # v.(v.rho) = <v,v> rho
    v, rho = v_rho
    lhs = clifford(v, clifford(v, rho))
    rhs = pairing(v, v) * rho
    assert lhs.allclose(rhs, tol=1e-12 * max(1.0, rho.max_abs() * np.linalg.norm(v.as_array()) ** 2))


@property_settings
@given(dims.flatmap(lambda n: st.tuples(complex_arrays(n), forms(n))))
def test_interior_is_the_vector_part_of_clifford_property(vec_rho):
    # i_X rho = (X + 0) . rho
    vec, rho = vec_rho
    expected = clifford(GcVector(rho.dim, vec=vec), rho)
    got = Multiform(rho.dim, interior_coeffs(rho.coeffs, vec))
    assert got.allclose(expected, tol=1e-14 * rho.max_abs() * np.abs(vec).sum())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("batch", [(), (17,)])
def test_exterior_is_the_wedge_of_a_one_form(n, batch):
    # xi ^ rho from the action table's covector rows against the full wedge of the one-form xi: the same products,
    # so equal values (an exact zero may take the other sign: its zero products are not formed alike); only numpy's
    # reduceat sums the wedge's 16-pair top run at n = 4 in its own pairwise order, where the rows sum in turn, and
    # the two then agree to round-off.  On the checks' chart maps the bases match bit for bit (test_chart.py)
    rng = np.random.default_rng([n, len(batch)])
    for _ in range(20):
        rho = rng.normal(size=(1 << n, *batch)) + 1j * rng.normal(size=(1 << n, *batch))
        xi = rng.normal(size=(n, *batch)) + 1j * rng.normal(size=(n, *batch))
        one = np.zeros_like(rho)
        one[1 << np.arange(n)] = xi
        got, expected = exterior_coeffs(rho, xi), wedge_coeffs(n, one, rho)
        body = slice(None, -1) if n == 4 else slice(None)
        assert got.shape == expected.shape and (got[body] == expected[body]).all()
        if n == 4:
            # dx^i ^ dx^(rest) = (-1)^i vol; array products, as numpy's scalar complex product rounds otherwise
            terms = xi * rho[15 ^ (1 << np.arange(4))] * np.array([1, -1, 1, -1]).reshape(-1, *(1,) * len(batch))
            assert (got[-1] == ((terms[0] + terms[1]) + terms[2]) + terms[3]).all()
            # each order of the four-term sum errs by at most 3 u sum|t| per component (u = eps / 2)
            assert (np.abs(got[-1] - expected[-1]) <= 6 * np.finfo(float).eps * np.abs(terms).sum(axis=0)).all()
    # a block gives its per-point values bit for bit
    if batch:
        cols = [exterior_coeffs(rho[:, j], xi[:, j]) for j in range(batch[0])]
        assert (np.stack(cols, axis=-1) == got).all()


def test_graded_commutativity():
    rng = np.random.default_rng(5)
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            a = random_multiform(rng, N, degrees={p})
            b = random_multiform(rng, N, degrees={q})
            lhs = a.wedge(b)
            rhs = ((-1) ** (p * q)) * b.wedge(a)
            assert lhs.allclose(rhs, tol=1e-12)
    # 1-form wedge recovered through clifford with zero vector part
    a = random_multiform(rng, N, degrees={1})
    b = random_multiform(rng, N, degrees={1})
    xi = GcVector(N, cov=[a.coeffs[1 << i] for i in range(N)])
    assert clifford(xi, b).allclose(a.wedge(b), tol=1e-12)


def test_wedge_associative_randomized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (random_multiform(rng, N) for _ in range(3))
        assert a.wedge(b).wedge(c).allclose(a.wedge(b.wedge(c)), tol=1e-10)
        oracle = naive_wedge(from_multiform(a), from_multiform(b))
        assert a.wedge(b).allclose(to_multiform(oracle, N), tol=1e-12)


def test_exp_wedge_of_zero():
    assert exp_wedge(Multiform.zero(N)).allclose(Multiform.scalar(N, 1.0))


def test_exp_wedge_square_vanishes():
    b = Multiform.basis(N, (1, 2))
    assert exp_wedge(b).allclose(mf({(): 1.0, (1, 2): 1.0}))


def test_exp_wedge_series_oracle():
    # series oracle: sum_j b^j / j! with brute-force wedge powers
    b = mf({(1, 2): 1.0, (3, 4): 1.0})
    expected = to_multiform(naive_exp_wedge(from_multiform(b))[0], N)
    assert expected.allclose(mf({(): 1.0, (1, 2): 1.0, (3, 4): 1.0, (1, 2, 3, 4): 1.0}))
    assert exp_wedge(b).allclose(expected, tol=1e-14)


def test_exp_wedge_additive_for_two_forms():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_multiform(rng, N, degrees={2})
        b = random_multiform(rng, N, degrees={2})
        lhs = exp_wedge(a).wedge(exp_wedge(b))
        assert lhs.allclose(exp_wedge(a + b), tol=1e-10)


def test_exp_wedge_rejects_bad_degrees():
    with pytest.raises(ValueError):
        exp_wedge(Multiform.scalar(N, 1.0))
    with pytest.raises(ValueError):
        exp_wedge(Multiform.basis(N, (1,)))


def test_action_matrix_columns():
    rng = np.random.default_rng(3)
    rho = random_multiform(rng, N)
    mat = action_matrix(rho)
    for j in range(N):
        assert np.allclose(mat[:, j], clifford(GcVector(N, vec=np.eye(N)[j]), rho).coeffs)
        assert np.allclose(mat[:, N + j], clifford(GcVector(N, cov=np.eye(N)[j]), rho).coeffs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_matrix_gather_equals_the_dense_product(n):
    # the oracle: the dense signed action table (2n 2^n, 2^n), built term by term, times the coefficients
    size = 1 << n
    dense = naive_action_table(n).reshape(2 * n * size, size).astype(complex)
    rng = np.random.default_rng(n)
    for k in (1, 32, 64):
        coeffs = rng.normal(size=(size, k)) + 1j * rng.normal(size=(size, k))
        expected = (dense @ coeffs).reshape(-1, size, k).T
        got = action_matrix(coeffs)
        assert got.shape == expected.shape and (got == expected).all()
    rho = random_multiform(rng, n)
    expected = (dense @ rho.coeffs).reshape(-1, size).T
    got = action_matrix(rho)
    assert got.shape == expected.shape and (got == expected).all()
    v = GcVector.from_array(n, rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
    assert (clifford(v, rho).coeffs == expected @ v.as_array()).all()


def test_action_matrix_signs_its_one_gather_in_place():
    # a 64-point block holds the gathered rows and numpy's buffer for the broadcast sign product
    # (up to np.getbufsize() elements), and no second copy of the rows
    import tracemalloc

    coeffs = np.random.default_rng(5).normal(size=(16, 64)) + 0.5j
    action_matrix(coeffs)  # tables built outside the measurement
    tracemalloc.start()
    try:
        got = action_matrix(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = min(got.size, np.getbufsize()) * got.itemsize
    assert peak <= 1.1 * (got.nbytes + buffer), (peak, got.nbytes, buffer)


def test_wedge_holds_its_pairs_at_most_twice():
    # at 64 points a pair array (81 pairs) is 81 KiB against a 16 KiB result: the product goes into a gather,
    # and the other gather is let go before the signed product and its buffer
    import tracemalloc

    rng = np.random.default_rng(6)
    a, b = (rng.normal(size=(16, 64)) + 1j * rng.normal(size=(16, 64)) for _ in "ab")
    got = wedge_coeffs(N, a, b)  # tables built outside the measurement
    tracemalloc.start()
    try:
        assert (wedge_coeffs(N, a, b) == got).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = 81 * a[0].nbytes
    assert peak <= 2 * pairs + got.nbytes, (peak, pairs, got.nbytes)


def test_degree_part():
    rho = mf({(): 2.0, (1, 3): 1.0, (1, 2, 3, 4): -1.0})
    assert rho.degree_part(2).allclose(mf({(1, 3): 1.0}))
    assert rho.degree_part(0).allclose(mf({(): 2.0}))
    assert rho.degree_part(1).allclose(Multiform.zero(N))


# any finite double, exact zeros drawn often: a zero coefficient is omitted from the JSON terms
json_floats = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@property_settings
@given(dims.flatmap(lambda n: st.tuples(*(arrays(float, 1 << n, elements=json_floats) for _ in "ri"))))
def test_json_round_trip(parts):
    rho = Multiform(len(parts[0]).bit_length() - 1, parts[0] + 1j * parts[1])
    data = json.loads(json.dumps(rho.to_json_dict()))
    assert (Multiform.from_json_dict(data).coeffs == rho.coeffs).all()
    assert data["dim"] == rho.dim
    assert len(data["terms"]) == np.count_nonzero(rho.coeffs)
    assert all(term["indices"] == sorted(term["indices"]) for term in data["terms"])


def test_json_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        Multiform.from_json_dict({"dim": 4, "terms": [{"indices": [2, 1], "re": 1.0, "im": 0.0}]})


def test_values_immutable():
    rho = mf({(1,): 1.0})
    with pytest.raises((ValueError, AttributeError)):
        rho.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        rho.dim = 3
    v = GcVector(N, vec=np.eye(N)[0])
    with pytest.raises((ValueError, AttributeError)):
        v.vec[0] = 2.0


def test_mixed_dim_rejected_everywhere():
    a3 = Multiform.scalar(3, 1.0)
    a4 = Multiform.scalar(4, 1.0)
    with pytest.raises(ValueError):
        a3.wedge(a4)
    with pytest.raises(ValueError):
        _ = a3 + a4
    with pytest.raises(ValueError):
        pairing(GcVector(3, vec=np.eye(3)[0]), GcVector(4, vec=np.eye(4)[0]))
