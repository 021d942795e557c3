import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcx.chart import ChartPoint
from gcx.models import CHART_CPLANE, local_model_spinor
from gcx.multilinear import GcVector, Multiform, action_matrix, clifford, exp_wedge, interior_coeffs, pairing
from gcx.spinor import (
    AnnihilatorBasis,
    annihilator,
    b_transform,
    check_nondegenerate,
    from_complex,
    from_symplectic,
    is_pure,
    min_norm_solve,
    normal_form,
    normal_forms,
)
from helpers_naive import naive_clifford, naive_nondegeneracy_figure, random_multiform, to_multiform

N = 4


def omega0():
    # standard symplectic form dx1^dx2 + dx3^dx4
    return Multiform.from_terms(N, {(1, 2): 1.0, (3, 4): 1.0})


def dz1_dz2():
    # (dx1 + i dx2) ^ (dx3 + i dx4), coordinates ordered (x1, y1, x2, y2)
    a = Multiform.from_terms(N, {(1,): 1.0, (2,): 1j})
    b = Multiform.from_terms(N, {(3,): 1.0, (4,): 1j})
    return a.wedge(b)


def standard_I():
    # complex structure of z1 = x1 + i x2, z2 = x3 + i x4
    i2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = i2
    out[2:, 2:] = i2
    return out


def rebuilt(nf):
    """exp(B + i omega) ^ Omega from a normal form's factors."""
    return exp_wedge(nf.b_plus_i_omega()).wedge(nf.omega0)


def real_two_form(rng):
    return Multiform(N, random_multiform(rng, N, degrees={2}).coeffs.real)


def span_matches(basis, candidates, tol=1e-9):
    """Whether the columns of basis (2n, k) span the candidates, 2n-vectors."""
    stacked = np.column_stack([basis] + list(candidates))
    return np.linalg.matrix_rank(stacked, tol=tol) == basis.shape[1]


def basis_vectors(ann):
    return [GcVector.from_array(ann.dim, col) for col in ann.matrix.T]


def test_annihilator_symplectic():
    rho = exp_wedge(1j * omega0())
    ann = annihilator(rho)
    assert len(ann) == 4
    # expected generators d/dx_j - i * (contraction of omega0 by d/dx_j)
    candidates = []
    for j in range(1, 5):
        ej = np.zeros(4)
        ej[j - 1] = 1.0
        iota = interior_coeffs(omega0().coeffs, ej)
        cov = np.array([iota[1 << i] for i in range(4)])
        v = GcVector(N, vec=ej, cov=-1j * cov)
        assert clifford(v, rho).max_abs() < 1e-12
        candidates.append(v.as_array())
    assert span_matches(ann.matrix, candidates)


def test_annihilator_complex_type():
    rho = dz1_dz2()
    ann = annihilator(rho)
    assert len(ann) == 4
    # anti-holomorphic tangents and holomorphic covectors annihilate
    candidates = [
        GcVector(N, vec=[1, 1j, 0, 0]).as_array(),
        GcVector(N, vec=[0, 0, 1, 1j]).as_array(),
        GcVector(N, cov=[1, 1j, 0, 0]).as_array(),
        GcVector(N, cov=[0, 0, 1, 1j]).as_array(),
    ]
    for c in candidates:
        assert clifford(GcVector.from_array(N, c), rho).max_abs() < 1e-12
    assert span_matches(ann.matrix, candidates)


def test_annihilator_real_one_form_by_bruteforce():
    # oracle: kernel of the 16x8 action matrix built from the naive clifford
    rho = Multiform.basis(N, (1,))
    cols = []
    for j in range(8):
        vec = [0.0] * 4
        cov = [0.0] * 4
        (vec if j < 4 else cov)[j % 4] = 1.0
        cols.append(to_multiform(naive_clifford(vec, cov, {(1,): 1.0}, N), N).coeffs)
    mat = np.column_stack(cols)
    _, svals, vh = np.linalg.svd(mat)
    oracle_kernel = vh[np.sum(svals > 1e-9 * svals[0]) :].conj()
    assert oracle_kernel.shape[0] == 4

    ann = annihilator(rho)
    assert len(ann) == 4
    assert span_matches(ann.matrix, list(oracle_kernel))
    # tangent directions 2..4 plus dx1 span the kernel
    expected = [
        GcVector(N, vec=np.eye(N)[1]).as_array(),
        GcVector(N, vec=np.eye(N)[2]).as_array(),
        GcVector(N, vec=np.eye(N)[3]).as_array(),
        GcVector(N, cov=np.eye(N)[0]).as_array(),
    ]
    assert span_matches(ann.matrix, expected)


def test_annihilator_rejects_zero():
    with pytest.raises(ValueError):
        annihilator(Multiform.zero(N))


def test_is_pure():
    assert is_pure(exp_wedge(1j * omega0()))
    assert is_pure(Multiform.scalar(N, 1.0))
    assert not is_pure(omega0())  # kernel is trivial for the bare 2-form
    assert not is_pure(Multiform.from_terms(N, {(): 1.0, (1,): 1.0}))  # both parities


@pytest.mark.parametrize("c", [1.0, 2.0, 0.0])
def test_one_plus_f_plus_c_pfaffian_is_pure_only_at_c_one(c):
    # 1 + F + c Pf(F) vol, Pf(F) != 0: one parity, and its Mukai self-pairing is 2 (c - 1) Pf(F); at c = 1 it is
    # exp(F).  The SVD of the Clifford action, the rule's oracle, agrees
    rng = np.random.default_rng(int(c))
    for _ in range(10):
        f = Multiform(N, random_multiform(rng, N, degrees={2}).coeffs)
        pf = exp_wedge(f).top()
        assert abs(pf) > 1e-2
        rho = exp_wedge(f) + Multiform.basis(N, (1, 2, 3, 4), (c - 1.0) * pf)
        assert is_pure(rho) == (c == 1.0) == (len(annihilator(rho)) == N)


def test_zero_is_not_pure_and_raises_no_warning():
    import warnings

    from gcx.spinor import _pure

    block = np.zeros((1 << N, 3), complex)
    block[:, 1] = exp_wedge(1j * omega0()).coeffs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_pure(Multiform.zero(N))
        assert _pure(block, 1e-9).tolist() == [False, True, False]


def test_purity_runs_no_svd(monkeypatch):
    # purity is read from the Mukai pairing: normal_forms and is_pure never build a Clifford action, so never
    # reach its SVD
    from gcx import spinor

    block = mixed_block(np.random.default_rng(14))
    expected = normal_forms(block)

    def no_action(coeffs):
        raise AssertionError("purity built a Clifford action")

    monkeypatch.setattr(spinor, "action_matrix", no_action)
    assert all(is_pure(Multiform(N, col)) for col in block.T)
    for got, want in zip(normal_forms(block), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mukai_top_is_the_wedge_top_bit_for_bit(n):
    from gcx.multilinear import _tables, wedge_coeffs
    from gcx.spinor import _mukai_top

    sigma = np.where(_tables(n).degree % 4 < 2, 1.0, -1.0)[:, None]
    rng = np.random.default_rng(n)
    for count in (1, 17):
        for _ in range(20):
            a, b = (rng.normal(size=(1 << n, count)) + 1j * rng.normal(size=(1 << n, count)) for _ in "ab")
            assert _mukai_top(n, a, b).tobytes() == wedge_coeffs(n, sigma * a, b)[-1].tobytes()


def test_annihilator_isotropy_and_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        b = random_multiform(rng, N, degrees={2})
        rho = exp_wedge(b)  # generic complex 2-form exponent is pure of type 0
        ann = annihilator(rho)
        assert len(ann) == 4
        for u in basis_vectors(ann):
            assert clifford(u, rho).max_abs() < 1e-9
            for v in basis_vectors(ann):
                assert abs(pairing(u, v)) < 1e-9


def test_max_pairing_is_the_largest_pairwise_pairing():
    # pairing is the reference for max |P^T G P| over the basis columns
    rng = np.random.default_rng(17)

    def reference(basis):
        return max(abs(pairing(u, v)) for u in basis_vectors(basis) for v in basis_vectors(basis))

    for j in range(10):
        b = random_multiform(rng, N, degrees={2})
        # pure of type 0, and of type 2 through a B-transform of dz1^dz2
        rho = exp_wedge(b) if j % 2 else b_transform(Multiform(N, b.coeffs.real), dz1_dz2())
        ann = annihilator(rho)
        assert len(ann) == 4
        assert ann.max_pairing() == pytest.approx(reference(ann), rel=1e-12, abs=1e-15)
    # a basis that is not isotropic: its largest pairing is far from 0
    basis = AnnihilatorBasis(N, rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))
    assert basis.max_pairing() == pytest.approx(reference(basis), rel=1e-13)
    assert basis.max_pairing() > 0.1


def test_normal_form_local_model_point():
    # value of the type-changing model at z1 = 1
    rho = Multiform.scalar(N, 1.0) + dz1_dz2()
    nf = normal_form(rho)
    assert nf.type == 0
    assert nf.gauge_unique
    assert nf.omega0.allclose(Multiform.scalar(N, 1.0))
    assert nf.b_plus_i_omega().allclose(dz1_dz2(), tol=1e-12)


def test_normal_form_type_two():
    nf = normal_form(dz1_dz2())
    assert nf.type == 2
    assert not nf.gauge_unique
    assert nf.omega0.allclose(dz1_dz2())
    assert rebuilt(nf).allclose(dz1_dz2(), tol=1e-12)


def test_normal_form_symplectic():
    nf = normal_form(exp_wedge(1j * omega0()))
    assert nf.type == 0
    assert nf.B.max_abs() < 1e-12
    assert nf.omega.allclose(omega0(), tol=1e-12)


def test_normal_form_roundtrip_random_types():
    rng = np.random.default_rng(42)
    for trial in range(60):
        k = trial % 3
        b = real_two_form(rng)
        w = real_two_form(rng)
        if k == 0:
            om = Multiform.scalar(N, complex(*rng.standard_normal(2)) + 2.0)
        elif k == 1:
            om = random_multiform(rng, N, degrees={1})
        else:
            a1 = random_multiform(rng, N, degrees={1})
            a2 = random_multiform(rng, N, degrees={1})
            om = a1.wedge(a2)
        rho = exp_wedge(b + 1j * w).wedge(om)
        assert is_pure(rho)
        nf = normal_form(rho)
        assert nf.type == k
        assert np.linalg.norm((rebuilt(nf) - rho).coeffs) <= 1e-10 * np.linalg.norm(rho.coeffs)
        assert nf.B.is_real() and nf.omega.is_real()


def test_normal_form_rejects_impure():
    with pytest.raises(ValueError):
        normal_form(omega0())


def two_form(values):
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return Multiform.from_terms(N, {pair: float(v) for pair, v in zip(pairs, values)})


def mixed_block(rng):
    """Columns of every type the surgery meets, and type 1: (2^n, N) coefficients."""
    forms = [dz1_dz2()]
    for _ in range(3):
        b = two_form(rng.uniform(-0.5, 0.5, 6))
        forms.append(b_transform(b, from_symplectic(omega0() + two_form(rng.uniform(-0.2, 0.2, 6)))))
        forms.append(b_transform(b, from_complex(standard_I())))
        forms.append(exp_wedge(b + 1j * omega0()).wedge(random_multiform(rng, N, degrees={1})))
    rho = local_model_spinor()
    off_locus = rho(ChartPoint(CHART_CPLANE, tuple(rng.uniform(-1, 1, (4, 5))))).values
    on_locus = rho(ChartPoint(CHART_CPLANE, (np.zeros(2), np.zeros(2), *rng.uniform(-1, 1, (2, 2))))).values
    return np.column_stack([f.coeffs for f in forms] + [off_locus, on_locus])


def test_normal_forms_block_matches_each_column():
    block = mixed_block(np.random.default_rng(12))
    types, omega0s, exponents = normal_forms(block)
    assert sorted(set(types.tolist())) == [0, 1, 2]
    for j, col in enumerate(block.T):
        nf = normal_form(Multiform(N, col))
        assert types[j] == nf.type
        assert nf.gauge_unique == (nf.type == 0)
        assert np.array_equal(omega0s[:, j], nf.omega0.coeffs)
        assert np.array_equal(exponents[:, j].real, nf.B.coeffs.real)
        assert np.array_equal(exponents[:, j].imag, nf.omega.coeffs.real)


def test_normal_forms_rejects_a_block_with_an_impure_or_zero_column():
    block = mixed_block(np.random.default_rng(13))
    for bad in (omega0().coeffs, np.zeros(1 << N)):
        spoiled = block.copy()
        spoiled[:, 4] = bad
        with pytest.raises(ValueError, match="requires a pure spinor"):
            normal_forms(spoiled)
    with pytest.raises(ValueError, match="requires a pure spinor"):
        normal_form(Multiform.zero(N))


def test_normal_form_cross_checks_hold_at_any_magnitude(monkeypatch):
    # at 1e200 unscaled norms and squares overflow, and a NaN or inf compared against a bound with
    # `>` let a wrong factorization through; the cross-checks read columns scaled to a largest entry of 1
    from gcx import spinor

    rho = exp_wedge(1j * omega0())
    for scale in (1.0, 1e200):
        nf = normal_form(rho * scale)
        assert nf.type == 0 and nf.omega.allclose(omega0()) and nf.B.allclose(Multiform.zero(N))
    exp_coeffs = spinor.exp_wedge_coeffs
    with monkeypatch.context() as patch:  # a wrong exponential: twice the true one
        patch.setattr(spinor, "exp_wedge_coeffs", lambda b: 2 * exp_coeffs(b))
        for scale in (1.0, 1e200):
            with pytest.raises(RuntimeError, match="failed to reproduce the spinor"):
                normal_form(rho * scale)


unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(unit, min_size=6, max_size=6), st.lists(unit, min_size=6, max_size=6))
def test_normal_form_round_trip_of_b_transformed_symplectic_spinors(b_values, w_values):
    w = two_form(w_values)
    assume(abs(w.wedge(w).top()) >= 0.5)  # |Pf| >= 1/4: safely nondegenerate
    b = two_form(0.5 * np.array(b_values))
    nf = normal_form(b_transform(b, from_symplectic(w)))
    assert nf.type == 0 and nf.gauge_unique
    assert nf.omega0.allclose(Multiform.scalar(N, 1.0), tol=1e-12)
    assert nf.B.allclose(b, tol=1e-12) and nf.omega.allclose(w, tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(unit, min_size=6, max_size=6), st.lists(unit, min_size=16, max_size=16))
def test_normal_form_round_trip_of_b_transformed_complex_spinors(b_values, p_values):
    p = np.eye(N) + 0.4 * np.reshape(p_values, (N, N))
    assume(np.linalg.cond(p) <= 10.0)
    omega = from_complex(p @ standard_I() @ np.linalg.inv(p))
    b = two_form(0.5 * np.array(b_values))
    rho = b_transform(b, omega)
    nf = normal_form(rho)
    assert nf.type == 2 and not nf.gauge_unique
    assert nf.omega0.allclose(omega, tol=1e-12)
    assert np.linalg.norm((rebuilt(nf) - rho).coeffs) <= 1e-10 * np.linalg.norm(rho.coeffs)
    # the exponent is B up to the gauge: forms whose wedge with omega0 vanishes
    assert (nf.b_plus_i_omega() - b).wedge(omega).max_abs() <= 1e-10 * rho.max_abs()


def test_check_nondegenerate():
    assert check_nondegenerate(normal_form(exp_wedge(1j * omega0())))
    # type-1 spinor with zero omega: top term vanishes
    rho1 = Multiform.from_terms(N, {(1,): 1.0, (2,): 1j})
    nf1 = normal_form(rho1)
    assert nf1.type == 1
    assert not check_nondegenerate(nf1)
    # types past n/2: Omega ^ conj(Omega) has degree above n, so the pairing is 0
    for indices in [(1, 2, 3), (1, 2, 3, 4)]:
        assert not check_nondegenerate(normal_form(Multiform.basis(N, indices)))
    # local model at z1 = 1: direct evaluation of Im(dz1^dz2)^2
    rho = Multiform.scalar(N, 1.0) + dz1_dz2()
    nf = normal_form(rho)
    w2 = nf.omega.wedge(nf.omega)
    assert abs(w2.top()) > 1e-9
    assert check_nondegenerate(nf)
    # the verdict is the line's: a scaled spinor, small or past overflow in Omega ^ conj(Omega), keeps it
    for scale in (1e-6, 1e200):
        assert check_nondegenerate(normal_form(exp_wedge(1j * omega0()) * scale))
        assert not check_nondegenerate(normal_form(rho1 * scale))
    # dx1 ^ exp(i dx2^dx3) is pure of type 1, but its Omega = dx1 is real, so L meets conj(L);
    # (dx1 + i dx2) ^ exp(i dx3^dx4) is not
    real_type_one = Multiform.from_terms(N, {(1,): 1.0, (1, 2, 3): 1j})
    assert is_pure(real_type_one) and not check_nondegenerate(normal_form(real_type_one))
    complex_type_one = Multiform.from_terms(N, {(1,): 1.0, (2,): 1j, (1, 3, 4): 1j, (2, 3, 4): -1.0})
    assert check_nondegenerate(normal_form(complex_type_one))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0, 1, 2]),
    st.booleans(),
    st.sampled_from([0.0, 1e-13, 1e-6, 1.0]),
    st.sampled_from([1e-6, 1.0, 1e200]),
    st.integers(0, 2**32 - 1),
)
def test_nondegeneracy_is_the_pairing_and_blind_to_b_transforms(k, degenerate, w_scale, scale, seed):
    # Omega of type k from random complex 1-forms, or degenerate: a real 1-form, a ^ conj(a), or at type 0 a
    # decomposable omega, whose square vanishes
    rng = np.random.default_rng(seed)
    a, b = (random_multiform(rng, N, degrees={1}) for _ in range(2))
    w = real_two_form(rng)
    if k == 0:
        om = Multiform.scalar(N, complex(*rng.standard_normal(2)) + 2.0)
        if degenerate:
            w = Multiform(N, a.coeffs.real).wedge(Multiform(N, b.coeffs.real))
    elif k == 1:
        om = Multiform(N, a.coeffs.real) if degenerate else a
    else:
        om = a.wedge(a.conjugate() if degenerate else b)
    rho = exp_wedge(1j * w_scale * w).wedge(om) * scale
    nf = normal_form(rho)
    assert nf.type == k
    # the pairing is 2^j / j! times the old figure Omega ^ conj(Omega) ^ omega^j (j = n/2 - k): they agree
    # outside (tol j! / 2^j, tol], kept clear of by a factor of 10 for round-off
    figure, band = naive_nondegeneracy_figure(nf.omega0, nf.omega), 2 ** (N // 2 - k) / math.factorial(N // 2 - k)
    assume(figure > 1e-8 or figure * band < 1e-10)
    verdict = check_nondegenerate(nf)
    assert verdict == (figure > 1e-9)
    assert check_nondegenerate(normal_form(b_transform(real_two_form(rng), rho))) == verdict


def test_nondegenerate_verdicts_are_the_wedge_rule():
    # the pairing read from the wedge's complementary pairs against the full wedge's top coefficient, on a seeded
    # block of every type, degenerate columns among them, at several tolerances
    from gcx.multilinear import _tables, wedge_coeffs
    from gcx.spinor import _lowest_part, _nondegenerate

    rng = np.random.default_rng(15)
    a = random_multiform(rng, N, degrees={1})
    extra = [Multiform(N, a.coeffs.real), a.wedge(a.conjugate()), exp_wedge(1j * 1e-6 * omega0()) * 1e3]
    block = np.column_stack([mixed_block(rng)] + [f.coeffs for f in extra])
    sigma = np.where(_tables(N).degree % 4 < 2, 1.0, -1.0)[:, None]
    verdicts = set()
    for tol in (1e-13, 1e-9, 1e-6, 1e-3):
        unit = block / np.abs(_lowest_part(block, tol)[1]).max(axis=0)
        old = np.abs(wedge_coeffs(N, sigma * unit, unit.conj())[-1]) > tol
        assert np.array_equal(_nondegenerate(block, tol), old)
        verdicts.update(old.tolist())
    assert verdicts == {True, False}


def test_b_transform_identity_and_additivity():
    rho = exp_wedge(1j * omega0())
    assert b_transform(Multiform.zero(N), rho).allclose(rho)
    B = Multiform.from_terms(N, {(1, 3): 0.7, (2, 4): -0.2})
    assert b_transform(B, rho).allclose(exp_wedge(B + 1j * omega0()), tol=1e-12)


def test_b_transform_preserves_type():
    B = Multiform.basis(N, (1, 3))
    out = b_transform(B, dz1_dz2())
    assert normal_form(out).type == 2
    with pytest.raises(ValueError):
        b_transform(1j * B, dz1_dz2())
    with pytest.raises(ValueError):
        b_transform(Multiform.basis(N, (1,)), dz1_dz2())


def test_from_symplectic():
    rho = from_symplectic(omega0())
    expected = Multiform.from_terms(
        N, {(): 1.0, (1, 2): 1j, (3, 4): 1j, (1, 2, 3, 4): -1.0}
    )
    assert rho.allclose(expected, tol=1e-14)
    assert normal_form(rho).type == 0
    with pytest.raises(ValueError):
        from_symplectic(Multiform.basis(N, (1, 2)))
    # every 2-form in odd dimension is degenerate: its exp(i*omega) has a zero pairing
    with pytest.raises(ValueError, match="degenerate 2-form"):
        from_symplectic(Multiform.basis(3, (1, 2)))
    assert from_symplectic(Multiform.basis(2, (1, 2))).allclose(exp_wedge(Multiform.basis(2, (1, 2), 1j)))


def test_from_complex():
    rho = from_complex(standard_I())
    target = dz1_dz2()
    lead = target.coeffs[int(np.argmax(np.abs(target.coeffs)))]
    assert rho.allclose(target / lead, tol=1e-9)
    assert normal_form(rho).type == 2
    with pytest.raises(ValueError):
        from_complex(np.eye(4))


def test_type_parity_of_constructed_spinors():
    rng = np.random.default_rng(77)
    for k in (0, 1, 2):
        for _ in range(10):
            b = random_multiform(rng, N, degrees={2})
            if k == 0:
                om = Multiform.scalar(N, 1.5 + 0.2j)
            elif k == 1:
                om = random_multiform(rng, N, degrees={1})
            else:
                om = random_multiform(rng, N, degrees={1}).wedge(
                    random_multiform(rng, N, degrees={1})
                )
            nf = normal_form(exp_wedge(b).wedge(om))
            assert nf.type == k
            assert nf.type % 2 == k % 2


# ------------------------------------------------- the SVDs: min_norm_solve and annihilator


def _unitary(rng, size):
    q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_min_norm_solve_equals_lstsq_on_stacked_rank_deficient_matrices(n, seed, ranks):
    # U diag(s) V^H with s in [0.1, 1] on the first r, zero after: exact ranks, condition at most 10
    rng, (m, k), tol = np.random.default_rng(seed), (1 << n, 2 * n), 1e-9
    ranks = [min(r, k) for r in ranks]
    mats = np.array([
        _unitary(rng, m)[:, :k] * np.where(np.arange(k) < r, rng.uniform(0.1, 1.0, k), 0.0) @ _unitary(rng, k)
        for r in ranks
    ])
    targets = rng.standard_normal((len(ranks), m)) + 1j * rng.standard_normal((len(ranks), m))
    rows = min_norm_solve(mats, targets, tol)
    assert rows.shape == (len(ranks), k)
    for a, b, x, r in zip(mats, targets, rows, ranks):
        assert r == np.linalg.matrix_rank(a)
        ref = np.linalg.lstsq(a, b, rcond=tol)[0]
        assert np.abs(x - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.abs(b).max())


def _random_spinor(rng, n, kind):
    """A spinor built pure by from_symplectic, from_complex or b_transform, or for "random" an impure one."""
    if kind == "random":
        return random_multiform(rng, n)  # every degree, so of mixed parity
    b, w = (Multiform(n, rng.standard_normal(1 << n)).degree_part(2) for _ in range(2))
    if kind == "symplectic" and n % 2 == 0:
        assume(abs(exp_wedge(w).top()) >= 0.1)  # the Pfaffian
        return b_transform(b, from_symplectic(w))
    if kind == "complex" and n % 2 == 0:
        p = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        assume(np.linalg.cond(p) <= 10.0)
        return b_transform(b, from_complex(p @ np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]]) @ np.linalg.inv(p)))
    # exp(B + i w) ^ (k random complex 1-forms), for any n
    omega = Multiform.scalar(n, 1.0)
    for _ in range(rng.integers(0, n + 1)):
        one = np.zeros(1 << n, complex)
        one[1 << np.arange(n)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        omega = omega.wedge(Multiform(n, one))
    assume(omega.max_abs() >= 1e-2)
    return b_transform(b, exp_wedge(1j * w).wedge(omega))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["symplectic", "complex", "decomposable", "random"]), min_size=1, max_size=5),
)
def test_kernels_agree_with_annihilator_and_is_pure(n, seed, kinds):
    rng = np.random.default_rng(seed)
    for kind in kinds:
        rho = _random_spinor(rng, n, kind)
        kernel = annihilator(rho).matrix
        assert (kernel.shape[1] == n) == is_pure(rho) == (kind != "random")
        assert np.abs(action_matrix(rho) @ kernel).max(initial=0.0) <= 1e-12 * rho.max_abs()
