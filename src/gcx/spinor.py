"""Pointwise pure-spinor theory for generalized complex linear algebra.

A mixed form rho is pure when the space of generators annihilating it
under the Clifford action is maximal isotropic (dimension n).  Pure
spinors factor as exp(B + i*omega) ^ Omega with B, omega real 2-forms
and Omega decomposable of degree k (the type).  This module computes
annihilators (the (2n, k) kernel matrix of the Clifford action, kept as
``AnnihilatorBasis.matrix``), purity and nondegeneracy (one rule each,
``_pure`` and ``_nondegenerate``, both from the Mukai pairing), that
factorization, B-field transforms, and the induced complex structure on
T + T*.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gcx.multilinear import (
    GcVector,
    Multiform,
    _tables,
    action_matrix,
    clifford,
    exp_wedge,
    exp_wedge_coeffs,
    pairing_gram,
    wedge_coeffs,
)

__all__ = [
    "AnnihilatorBasis",
    "NormalForm",
    "GcEndomorphism",
    "annihilator",
    "is_pure",
    "normal_form",
    "normal_forms",
    "min_norm_solve",
    "check_nondegenerate",
    "b_transform",
    "from_symplectic",
    "from_complex",
    "j_endomorphism",
    "j_endomorphisms",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AnnihilatorBasis:
    """Basis of the space of generators annihilating a spinor: the columns of a (2n, k) matrix."""

    dim: int
    matrix: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self) -> tuple:
        return tuple(GcVector.from_array(self.dim, col) for col in self.matrix.T)

    def max_pairing(self) -> float:
        """Largest |<u, v>| over basis pairs, max |P^T G P|; ~0 certifies isotropy."""
        return float(np.abs(self.matrix.T @ pairing_gram(self.dim) @ self.matrix).max(initial=0.0))


@dataclass(frozen=True)
class NormalForm:
    """Factorization data exp(B + i*omega) ^ omega0 of a pure spinor.

    omega0 is the decomposable degree-k factor; for type 0 it is the
    scalar part itself.  gauge_unique records whether B + i*omega was
    determined uniquely (type 0) or picked as the minimal-norm solution
    of an underdetermined wedge equation (higher types).
    """

    type: int
    omega0: Multiform
    B: Multiform
    omega: Multiform
    gauge_unique: bool

    @property
    def dim(self) -> int:
        return self.omega0.dim

    def b_plus_i_omega(self) -> Multiform:
        return self.B + 1j * self.omega

    def to_json_dict(self) -> dict:
        return {
            "type": self.type,
            "omega0": self.omega0.to_json_dict(),
            "B": self.B.to_json_dict(),
            "omega": self.omega.to_json_dict(),
            "gauge_unique": self.gauge_unique,
        }


class GcEndomorphism:
    """A pairing-preserving complex structure on T + T*, stored as a real matrix.

    Coordinates are (X_1..X_n, xi_1..xi_n), matching GcVector.as_array().
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix):
        mat = np.array(matrix, dtype=float)
        if mat.shape != (2 * dim, 2 * dim):
            raise ValueError(f"expected {2 * dim}x{2 * dim} matrix, got {mat.shape}")
        if fault := _structure_fault(dim, mat):
            raise ValueError(f"matrix {fault}")
        mat.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("GcEndomorphism is immutable")


def _structure_fault(dim: int, mats: np.ndarray) -> str | None:
    """The first check a stack of real (2n, 2n) matrices fails, squaring to -1 or preserving the pairing, or None."""
    if np.abs(mats @ mats + np.eye(2 * dim)).max() > 1e-8:
        return "does not square to -identity"
    g = pairing_gram(dim)
    if np.abs(mats.swapaxes(-1, -2) @ g @ mats - g).max() > 1e-8:
        return "does not preserve the pairing"
    return None


def _kept(svals: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the singular values (..., k) above the rank cutoff, tol times the largest.

    A rank is the mask's count, 0 for a zero matrix.
    """
    return svals > tol * svals[..., :1]


def _kernels(coeffs: np.ndarray, tol: float) -> tuple:
    """Annihilator dimensions (N,) of the columns of (2^n, N) coefficients, and V^H (N, 2n, 2n).

    One stacked thin SVD of the action matrices, rank by ``_kept``; the
    conjugated last ``dims`` rows of V^H span a column's annihilator.
    """
    _, svals, vh = np.linalg.svd(action_matrix(coeffs), full_matrices=False)
    return vh.shape[-1] - _kept(svals, tol).sum(axis=-1), vh


def min_norm_solve(mats: np.ndarray, targets: np.ndarray, tol: float) -> tuple:
    """Minimal-norm least-squares x (..., k) of mats (..., m, k) @ x = targets (..., m), and the kept mask.

    One stacked thin SVD, cut off by ``_kept``; a mask's count is that
    matrix's rank.
    """
    u, svals, vh = np.linalg.svd(mats, full_matrices=False)
    keep, proj = _kept(svals, tol)[..., None, :], targets[..., None, :] @ u.conj()
    # as rows: target^T conj(U) / s conj(V^H) = (V S^+ U^H target)^T
    scaled = np.divide(proj, svals[..., None, :], out=np.zeros(keep.shape, complex), where=keep)
    return (scaled @ vh.conj())[..., 0, :], keep[..., 0, :]


def annihilator(rho: Multiform, tol: float = DEFAULT_TOL) -> AnnihilatorBasis:
    """Basis of the kernel of v -> v . rho over generators v in C^{2n}.

    Kernel membership is decided by a singular-value threshold of
    tol * (largest singular value) on the (2^n, 2n) action matrix.
    """
    if rho.max_abs() == 0.0:
        raise ValueError("annihilator of the zero form is everything; rejecting")
    dims, vh = _kernels(rho.coeffs[:, None], tol)
    kernel = vh[0, 2 * rho.dim - dims[0] :].conj().T
    kernel.setflags(write=False)
    return AnnihilatorBasis(dim=rho.dim, matrix=kernel)


def _mukai_top(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sigma(a) ^ b)_top of coefficient arrays (2^n, ...), sigma = (-1)^(k(k-1)/2) on degree k: the wedge's last
    run, its 2^n complementary pairs (s, ~s), reduced as ``wedge_coeffs`` reduces it, so bit for bit its [-1]."""
    t, shape = _tables(n), (-1,) + (1,) * (a.ndim - 1)
    prod = np.where(t.degree % 4 < 2, 1.0, -1.0).reshape(shape) * a * b[::-1]
    prod *= t.w_sign[t.w_starts[-1] :].reshape(shape)
    return np.add.reduceat(prod, [0])[0]


def _pure(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """Whether each column of (2^n, N) coefficients is pure: for n <= 4, of one parity with a zero Mukai self-pairing
    (Chevalley).  So: nonzero, a minority-parity part at most tol times the largest coefficient, and
    |(sigma(u) ^ u)_top| <= tol, u the column scaled to a largest coefficient of 1 (scaled to Omega, the round-off
    of the cancelling terms would grow as |B + i*omega|^2)."""
    n = len(coeffs).bit_length() - 1
    parts = [np.abs(coeffs[_tables(n).degree % 2 == parity]).max(axis=0) for parity in (0, 1)]
    minority, scale = np.minimum(*parts), np.maximum(*parts)
    unit = np.divide(coeffs, scale, out=np.zeros(coeffs.shape, complex), where=scale > 0)
    return (scale > 0) & (minority <= tol * scale) & (np.abs(_mukai_top(n, unit, unit)) <= tol)


def is_pure(rho: Multiform, tol: float = DEFAULT_TOL) -> bool:
    """True iff rho is a pure spinor, its annihilator of the maximal dimension n: ``_pure`` on one column."""
    return bool(_pure(rho.coeffs[:, None], tol)[0])


@lru_cache(maxsize=None)
def _two_form_pairs(n: int) -> tuple:
    """The basis 2-forms, then over the wedge's pairs (s, t) with s one of them: s | t, the column of s, t, sign."""
    t = _tables(n)
    two, pick = np.flatnonzero(t.degree == 2), t.degree[t.w_src1] == 2
    return two, t.w_src1[pick] | t.w_src2[pick], np.searchsorted(two, t.w_src1[pick]), t.w_src2[pick], t.w_sign[pick]


def _lowest_part(coeffs: np.ndarray, tol: float) -> tuple:
    """Types (N,), Omega (2^n, N) and largest |coefficient| (N,) of the columns of (2^n, N) coefficients: a type is
    a column's lowest degree above tol times its largest coefficient, Omega its part of that degree."""
    degree = _tables(len(coeffs).bit_length() - 1).degree[:, None]
    mags = np.abs(coeffs)
    scale = mags.max(axis=0)
    types = np.where(mags > tol * scale, degree, degree[-1] + 1).min(axis=0)  # n + 1 for a zero column
    return types, np.where(degree == types, coeffs, 0), scale


def _nondegenerate(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """Whether each column rho of (2^n, N) coefficients has a Mukai pairing |(sigma(rho) ^ conj(rho))_top| above tol,
    sigma = (-1)^(k(k-1)/2) on degree k: for a pure rho, whether L meets conj(L) only in 0.  A column is read scaled
    to a ``_lowest_part`` Omega of largest coefficient 1; neither that scale nor the pairing changes under exp(B) ^."""
    unit = coeffs / np.abs(_lowest_part(coeffs, tol)[1]).max(axis=0)
    return np.abs(_mukai_top(len(coeffs).bit_length() - 1, unit, unit.conj())) > tol


def normal_forms(coeffs: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """Factor each column of (2^n, N) coefficients, a pure spinor, as exp(B + i*omega) ^ Omega.

    Returns types (N,), Omega and B + i*omega (2^n, N), and gauge_unique
    (N,).  The types and Omega are ``_lowest_part``'s.  Type 0 divides
    out the scalar part; type k > 0 takes the minimal-norm C with
    C ^ Omega = (degree k + 2 part), one ``min_norm_solve`` per type,
    unique iff of full rank.  Raises ValueError unless every column is
    pure by ``_pure``, and RuntimeError unless
    |exp(B + i*omega) ^ Omega - rho| <= 1e-10 |rho|.
    """
    n = len(coeffs).bit_length() - 1
    if not _pure(coeffs, tol).all():
        raise ValueError("normal_form requires a pure spinor")
    degree = _tables(n).degree[:, None]
    two, dst, col, src, sign = _two_form_pairs(n)
    types, omega0, scale = _lowest_part(coeffs, tol)
    exponent = np.zeros(coeffs.shape, complex)
    np.divide(np.where(degree == 2, coeffs, 0), coeffs[0], out=exponent, where=types == 0)
    unique = types == 0
    for k in set(types.tolist()) - {0}:
        cols = types == k
        # column s of a matrix: (basis 2-form s) ^ Omega, a signed gather from the wedge's pairs
        mats = np.zeros((cols.sum(), 1 << n, len(two)), complex)
        mats[:, dst, col] = omega0[src][:, cols].T * sign
        rows, keep = min_norm_solve(mats, np.where(degree == k + 2, coeffs[:, cols], 0).T, tol)
        del mats  # not held through the reconstruct check
        exponent[two[:, None], cols] = rows.T
        unique[cols] = keep.all(axis=1)
    rebuilt = wedge_coeffs(n, exp_wedge_coeffs(exponent), omega0)
    # scaled, no norm overflows to inf; and a NaN residual fails `<=`, where it passed `>`
    gap, size = np.linalg.norm(np.array([rebuilt - coeffs, coeffs]) / scale, axis=1)
    residual = (gap / size).max()
    if not residual <= 1e-10:
        raise RuntimeError(f"normal form failed to reproduce the spinor (relative residual {residual:.3e})")
    return types, omega0, exponent, unique


def normal_form(rho: Multiform, tol: float = DEFAULT_TOL) -> NormalForm:
    """Factor a pure spinor as exp(B + i*omega) ^ Omega: ``normal_forms`` on one column."""
    types, omega0, exponent, unique = normal_forms(rho.coeffs[:, None], tol)
    n, c = rho.dim, exponent[:, 0]
    return NormalForm(
        type=int(types[0]),
        omega0=Multiform(n, omega0[:, 0]),
        B=Multiform(n, c.real),
        omega=Multiform(n, c.imag),
        gauge_unique=bool(unique[0]),
    )


def check_nondegenerate(nf: NormalForm, tol: float = DEFAULT_TOL) -> bool:
    """Nondegeneracy of the factored spinor as a generalized complex point: ``_nondegenerate`` on exp(i*omega) ^ Omega,
    which has the spinor's Mukai pairing and Omega, so the spinor's scale and B do not move the verdict."""
    if nf.dim % 2:
        raise ValueError("nondegeneracy is defined on even-dimensional spaces")
    return bool(_nondegenerate(exp_wedge(1j * nf.omega).wedge(nf.omega0).coeffs[:, None], tol)[0])


def b_transform(B: Multiform, rho: Multiform) -> Multiform:
    """Transform rho by a real 2-form: rho -> exp(B) ^ rho."""
    if not B.is_real():
        raise ValueError("b_transform requires a real 2-form")
    if not B.allclose(B.degree_part(2)):
        raise ValueError("b_transform requires a homogeneous degree-2 form")
    return exp_wedge(B).wedge(rho)


def from_symplectic(omega: Multiform, tol: float = DEFAULT_TOL) -> Multiform:
    """Spinor exp(i*omega) of a real 2-form, nondegenerate by ``_nondegenerate`` (which reads omega unscaled;
    every 2-form in odd dimension is degenerate)."""
    if not omega.is_real():
        raise ValueError("from_symplectic requires a real 2-form")
    if not omega.allclose(omega.degree_part(2)):
        raise ValueError("from_symplectic requires a homogeneous degree-2 form")
    rho = exp_wedge(1j * omega)
    if not _nondegenerate(rho.coeffs[:, None], tol)[0]:
        raise ValueError(f"degenerate 2-form: the Mukai pairing of exp(i*omega) is at most tol {tol:.1e}")
    return rho


def from_complex(I: np.ndarray, tol: float = DEFAULT_TOL) -> Multiform:
    """Canonical-line spinor of an almost complex structure on T.

    Returns the wedge of a basis of covectors annihilating the -i
    eigenspace of I, normalized so the largest coefficient is 1.
    """
    mat = np.asarray(I, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n) or n % 2:
        raise ValueError("expected a square even-dimensional matrix")
    if np.abs(mat @ mat + np.eye(n)).max() > 1e3 * tol:
        raise ValueError("matrix does not square to -identity")
    evals, evecs = np.linalg.eig(mat.T)
    plus_i = [evecs[:, j] for j in range(n) if abs(evals[j] - 1j) < 1e-6]
    if len(plus_i) != n // 2:
        raise RuntimeError("eigenvalue +i of I^T must have multiplicity n/2")
    rho = Multiform.scalar(n, 1.0)
    for xi in plus_i:
        one_form = np.zeros(1 << n, dtype=complex)
        one_form[1 << np.arange(n)] = xi
        rho = rho.wedge(Multiform(n, one_form))
    # the line is scale-free; pin the representative deterministically
    lead = rho.coeffs[int(np.argmax(np.abs(rho.coeffs)))]
    rho = rho / lead
    evals_i, evecs_i = np.linalg.eig(mat)
    minus_i = [evecs_i[:, j] for j in range(n) if abs(evals_i[j] + 1j) < 1e-6]
    for x in minus_i:
        if clifford(GcVector(n, vec=x), rho).max_abs() > 1e3 * tol:
            raise RuntimeError("result fails to annihilate the -i eigenspace of I")
    return rho


def j_endomorphisms(coeffs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real endomorphisms (N, 2n, 2n), each +i on the annihilator L of a column of (2^n, N) coefficients
    and -i on conj(L).

    They exist iff every column is pure with L intersect conj(L) = 0.
    ``_pure`` and ``_nondegenerate`` decide it, ``_kernels`` gives the
    annihilators, and one stacked inverse of [P, conj P] the matrices.
    These must be real, square to -1 and preserve the pairing (the checks
    of ``GcEndomorphism``), or RuntimeError is raised.
    """
    n = len(coeffs).bit_length() - 1
    if (np.abs(coeffs).max(axis=0) == 0.0).any():
        raise ValueError("annihilator of the zero form is everything; rejecting")
    dims, vh = _kernels(coeffs, tol)
    if not (pure := _pure(coeffs, tol)).all():
        raise ValueError(f"spinor is not pure (annihilator dimension {dims[~pure][0]})")
    if not _nondegenerate(coeffs, tol).all():
        raise ValueError("degenerate spinor, no J exists (L meets conj(L))")
    p = vh[:, n:].conj().swapaxes(1, 2)  # (N, 2n, n): the kernel columns
    s = np.concatenate([p, p.conj()], axis=2)
    d = np.diag([1j] * n + [-1j] * n)
    jc = s @ d @ np.linalg.inv(s)
    if (np.abs(jc.imag).max(axis=(1, 2)) > 1e-9 * np.maximum(1.0, np.abs(jc.real).max(axis=(1, 2)))).any():
        raise RuntimeError("induced endomorphism has a non-real part")
    if fault := _structure_fault(n, jc.real):
        raise RuntimeError(f"induced endomorphism failed the cross-check: it {fault}")
    return jc.real


def j_endomorphism(rho: Multiform, tol: float = DEFAULT_TOL) -> GcEndomorphism:
    """Real endomorphism acting as +i on the annihilator L of rho and -i on conj(L), which exists iff rho is pure
    with L intersect conj(L) = 0: ``j_endomorphisms`` on one column."""
    return GcEndomorphism(rho.dim, j_endomorphisms(rho.coeffs[:, None], tol)[0])
