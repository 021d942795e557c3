"""Pointwise pure-spinor theory for generalized complex linear algebra.

A mixed form rho is pure when the space of generators annihilating it
under the Clifford action is maximal isotropic (dimension n).  Pure
spinors factor as exp(B + i*omega) ^ Omega with B, omega real 2-forms
and Omega decomposable of degree k (the type).  This module computes
annihilators (the (2n, k) kernel matrix of the Clifford action, kept as
``AnnihilatorBasis.matrix``), that factorization, the nondegeneracy
test, B-field transforms, and the induced complex structure on T + T*.
"""

from dataclasses import dataclass, field

import numpy as np

from gcx.multilinear import (
    GcVector,
    Multiform,
    action_matrix,
    clifford,
    exp_wedge,
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
    "check_nondegenerate",
    "b_transform",
    "from_symplectic",
    "from_complex",
    "j_endomorphism",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AnnihilatorBasis:
    """Basis of the space of generators annihilating a spinor: the columns of a (2n, k) matrix."""

    dim: int
    matrix: np.ndarray
    tol: float

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
    notes: tuple = field(default=())

    @property
    def dim(self) -> int:
        return self.omega0.dim

    def b_plus_i_omega(self) -> Multiform:
        return self.B + 1j * self.omega

    def reconstruct(self) -> Multiform:
        return exp_wedge(self.b_plus_i_omega()).wedge(self.omega0)

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
        if np.abs(mat @ mat + np.eye(2 * dim)).max() > 1e-8:
            raise ValueError("matrix does not square to -identity")
        g = pairing_gram(dim)
        if np.abs(mat.T @ g @ mat - g).max() > 1e-8:
            raise ValueError("matrix does not preserve the pairing")
        mat.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("GcEndomorphism is immutable")


def annihilator(rho: Multiform, tol: float = DEFAULT_TOL) -> AnnihilatorBasis:
    """Basis of the kernel of v -> v . rho over generators v in C^{2n}.

    Kernel membership is decided by a singular-value threshold of
    tol * (largest singular value) on the (2^n, 2n) action matrix.
    """
    if rho.max_abs() == 0.0:
        raise ValueError("annihilator of the zero form is everything; rejecting")
    mat = action_matrix(rho)
    _, svals, vh = np.linalg.svd(mat)
    cutoff = tol * svals[0] if svals.size and svals[0] > 0 else tol
    rank = int(np.sum(svals > cutoff))
    kernel = vh[rank:].conj().T
    kernel.setflags(write=False)
    return AnnihilatorBasis(dim=rho.dim, matrix=kernel, tol=tol)


def is_pure(rho: Multiform, tol: float = DEFAULT_TOL) -> bool:
    """True iff the annihilator of rho has the maximal dimension n."""
    ann = annihilator(rho, tol)
    if len(ann) != rho.dim:
        return False
    # cross-check: a maximal annihilator must be isotropic
    scale = max(1.0, np.linalg.norm(ann.matrix, axis=0).max() ** 2)
    if ann.max_pairing() > 1e3 * tol * scale:
        raise RuntimeError("maximal annihilator failed the isotropy cross-check")
    return True


def _solve_exponent(omega0: Multiform, target: Multiform, tol: float):
    """Minimal-norm 2-form C with C ^ omega0 = target; returns (C, unique)."""
    dim = omega0.dim
    masks = [m for m in range(1 << dim) if bin(m).count("1") == 2]
    # one column per basis 2-form: its wedge with omega0
    mat = wedge_coeffs(dim, np.eye(1 << dim, dtype=complex)[:, masks], omega0.coeffs[:, None])
    sol, _, rank, _ = np.linalg.lstsq(mat, target.coeffs, rcond=tol)
    coeffs = np.zeros(1 << dim, dtype=complex)
    coeffs[masks] = sol
    return Multiform(dim, coeffs), rank == len(masks)


def normal_form(rho: Multiform, tol: float = DEFAULT_TOL) -> NormalForm:
    """Factor a pure spinor as exp(B + i*omega) ^ Omega.

    Type 0 divides out the scalar part, which determines B + i*omega
    uniquely; for higher types the exponent solves an underdetermined
    wedge equation and the least-squares minimal-norm representative is
    returned with gauge_unique cleared.
    """
    if not is_pure(rho, tol):
        raise ValueError("normal_form requires a pure spinor")
    scale = rho.max_abs()
    k = rho.lowest_degree(tol * scale)
    notes = []
    if k == 0:
        scalar = complex(rho.coeffs[0])
        omega0 = Multiform.scalar(rho.dim, scalar)
        exponent = rho.degree_part(2) / scalar
        unique = True
    else:
        omega0 = rho.degree_part(k)
        if k + 2 <= rho.dim:
            target = rho.degree_part(k + 2)
        else:
            target = Multiform.zero(rho.dim)
        exponent, unique = _solve_exponent(omega0, target, tol)
        if not unique:
            notes.append("exponent gauge not unique; minimal-norm representative chosen")
        if k == 2:
            sq = omega0.wedge(omega0)
            if sq.max_abs() > 1e3 * tol * scale**2:
                raise RuntimeError("degree-2 factor of a pure spinor must be decomposable")
    nf = NormalForm(
        type=k,
        omega0=omega0,
        B=exponent.real_part(),
        omega=exponent.imag_part(),
        gauge_unique=unique,
        notes=tuple(notes),
    )
    residual = (nf.reconstruct() - rho).norm()
    if residual > 1e-10 * rho.norm():
        raise RuntimeError(
            f"normal form failed to reproduce the spinor (relative residual {residual / rho.norm():.3e})"
        )
    return nf


def check_nondegenerate(nf: NormalForm, tol: float = DEFAULT_TOL) -> bool:
    """Nondegeneracy of the factored spinor as a generalized complex point.

    Requires the top coefficient of Omega ^ conj(Omega) ^ omega^(n/2 - k)
    to exceed tol, where n is the (even) dimension and k the type.
    """
    dim = nf.dim
    if dim % 2:
        raise ValueError("nondegeneracy is defined on even-dimensional spaces")
    half = dim // 2
    if nf.type > half:
        return False
    form = nf.omega0.wedge(nf.omega0.conjugate())
    for _ in range(half - nf.type):
        form = form.wedge(nf.omega)
    return abs(form.top()) > tol


def b_transform(B: Multiform, rho: Multiform) -> Multiform:
    """Transform rho by a real 2-form: rho -> exp(B) ^ rho."""
    if not B.is_real():
        raise ValueError("b_transform requires a real 2-form")
    if not B.allclose(B.degree_part(2)):
        raise ValueError("b_transform requires a homogeneous degree-2 form")
    return exp_wedge(B).wedge(rho)


def from_symplectic(omega: Multiform, tol: float = DEFAULT_TOL) -> Multiform:
    """Spinor exp(i*omega) of a nondegenerate real 2-form."""
    if not omega.is_real():
        raise ValueError("from_symplectic requires a real 2-form")
    if not omega.allclose(omega.degree_part(2)):
        raise ValueError("from_symplectic requires a homogeneous degree-2 form")
    if omega.dim % 2:
        raise ValueError("nondegeneracy needs an even-dimensional space")
    power = Multiform.scalar(omega.dim, 1.0)
    for _ in range(omega.dim // 2):
        power = power.wedge(omega)
    if abs(power.top()) <= tol:
        raise ValueError(
            f"degenerate 2-form: top power coefficient {power.top():.3e} below tol {tol:.1e}"
        )
    return exp_wedge(1j * omega)


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


def j_endomorphism(rho: Multiform, tol: float = DEFAULT_TOL) -> GcEndomorphism:
    """Real endomorphism acting as +i on the annihilator of rho and -i on its conjugate.

    Exists iff rho is pure and its annihilator L satisfies
    L intersect conj(L) = 0.
    """
    ann = annihilator(rho, tol)
    if len(ann) != rho.dim:
        raise ValueError(f"spinor is not pure (annihilator dimension {len(ann)})")
    p = ann.matrix
    s = np.hstack([p, np.conj(p)])
    svals = np.linalg.svd(s, compute_uv=False)
    if svals[-1] <= tol * svals[0]:
        raise ValueError("degenerate spinor, no J exists (L meets conj(L))")
    d = np.diag([1j] * rho.dim + [-1j] * rho.dim)
    jc = s @ d @ np.linalg.inv(s)
    if np.abs(jc.imag).max() > 1e-9 * max(1.0, np.abs(jc.real).max()):
        raise RuntimeError("induced endomorphism has a non-real part")
    return GcEndomorphism(rho.dim, jc.real)
