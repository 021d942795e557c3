"""Exact graded exterior algebra over a fixed complex cotangent space.

Mixed-degree forms on an n-dimensional cotangent space (2 <= n <= 4) are
stored densely: the coefficient of the basis monomial dx^{i1}^...^dx^{ik}
(indices strictly ascending) lives at the bitmask with bits i1-1,...,ik-1
set.  Every product sign is derived from transposition counting against
the ascending ordering, which keeps the wedge associative and graded
commutative.  Values are immutable after construction and all operations
are pure functions.
"""

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Multiform",
    "GcVector",
    "clifford",
    "pairing",
    "pairing_gram",
    "exp_wedge",
    "action_matrix",
    "interior_coeffs",
    "exterior_coeffs",
]


def _bit_indices(mask: int) -> tuple[int, ...]:
    """0-based positions of the set bits of ``mask``, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _shuffle_sign(s: int, t: int) -> int:
    """Sign of merging the ascending factor lists of disjoint masks s, t."""
    sign = 1
    for b in _bit_indices(t):
        if bin(s >> (b + 1)).count("1") % 2:
            sign = -sign
    return sign


@dataclass(frozen=True)
class _Tables:
    dim: int
    degree: np.ndarray      # (2^n,) popcounts
    odd_or_scalar: np.ndarray  # (2^n,) degree 0 or odd: where an exp_wedge exponent must vanish
    # the disjoint subset pairs (s, t) of the wedge, ordered by s | t, then s: the factor masks, the
    # shuffle sign of dx^s ^ dx^t = +-dx^(s|t), and where the run of each target u = s | t starts
    w_src1: np.ndarray
    w_src2: np.ndarray
    w_sign: np.ndarray
    w_starts: np.ndarray    # (2^n,)
    # the Clifford action of generator j (d/dx^1..d/dx^n, then dx^1..dx^n) on dx^s, as rows j 2^n + u:
    action_source: np.ndarray  # (2n 2^n,); the one s at which row j 2^n + u may be nonzero
    action_sign: np.ndarray  # (2n 2^n,); its entry there: +-1, or 0 where the row is zero


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    size = 1 << n
    degree = np.array([bin(s).count("1") for s in range(size)], dtype=np.int64)
    pairs = sorted((s | t, s, t) for s in range(size) for t in range(size) if not s & t)
    dst, src1, src2 = np.array(pairs, dtype=np.int64).T
    sign = np.array([float(_shuffle_sign(s, t)) for _, s, t in pairs])

    # the action from the wedge's degree-1 pairs (dx^i, t), u = t | bit i: dx^i ^ dx^t = sign dx^u,
    # and the interior product by d/dx^i takes dx^u to sign dx^t, with the same sign
    one = np.flatnonzero(degree[src1] == 1)
    i = degree[src1[one] - 1]  # s = 2^i, and s - 1 has i bits
    rows = np.concatenate([i * size + src2[one], (n + i) * size + dst[one]])
    action_source = np.zeros(2 * n * size, dtype=np.int64)
    action_source[rows] = np.concatenate([dst[one], src2[one]])
    action_sign = np.zeros(2 * n * size, dtype=complex)
    action_sign[rows] = np.tile(sign[one], 2)

    return _Tables(
        dim=n,
        degree=degree,
        odd_or_scalar=(degree == 0) | (degree % 2 == 1),
        w_src1=src1,
        w_src2=src2,
        w_sign=sign,
        w_starts=np.searchsorted(dst, np.arange(size)),
        action_source=action_source,
        action_sign=action_sign,
    )


def wedge_coeffs(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a ^ b from coefficient arrays (2^n, ...), broadcast past the first axis:
    the signed pair products a_s b_t, summed over each run of equal s | t (no BLAS at any size)."""
    t = _tables(n)
    x, y = a[t.w_src1], b[t.w_src2]
    # the product goes into the larger gather if it fits, the other is let go: the pairs are held twice, not thrice
    big = x if x.size >= y.size else y
    fits = x.dtype == y.dtype and (x.shape == y.shape or big.shape == np.broadcast(x, y).shape)
    prod = np.multiply(x, y, out=big if fits else None)
    del x, y, big
    prod *= t.w_sign.reshape((-1,) + (1,) * (prod.ndim - 1))
    return np.add.reduceat(prod, t.w_starts, axis=0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Multiform:
    """A mixed-degree complex exterior form on a fixed n-dim cotangent space."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        if not 2 <= dim <= 4:
            raise ValueError(f"dim must be 2..4, got {dim}")
        size = 1 << dim
        if coeffs is None:
            arr = np.zeros(size, dtype=complex)
        else:
            arr = np.array(coeffs, dtype=complex)
            if arr.shape != (size,):
                raise ValueError(f"expected {size} coefficients, got shape {arr.shape}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", _frozen(arr))

    def __setattr__(self, name, value):
        raise AttributeError("Multiform is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multiform":
        return cls(dim)

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "Multiform":
        c = np.zeros(1 << dim, dtype=complex)
        c[0] = value
        return cls(dim, c)

    @classmethod
    def basis(cls, dim: int, indices, coeff: complex = 1.0) -> "Multiform":
        """Monomial dx^{i1}^...^dx^{ik} for ascending 1-based indices."""
        mask = _indices_to_mask(dim, indices)
        c = np.zeros(1 << dim, dtype=complex)
        c[mask] = coeff
        return cls(dim, c)

    @classmethod
    def from_terms(cls, dim: int, terms: dict) -> "Multiform":
        """Build from a mapping {(i1,..,ik): coefficient} with 1-based indices."""
        c = np.zeros(1 << dim, dtype=complex)
        for indices, coeff in terms.items():
            c[_indices_to_mask(dim, indices)] += coeff
        return cls(dim, c)

    # -- linear structure -----------------------------------------------

    def _check(self, other: "Multiform") -> None:
        if not isinstance(other, Multiform):
            raise TypeError(f"expected Multiform, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Multiform") -> "Multiform":
        self._check(other)
        return Multiform(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multiform") -> "Multiform":
        self._check(other)
        return Multiform(self.dim, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Multiform":
        return Multiform(self.dim, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Multiform":
        return Multiform(self.dim, self.coeffs / complex(scalar))

    # -- algebra ----------------------------------------------------------

    def wedge(self, other: "Multiform") -> "Multiform":
        self._check(other)
        return Multiform(self.dim, wedge_coeffs(self.dim, self.coeffs, other.coeffs))

    def conjugate(self) -> "Multiform":
        return Multiform(self.dim, np.conj(self.coeffs))

    # -- structure queries -------------------------------------------------

    def degree_part(self, k: int) -> "Multiform":
        t = _tables(self.dim)
        return Multiform(self.dim, np.where(t.degree == k, self.coeffs, 0.0))

    def top(self) -> complex:
        """Coefficient of the full top-degree monomial dx^1^...^dx^n."""
        return complex(self.coeffs[-1])

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def is_real(self, tol: float = 1e-12) -> bool:
        return float(np.abs(self.coeffs.imag).max()) <= tol

    def allclose(self, other: "Multiform", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.abs(self.coeffs - other.coeffs).max() <= tol)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for mask in range(1 << self.dim):
            c = self.coeffs[mask]
            if c != 0:
                terms.append(
                    {
                        "indices": [i + 1 for i in _bit_indices(mask)],
                        "re": float(c.real),
                        "im": float(c.imag),
                    }
                )
        return {"dim": self.dim, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multiform":
        if data["dim"] not in (2, 3, 4):  # refused before allocating, and never truncated as int(4.9) would be
            raise ValueError(f"dim must be 2, 3 or 4, got {data['dim']!r}")
        dim = int(data["dim"])
        form = np.zeros(1 << dim, dtype=complex)
        for term in data.get("terms", []):
            mask = _indices_to_mask(dim, term["indices"])
            # summed in Python complex, which overflows to inf without a numpy warning
            value = complex(form[mask]) + complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient of {list(term['indices'])} must be finite, got {value}")
            form[mask] = value
        return cls(dim, form)

    def __repr__(self) -> str:
        parts = []
        for mask in range(1 << self.dim):
            c = self.coeffs[mask]
            if c == 0:
                continue
            label = "^".join(f"dx{i + 1}" for i in _bit_indices(mask)) or "1"
            parts.append(f"({c:.6g})*{label}")
        return "Multiform<" + (" + ".join(parts) if parts else "0") + ">"


def _integer(value, what: str) -> int:
    """value as an int, if it is an integer or an integral float; int() would truncate 1.7 and read True or "2"."""
    if type(value) is not bool and hasattr(value, "__index__") or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _indices_to_mask(dim: int, indices) -> int:
    if not isinstance(indices, (list, tuple)):
        raise ValueError(f"indices must be a list, got {indices!r}")
    mask = 0
    prev = 0
    for i in indices:
        i = _integer(i, "an index")
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range 1..{dim}")
        if i <= prev:
            raise ValueError(f"indices must be strictly ascending, got {list(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


class GcVector:
    """An element X + xi of the complexified sum of tangent and cotangent spaces."""

    __slots__ = ("dim", "vec", "cov")

    def __init__(self, dim: int, vec=None, cov=None):
        if not 2 <= dim <= 4:
            raise ValueError(f"dim must be 2..4, got {dim}")

        def _arr(a):
            if a is None:
                return np.zeros(dim, dtype=complex)
            out = np.array(a, dtype=complex)
            if out.shape != (dim,):
                raise ValueError(f"expected {dim} components, got shape {out.shape}")
            return out

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vec", _frozen(_arr(vec)))
        object.__setattr__(self, "cov", _frozen(_arr(cov)))

    def __setattr__(self, name, value):
        raise AttributeError("GcVector is immutable")

    @classmethod
    def from_array(cls, dim: int, arr) -> "GcVector":
        a = np.asarray(arr, dtype=complex)
        if a.shape != (2 * dim,):
            raise ValueError(f"expected {2 * dim} components, got shape {a.shape}")
        return cls(dim, vec=a[:dim], cov=a[dim:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.vec, self.cov])

    def __repr__(self) -> str:
        return f"GcVector<vec={self.vec}, cov={self.cov}>"


def clifford(v: GcVector, rho: Multiform) -> Multiform:
    """Clifford action (X + xi) . rho = i_X rho + xi ^ rho."""
    if v.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {rho.dim}")
    return Multiform(rho.dim, action_matrix(rho) @ v.as_array())


def action_matrix(rho) -> np.ndarray:
    """(2^n, 2n) matrix whose j-th column is (basis generator j) . rho.

    Generators are ordered d/dx^1..d/dx^n, dx^1..dx^n, matching
    GcVector.as_array().  ``rho`` is a Multiform, or the coefficients
    (2^n, N) of a block of N forms, which give N stacked matrices.
    """
    coeffs = rho.coeffs if isinstance(rho, Multiform) else rho
    # the transposed view keeps the generator axis outermost in memory: it fixes the order of sums in products
    return _action_rows(coeffs, len(coeffs).bit_length() - 1, slice(None)).T


def _action_rows(coeffs: np.ndarray, n: int, gens: slice) -> np.ndarray:
    """Generators ``gens`` (d/dx^i, then dx^i) on forms (2^n, *batch), (k, 2^n, *batch): one gather, signed in place."""
    t = _tables(n)
    rows = np.asarray(coeffs, dtype=complex)[t.action_source.reshape(2 * n, -1)[gens]]
    rows *= t.action_sign.reshape(2 * n, -1)[gens].reshape(rows.shape[:2] + (1,) * (rows.ndim - 2))
    return rows


def interior_coeffs(coeffs: np.ndarray, vec) -> np.ndarray:
    """i_X of forms (2^n, *batch) by vector components (n, *batch), broadcast past the first axis: the d/dx^i rows
    times X^i, summed over i in turn, so that a block gives its per-point values bit for bit."""
    return (_action_rows(coeffs, len(vec), slice(len(vec))) * np.asarray(vec)[:, None]).sum(axis=0)


def exterior_coeffs(coeffs: np.ndarray, cov) -> np.ndarray:
    """xi ^ forms (2^n, *batch) by covector components (n, *batch), the covector twin of ``interior_coeffs``: only the
    degree-1 pairs of ``wedge_coeffs``, with xi_i first as there (complex products round in operand order)."""
    return (np.asarray(cov)[:, None] * _action_rows(coeffs, len(cov), slice(len(cov), None))).sum(axis=0)


def pairing(u: GcVector, v: GcVector) -> complex:
    """Split-signature pairing <X+xi, Y+eta> = (eta(X) + xi(Y)) / 2."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(0.5 * (np.dot(v.cov, u.vec) + np.dot(u.cov, v.vec)))


@lru_cache(maxsize=None)
def pairing_gram(dim: int) -> np.ndarray:
    """Gram matrix of the pairing on the 2n basis generators, built once per dimension (read-only)."""
    g = np.zeros((2 * dim, 2 * dim))
    g[:dim, dim:] = 0.5 * np.eye(dim)
    g[dim:, :dim] = 0.5 * np.eye(dim)
    return _frozen(g)


def _check_exponent(n: int, parts) -> None:
    """Reject exponents with a scalar or odd-degree part in any of the coefficient arrays ``parts``."""
    bad = _tables(n).odd_or_scalar
    if any(np.abs(part[bad]).max() > 0 for part in parts):
        raise ValueError("exp_wedge requires an even-degree form with zero scalar part")


def _pfaffian(c):
    """c12 c34 - c13 c24 + c14 c23, the top coefficient of c^c/2, from rows of arrays or Jet2s of a FormJet."""
    return c[0b0011] * c[0b1100] - c[0b0101] * c[0b1010] + c[0b1001] * c[0b0110]


def exp_wedge_coeffs(b: np.ndarray) -> np.ndarray:
    """Coefficients of exp(b) from b's (2^n, ...), which vanish off the even positive degrees: b^j has
    degree >= 2j, so for n <= 4 the series stops at b^b/2 = Pf(b) vol, nonzero only when n = 4."""
    n = len(b).bit_length() - 1
    _check_exponent(n, (b,))
    out = b.astype(complex)
    out[0] = 1.0
    if n == 4:
        out[-1] += _pfaffian(b)
    return out


def exp_wedge(b: Multiform) -> Multiform:
    """Terminating wedge exponential of an even-degree form with no scalar part."""
    return Multiform(b.dim, exp_wedge_coeffs(b.coeffs))
