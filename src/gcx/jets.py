"""Second-order forward-mode jets for chart calculus.

A jet carries exact values of an array of components together with their
exact first and second partial derivatives at a point (truncated Taylor
arithmetic).  One core implements the rules every jet shares: sums,
scalar multiples, the product rule, and get/set of one component.  The
component shape sets the flavour: ``Jet2`` is a single scalar,
``FormJet`` holds the 2^n coefficients of a mixed exterior form, and a
generator X + xi of T + T* is a plain jet of shape (2n,) in
``GcVector.as_array`` order (vec, then cov).  Closed formulas evaluated
through this arithmetic yield derivatives that are exact to round-off;
finite differences appear only in tests.

``order`` tracks how many derivative levels of a jet are still
trustworthy: exterior differentiation consumes one level (the result's
Hessians would need third derivatives, which are not carried).  Levels
past ``order`` are not computed: a product with an operand of order < 2
carries a zero Hessian.

``FormJet.wedge`` and ``FormJet.d`` run as small dense matmuls over
signed tables built once per dimension (``multilinear._tables``): the
wedge table W[u, s, t] turns one factor into a 2^n x 2^n matrix, and d
is one (2^n, 2^n n) matrix applied to the flattened partials.
"""

import math

import numpy as np

from gcx.multilinear import Multiform, _exp_wedge_series, _tables

__all__ = ["Jet2", "FormJet"]

TWO_PI = 2.0 * math.pi


def _zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=complex)


def _lifted(values) -> tuple:
    """Values with one and with two trailing unit axes, to meet grads and hess."""
    if isinstance(values, np.ndarray):
        return values[..., None], values[..., None, None]
    return values, values


class _Jet:
    """Components of any leading shape with their first and second partials.

    values: shape S, grads: S + (n,) with grads[..., i] the i-th partial,
    hess: S + (n, n), symmetric in the last two axes.  Jets of different
    shapes combine by broadcasting, so a scalar jet acts on every
    component of an array jet.
    """

    __slots__ = ("dim", "values", "grads", "hess", "order")
    __array_ufunc__ = None  # numpy operands defer to the jet's reflected operators

    def __init__(self, dim: int, values, grads=None, hess=None, order: int = 2):
        self.dim = dim
        self.values = values
        self.grads = _zeros(np.shape(values) + (dim,)) if grads is None else grads
        self.hess = _zeros(np.shape(values) + (dim, dim)) if hess is None else hess
        self.order = order

    def _coerce(self, other) -> "_Jet":
        return other if isinstance(other, _Jet) else Jet2(self.dim, other)

    def _check(self, other: "_Jet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other: "_Jet", values, grads, hess) -> "_Jet":
        """A result of self and other, typed after the operand with array components."""
        self._check(other)
        cls = type(self) if isinstance(self.values, np.ndarray) else type(other)
        return cls(self.dim, values, grads, hess, min(self.order, other.order))

    def __add__(self, other):
        o = self._coerce(other)
        return self._combine(o, self.values + o.values, self.grads + o.grads, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._combine(o, self.values - o.values, self.grads - o.grads, self.hess - o.hess)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return self._product(other)
        s = complex(other)
        return type(self)(self.dim, self.values * s, self.grads * s, self.hess * s, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return type(self)(self.dim, self.values / other, self.grads / other, self.hess / other, self.order)

    def _product(self, other: "_Jet") -> "_Jet":
        """Leibniz rule to second order, broadcasting components.

        An operand of order < 2 leaves the untrusted Hessian zero.
        """
        (sv1, sv2), (ov1, ov2) = _lifted(self.values), _lifted(other.values)
        sg, og = self.grads, other.grads
        values, grads = self.values * other.values, sv1 * og + ov1 * sg
        if min(self.order, other.order) < 2:
            return self._combine(other, values, grads, None)
        outer = sg[..., :, None] * og[..., None, :]
        hess = sv2 * other.hess + ov2 * self.hess + outer + outer.swapaxes(-1, -2)
        return self._combine(other, values, grads, hess)

    def __getitem__(self, i) -> "Jet2":
        return Jet2(self.dim, self.values[i], self.grads[i], self.hess[i], self.order)

    def __setitem__(self, i, jet: "Jet2") -> None:
        self.values[i] = jet.values
        self.grads[i] = jet.grads
        self.hess[i] = jet.hess


class Jet2(_Jet):
    """Scalar truncated Taylor value: f, grad f, symmetric hess f."""

    __slots__ = ()

    def __init__(self, n: int, value, grad=None, hess=None, order: int = 2):
        self.dim = n
        self.values = complex(value)
        self.grads = np.zeros(n, dtype=complex) if grad is None else np.asarray(grad, dtype=complex)
        self.hess = (
            np.zeros((n, n), dtype=complex) if hess is None else np.asarray(hess, dtype=complex)
        )
        self.order = order

    @classmethod
    def constant(cls, n: int, value) -> "Jet2":
        return cls(n, value)

    @classmethod
    def coordinate(cls, n: int, i: int, value) -> "Jet2":
        """The i-th coordinate function (1-based) evaluated at ``value``."""
        g = np.zeros(n, dtype=complex)
        g[i - 1] = 1.0
        return cls(n, value, g)

    def __truediv__(self, other):
        if isinstance(other, _Jet):
            return self * other._reciprocal()
        return super().__truediv__(other)

    def __rtruediv__(self, other):
        return self._coerce(other) * self._reciprocal()

    def _chain(self, f0, f1, f2) -> "Jet2":
        """Compose with a 1-d function given f, f', f'' at self.values."""
        outer = np.outer(self.grads, self.grads)
        return Jet2(self.dim, f0, f1 * self.grads, f1 * self.hess + f2 * outer, self.order)

    def _reciprocal(self) -> "Jet2":
        v = self.values
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __pow__(self, k: int):
        if k == 0:
            return Jet2.constant(self.dim, 1.0)
        if k < 0:
            return (self.__pow__(-k))._reciprocal()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def exp(self) -> "Jet2":
        e = np.exp(self.values)
        return self._chain(e, e, e)

    def log(self) -> "Jet2":
        v = self.values
        return self._chain(np.log(v), 1.0 / v, -1.0 / v**2)

    def sqrt(self) -> "Jet2":
        s = np.sqrt(self.values)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.values))

    def sin(self) -> "Jet2":
        v = self.values
        return self._chain(np.sin(v), np.cos(v), -np.sin(v))

    def cos(self) -> "Jet2":
        v = self.values
        return self._chain(np.cos(v), -np.sin(v), -np.cos(v))

    def sin_turn(self) -> "Jet2":
        """sin(2*pi*x): sine with unit period."""
        a = TWO_PI * self.values
        return self._chain(np.sin(a), TWO_PI * np.cos(a), -TWO_PI**2 * np.sin(a))

    def cos_turn(self) -> "Jet2":
        """cos(2*pi*x): cosine with unit period."""
        a = TWO_PI * self.values
        return self._chain(np.cos(a), -TWO_PI * np.sin(a), -TWO_PI**2 * np.cos(a))


class FormJet(_Jet):
    """A Multiform value with per-coefficient first and second partials.

    values: (2^n,), grads: (2^n, n) with grads[s, i] the i-th partial of
    coefficient s, hess: (2^n, n, n) symmetric in the last two axes;
    ``jet[mask]`` is the coefficient of the basis monomial ``mask``.
    ``wedge`` and ``d`` apply the dense signed tables of
    ``multilinear._tables``; ``wedge`` and ``scale`` at order < 2 leave
    the Hessian zero.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, dim: int, order: int = 2) -> "FormJet":
        size = 1 << dim
        return cls(dim, _zeros(size), _zeros((size, dim)), _zeros((size, dim, dim)), order)

    @classmethod
    def constant(cls, form: Multiform, order: int = 2) -> "FormJet":
        return cls(form.dim, form.coeffs.astype(complex), order=order)

    def value(self) -> Multiform:
        return Multiform(self.dim, self.values)

    def _need(self, order: int) -> None:
        if self.order < order:
            raise ValueError(f"jet carries derivatives to order {self.order}, need {order}")

    def is_zero(self) -> bool:
        return not (self.values.any() or self.grads.any() or self.hess.any())

    def scale(self, jet: Jet2) -> "FormJet":
        """Multiply by a scalar jet (product rule)."""
        return self._product(jet)

    def wedge(self, other: "FormJet") -> "FormJet":
        """Product rule through the dense wedge table, as 2^n x 2^n matrices.

        With L_a = a.W and R_b = W.b: values L_a b, grads L_a db + R_b da,
        hess L_a d2b + R_b d2a + C + C^T with C[u, i, j] the sum over s, t
        of W[u, s, t] d_i a_s d_j b_t.
        """
        self._check(other)
        n, order = self.dim, min(self.order, other.order)
        size = 1 << n
        t = _tables(n)
        left = (self.values @ t.wedge_left).reshape(size, size)
        values = left @ other.values
        if order < 1:
            return FormJet(n, values, order=order)
        right = (t.wedge_right @ other.values).reshape(size, size)
        grads = left @ other.grads + right @ self.grads
        if order < 2:
            return FormJet(n, values, grads, order=order)
        cross = self.grads.T @ (t.wedge_right @ other.grads).reshape(size, size, n)
        flat = (size, n * n)
        hess = left @ other.hess.reshape(flat) + right @ self.hess.reshape(flat)
        hess = hess.reshape(size, n, n)
        return FormJet(n, values, grads, hess + cross + cross.swapaxes(1, 2), order)

    def d(self) -> "FormJet":
        """Exterior derivative, one matmul per level; consumes one derivative level."""
        self._need(1)
        n = self.dim
        d_matrix = _tables(n).d_matrix
        values = d_matrix @ self.grads.reshape(-1)
        grads = d_matrix @ self.hess.reshape(-1, n) if self.order >= 2 else None
        return FormJet(n, values, grads, order=self.order - 1)

    def exp_wedge(self) -> "FormJet":
        """Terminating wedge exponential (even degrees, no scalar part)."""
        one = FormJet.constant(Multiform.scalar(self.dim, 1.0), self.order)
        return _exp_wedge_series(self, one, (self.values, self.grads))

    def interior_jet(self, xv: np.ndarray, xg: np.ndarray, xh: np.ndarray) -> "FormJet":
        """Contraction with a jet tangent vector (xv (n,), xg[i,j]=d_j X_i, xh)."""
        act = _tables(self.dim).action[: self.dim]
        av = np.einsum("ius,s->iu", act, self.values)
        ag = np.einsum("ius,sj->iuj", act, self.grads)
        ah = np.einsum("ius,sjk->iujk", act, self.hess)
        values = np.einsum("i,iu->u", xv, av)
        grads = np.einsum("ij,iu->uj", xg, av) + np.einsum("i,iuj->uj", xv, ag)
        hess = (
            np.einsum("ijk,iu->ujk", xh, av)
            + np.einsum("ij,iuk->ujk", xg, ag)
            + np.einsum("ik,iuj->ujk", xg, ag)
            + np.einsum("i,iujk->ujk", xv, ah)
        )
        return FormJet(self.dim, values, grads, hess, self.order)
