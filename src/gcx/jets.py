"""Second-order forward-mode jets for chart calculus.

A jet carries an exact value together with exact first and second partial
derivatives at a point.  ``Jet2`` is the scalar flavour (truncated Taylor
arithmetic); ``FormJet`` and ``GcVectorJet`` batch jets over the
coefficients of a mixed exterior form or a generator of T + T*.  Closed
formulas evaluated through this arithmetic yield derivatives that are
exact to round-off; finite differences appear only in tests.

``order`` tracks how many derivative levels of a batched jet are still
trustworthy: exterior differentiation consumes one level (the result's
Hessians would need third derivatives, which are not carried).
"""

import math
from dataclasses import dataclass

import numpy as np

from gcx.multilinear import GcVector, Multiform, _tables

__all__ = ["Jet2", "FormJet", "GcVectorJet"]

TWO_PI = 2.0 * math.pi


class Jet2:
    """Scalar truncated Taylor value: f, grad f, symmetric hess f."""

    __slots__ = ("n", "value", "grad", "hess")

    def __init__(self, n: int, value, grad=None, hess=None):
        self.n = n
        self.value = complex(value)
        self.grad = np.zeros(n, dtype=complex) if grad is None else np.asarray(grad, dtype=complex)
        self.hess = (
            np.zeros((n, n), dtype=complex) if hess is None else np.asarray(hess, dtype=complex)
        )

    @classmethod
    def constant(cls, n: int, value) -> "Jet2":
        return cls(n, value)

    @classmethod
    def coordinate(cls, n: int, i: int, value) -> "Jet2":
        """The i-th coordinate function (1-based) evaluated at ``value``."""
        g = np.zeros(n, dtype=complex)
        g[i - 1] = 1.0
        return cls(n, value, g)

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2(self.n, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.n, self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.n, -self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        outer = np.outer(self.grad, o.grad)
        return Jet2(
            self.n,
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + outer + outer.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._reciprocal()

    def _chain(self, f0, f1, f2) -> "Jet2":
        """Compose with a 1-d function given f, f', f'' at self.value."""
        outer = np.outer(self.grad, self.grad)
        return Jet2(self.n, f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def _reciprocal(self) -> "Jet2":
        v = self.value
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return Jet2.constant(self.n, 1.0)
            if k < 0:
                return (self.__pow__(-k))._reciprocal()
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        v = self.value
        return self._chain(v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        return self._chain(e, e, e)

    def log(self) -> "Jet2":
        v = self.value
        return self._chain(np.log(v), 1.0 / v, -1.0 / v**2)

    def sqrt(self) -> "Jet2":
        s = np.sqrt(self.value)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.value))

    def sin(self) -> "Jet2":
        v = self.value
        return self._chain(np.sin(v), np.cos(v), -np.sin(v))

    def cos(self) -> "Jet2":
        v = self.value
        return self._chain(np.cos(v), -np.sin(v), -np.cos(v))

    def sin_turn(self) -> "Jet2":
        """sin(2*pi*x): sine with unit period."""
        a = TWO_PI * self.value
        return self._chain(np.sin(a), TWO_PI * np.cos(a), -TWO_PI**2 * np.sin(a))

    def cos_turn(self) -> "Jet2":
        """cos(2*pi*x): cosine with unit period."""
        a = TWO_PI * self.value
        return self._chain(np.cos(a), -TWO_PI * np.sin(a), -TWO_PI**2 * np.cos(a))


def _zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=complex)


@dataclass
class FormJet:
    """A Multiform value with per-coefficient first and second partials.

    values: (2^n,), grads: (2^n, n) with grads[s, i] the i-th partial of
    coefficient s, hess: (2^n, n, n) symmetric in the last two axes.
    """

    dim: int
    values: np.ndarray
    grads: np.ndarray
    hess: np.ndarray
    order: int = 2

    @classmethod
    def zero(cls, dim: int, order: int = 2) -> "FormJet":
        size = 1 << dim
        return cls(dim, _zeros(size), _zeros((size, dim)), _zeros((size, dim, dim)), order)

    @classmethod
    def constant(cls, form: Multiform, order: int = 2) -> "FormJet":
        out = cls.zero(form.dim, order)
        out.values = form.coeffs.astype(complex)
        return out

    @classmethod
    def from_coefficients(cls, dim: int, coeffs: dict) -> "FormJet":
        """Build from {bitmask: Jet2} entries."""
        out = cls.zero(dim)
        for mask, jet in coeffs.items():
            out.values[mask] = jet.value
            out.grads[mask] = jet.grad
            out.hess[mask] = jet.hess
        return out

    def coefficient(self, mask: int) -> Jet2:
        return Jet2(self.dim, self.values[mask], self.grads[mask], self.hess[mask])

    def value(self) -> Multiform:
        return Multiform(self.dim, self.values)

    def partial(self, i: int) -> Multiform:
        """Multiform of i-th partials (0-based i); needs order >= 1."""
        self._need(1)
        return Multiform(self.dim, self.grads[:, i])

    def _need(self, order: int) -> None:
        if self.order < order:
            raise ValueError(f"jet carries derivatives to order {self.order}, need {order}")

    def _check(self, other: "FormJet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "FormJet") -> "FormJet":
        self._check(other)
        return FormJet(
            self.dim,
            self.values + other.values,
            self.grads + other.grads,
            self.hess + other.hess,
            min(self.order, other.order),
        )

    def __sub__(self, other: "FormJet") -> "FormJet":
        self._check(other)
        return FormJet(
            self.dim,
            self.values - other.values,
            self.grads - other.grads,
            self.hess - other.hess,
            min(self.order, other.order),
        )

    def __mul__(self, scalar) -> "FormJet":
        s = complex(scalar)
        return FormJet(self.dim, self.values * s, self.grads * s, self.hess * s, self.order)

    __rmul__ = __mul__

    def scale(self, jet: Jet2) -> "FormJet":
        """Multiply by a scalar jet (product rule)."""
        outer = self.grads[:, :, None] * jet.grad[None, None, :]
        return FormJet(
            self.dim,
            self.values * jet.value,
            self.values[:, None] * jet.grad[None, :] + jet.value * self.grads,
            self.values[:, None, None] * jet.hess[None]
            + jet.value * self.hess
            + outer
            + outer.transpose(0, 2, 1),
            self.order,
        )

    def wedge(self, other: "FormJet") -> "FormJet":
        self._check(other)
        order = min(self.order, other.order)
        t = _tables(self.dim)
        s1, s2, dst, sgn = t.w_src1, t.w_src2, t.w_dst, t.w_sign
        av, bv = self.values[s1], other.values[s2]
        out = FormJet.zero(self.dim, order)
        np.add.at(out.values, dst, sgn * av * bv)
        if order >= 1:
            term = sgn[:, None] * (av[:, None] * other.grads[s2] + bv[:, None] * self.grads[s1])
            np.add.at(out.grads, dst, term)
        if order >= 2:
            outer = self.grads[s1][:, :, None] * other.grads[s2][:, None, :]
            term = sgn[:, None, None] * (
                av[:, None, None] * other.hess[s2]
                + bv[:, None, None] * self.hess[s1]
                + outer
                + outer.transpose(0, 2, 1)
            )
            np.add.at(out.hess, dst, term)
        return out

    def d(self) -> "FormJet":
        """Exterior derivative; consumes one derivative level."""
        self._need(1)
        wedge_act = _tables(self.dim).action[self.dim :]
        out = FormJet.zero(self.dim, self.order - 1)
        out.values = np.einsum("ius,si->u", wedge_act, self.grads)
        if self.order >= 2:
            out.grads = np.einsum("ius,sij->uj", wedge_act, self.hess)
        return out

    def exp_wedge(self) -> "FormJet":
        """Terminating wedge exponential (even degrees, no scalar part)."""
        t = _tables(self.dim)
        bad = (t.degree == 0) | (t.degree % 2 == 1)
        if np.abs(self.values[bad]).max() > 0 or np.abs(self.grads[bad]).max() > 0:
            raise ValueError("exp_wedge requires an even-degree form with zero scalar part")
        out = FormJet.constant(Multiform.scalar(self.dim, 1.0), self.order)
        power = out
        factorial = 1.0
        for j in range(1, self.dim + 1):
            power = power.wedge(self)
            factorial *= j
            if np.abs(power.values).max() == 0 and np.abs(power.grads).max() == 0:
                break
            out = out + power * (1.0 / factorial)
        return out

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


@dataclass
class GcVectorJet:
    """A generator X + xi of T + T* with exact first and second partials.

    Component layouts mirror FormJet: *_grads[c, i] is the i-th partial of
    component c.
    """

    dim: int
    vec_values: np.ndarray
    vec_grads: np.ndarray
    vec_hess: np.ndarray
    cov_values: np.ndarray
    cov_grads: np.ndarray
    cov_hess: np.ndarray
    order: int = 2

    @classmethod
    def zero(cls, dim: int, order: int = 2) -> "GcVectorJet":
        return cls(
            dim,
            _zeros(dim),
            _zeros((dim, dim)),
            _zeros((dim, dim, dim)),
            _zeros(dim),
            _zeros((dim, dim)),
            _zeros((dim, dim, dim)),
            order,
        )

    @classmethod
    def constant(cls, v: GcVector, order: int = 2) -> "GcVectorJet":
        out = cls.zero(v.dim, order)
        out.vec_values = v.vec.astype(complex)
        out.cov_values = v.cov.astype(complex)
        return out

    @classmethod
    def from_components(cls, dim: int, vec_jets, cov_jets) -> "GcVectorJet":
        out = cls.zero(dim)
        for c, jet in enumerate(vec_jets):
            out.vec_values[c] = jet.value
            out.vec_grads[c] = jet.grad
            out.vec_hess[c] = jet.hess
        for c, jet in enumerate(cov_jets):
            out.cov_values[c] = jet.value
            out.cov_grads[c] = jet.grad
            out.cov_hess[c] = jet.hess
        return out

    def value(self) -> GcVector:
        return GcVector(self.dim, self.vec_values, self.cov_values)

    def cov_form(self) -> FormJet:
        """The covector part as a degree-1 FormJet."""
        out = FormJet.zero(self.dim, self.order)
        for i in range(self.dim):
            mask = 1 << i
            out.values[mask] = self.cov_values[i]
            out.grads[mask] = self.cov_grads[i]
            out.hess[mask] = self.cov_hess[i]
        return out

    def with_cov_form(self, cov: FormJet) -> "GcVectorJet":
        """Replace the covector part from a degree-1 FormJet."""
        out = GcVectorJet.zero(self.dim, min(self.order, cov.order))
        out.vec_values = self.vec_values.copy()
        out.vec_grads = self.vec_grads.copy()
        out.vec_hess = self.vec_hess.copy()
        for i in range(self.dim):
            mask = 1 << i
            out.cov_values[i] = cov.values[mask]
            out.cov_grads[i] = cov.grads[mask]
            out.cov_hess[i] = cov.hess[mask]
        return out
