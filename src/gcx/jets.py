"""Forward-mode jets, to first order, for chart calculus.

A jet carries exact values of an array of components together with their
exact first partial derivatives at a point (truncated Taylor
arithmetic).  One core implements the rules every jet
shares: sums, scalar multiples, the product rule, and get/set of one
component.  The component shape sets the flavour: ``Jet2`` is a single
scalar, ``FormJet`` holds the 2^n coefficients of a mixed exterior
form, and a generator X + xi of T + T* is a plain jet of shape (2n,) in
``GcVector.as_array`` order (vec, then cov).  Closed formulas evaluated
through this arithmetic yield derivatives that are exact to round-off;
finite differences appear only in tests.

A jet may hold a block of N points, the sample axis after the component
axes: a ``Jet2`` has values (N,), a ``FormJet`` values (2^n, N) and
grads (2^n, N, n).  The per-point shapes are the N-less case.

A jet whose ``grads`` is None carries values alone, as the result of d
(which consumes the partials) and of a pullback do.  No rule propagates
one: ``d``, ``interior_jet`` and component writes refuse it with a
ValueError, and the other rules fail on the absent partials.  A
constant is a jet with zero partials (``constant``, which reads a
number's shape as () without making an array of it).  Rule results
enter ``Jet2`` without a second cast: complex128 values and partials
are kept as they are, and anything else is cast to complex.

``FormJet.wedge`` is ``multilinear.wedge_coeffs`` on values and
partials (the product rule), ``FormJet.exp_wedge`` is the closed form
1 + b + Pf(b) vol evaluated in ``Jet2`` arithmetic, and ``FormJet.d``
gathers the wedge rows of the Clifford action (dx^i ^) from the
partials d_i, times their signs, and sums over i.
"""

import numpy as np

from gcx.multilinear import Multiform, _check_exponent, _pfaffian, _tables, interior_coeffs, wedge_coeffs

__all__ = ["Jet2", "FormJet"]


def _lifted(values):
    """Values with a trailing unit axis, to meet grads."""
    return values[..., None] if isinstance(values, np.ndarray) else values


class _Jet:
    """Components of any leading shape with their first partials.

    values: shape S, grads: S + (n,) with grads[..., i] the i-th partial (None: values alone).
    Jets of different shapes combine by broadcasting, so a scalar jet
    acts on every component of an array jet.
    """

    __slots__ = ("dim", "values", "grads")
    __array_ufunc__ = None  # numpy operands defer to the jet's reflected operators

    def __init__(self, dim: int, values, grads=None):
        self.dim, self.values, self.grads = dim, values, grads

    @classmethod
    def constant(cls, dim: int, values) -> "_Jet":
        """Components that do not vary: the values with zero partials."""
        shape = values.shape if isinstance(values, np.ndarray) else ()  # np.shape would make an array of a number
        return cls(dim, values, np.zeros(shape + (dim,), dtype=complex))

    def _coerce(self, other) -> "_Jet":
        return other if isinstance(other, _Jet) else Jet2.constant(self.dim, other)

    def _check(self, other: "_Jet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other: "_Jet", values, grads) -> "_Jet":
        """A result of self and other, typed after the operand that is not a scalar Jet2."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return (type(other) if type(self) is Jet2 else type(self))(self.dim, values, grads)

    def __add__(self, other):
        o = self._coerce(other)
        return self._combine(o, self.values + o.values, self.grads + o.grads)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._combine(o, self.values - o.values, self.grads - o.grads)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return self._product(other)
        s = complex(other)
        return type(self)(self.dim, self.values * s, self.grads * s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Jet):  # a scalar jet: times its power -1
            return self * other**-1
        return type(self)(self.dim, self.values / other, self.grads / other)

    def _product(self, other: "_Jet") -> "_Jet":
        """Leibniz rule, broadcasting components."""
        values = self.values * other.values
        grads = _lifted(self.values) * other.grads + _lifted(other.values) * self.grads
        return self._combine(other, values, grads)

    def __getitem__(self, i) -> "Jet2":
        return Jet2(self.dim, self.values[i], self.grads[i])

    def __setitem__(self, i, jet: "Jet2") -> None:
        """Write one component's values and partials."""
        if jet.grads is None:  # numpy would store the None as NaN partials
            raise ValueError("a component write needs the first partials; the jet carries values alone")
        self.values[i] = jet.values
        self.grads[i] = jet.grads


class Jet2(_Jet):
    """Scalar truncated Taylor value: f and grad f (each per point of a block)."""

    __slots__ = ()

    def __init__(self, n: int, value, grad=None):
        if isinstance(value, np.ndarray) and value.ndim:
            if value.dtype.type is not np.complex128:
                value = value.astype(complex, copy=False)
        elif type(value) is not np.complex128:
            value = np.complex128(value)
        if grad is not None and not (type(grad) is np.ndarray and grad.dtype.type is np.complex128):
            grad = np.asarray(grad, dtype=complex)
        self.dim, self.values, self.grads = n, value, grad

    @classmethod
    def coordinate(cls, n: int, i: int, value) -> "Jet2":
        """The i-th coordinate function (1-based) evaluated at ``value`` (a number or a block)."""
        g = np.zeros(getattr(value, "shape", ()) + (n,), complex)
        g[..., i - 1] = 1.0
        return cls(n, value, g)

    def __rtruediv__(self, other):
        return self._coerce(other) * self**-1

    def _chain(self, f0, f1) -> "Jet2":
        """Compose with a 1-d function given f and f' at self.values."""
        return Jet2(self.dim, f0, _lifted(f1) * self.grads)

    def __pow__(self, k: int):
        if k == 0:  # the constant 1, at every point of a block
            return Jet2.constant(self.dim, np.ones(np.shape(self.values)))
        v = self.values
        return self._chain(v**k, k * v ** (k - 1))

    def exp(self) -> "Jet2":
        e = np.exp(self.values)
        return self._chain(e, e)

    def log(self) -> "Jet2":
        v = self.values
        return self._chain(np.log(v), 1.0 / v)

    def sqrt(self) -> "Jet2":
        s = np.sqrt(self.values)
        return self._chain(s, 0.5 / s)

    def sin(self) -> "Jet2":
        v = self.values
        return self._chain(np.sin(v), np.cos(v))

    def cos(self) -> "Jet2":
        v = self.values
        return self._chain(np.cos(v), -np.sin(v))


class FormJet(_Jet):
    """A Multiform value with per-coefficient first partials.

    values: (2^n,), grads: (2^n, n) with grads[s, i] the i-th partial of
    coefficient s; a block of N points has (2^n, N) and (2^n, N, n).
    ``jet[mask]`` is the coefficient of the basis monomial ``mask``.
    ``wedge``, ``d`` and ``interior_jet`` are signed gathers through ``multilinear._tables``.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, dim: int, batch: tuple = ()) -> "FormJet":
        """The zero form at one point, or at each of a block of points (batch = (N,))."""
        return cls.constant(dim, np.zeros((1 << dim, *batch), dtype=complex))

    def value(self) -> Multiform:
        return Multiform(self.dim, self.values)

    def scale(self, jet: Jet2) -> "FormJet":
        """Multiply by a scalar jet (product rule)."""
        return self._product(jet)

    def wedge(self, other: "FormJet") -> "FormJet":
        """Product rule through ``wedge_coeffs``: values a ^ b, partials a ^ db + da ^ b."""
        self._check(other)
        n = self.dim
        values = wedge_coeffs(n, self.values, other.values)
        grads = wedge_coeffs(n, _lifted(self.values), other.grads) + wedge_coeffs(n, self.grads, _lifted(other.values))
        return FormJet(n, values, grads)

    def d(self) -> "FormJet":
        """Exterior derivative sum_i dx^i ^ d_i rho, which consumes the partials: the result has values alone."""
        if self.grads is None:
            raise ValueError("d needs the first partials; the jet carries values alone")
        n = self.dim
        t = _tables(n)
        # the action's rows of dx^1..dx^n give [i, u] = +-(d_i rho) at u ^ bit i: a signed gather, signed
        # in place and summed over i (no BLAS at any block size)
        source = t.action_source[n << n :].reshape(n, -1)
        terms = np.asarray(self.grads, dtype=complex)[source, ..., np.arange(n)[:, None]]
        terms *= t.action_sign[n << n :].reshape((n, -1) + (1,) * (self.values.ndim - 1))
        return FormJet(n, terms.sum(axis=0))

    def exp_wedge(self) -> "FormJet":
        """Terminating wedge exponential (even degrees, no scalar part): ``exp_wedge_coeffs`` in jet arithmetic."""
        _check_exponent(self.dim, (self.values, self.grads))
        out = FormJet(self.dim, self.values.astype(complex), self.grads.astype(complex))
        out.values[0] = 1.0
        if self.dim == 4:
            out[-1] = out[-1] + _pfaffian(self)
        return out

    def interior_jet(self, xv: np.ndarray, xg: np.ndarray) -> "FormJet":
        """Contraction with a jet tangent vector, xv (n, *batch) and xg[i, ..., j] = d_j X_i (product rule)."""
        if self.grads is None:
            raise ValueError("interior_jet needs the first partials; the jet carries values alone")
        values = interior_coeffs(self.values, xv)
        grads = interior_coeffs(_lifted(self.values), xg) + interior_coeffs(self.grads, _lifted(xv))
        return FormJet(self.dim, values, grads)
