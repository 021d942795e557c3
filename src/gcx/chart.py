"""Calculus on coordinate charts.

Fields are callables from a ChartPoint to a jet of what the field
carries: exact values and first partials, or values alone for a field
that is a d, such as H = d(Btilde).  A form field gives a FormJet, a
generator field a jet of shape (2n,), vector part then covector part.
The operations here -- H-twisted Courant bracket, pullback along chart
maps, and the integrability residual -- consume those jets; d(alpha) at
p is ``alpha(p).d().value()``.  A map is evaluated to first order, and
a pullback through it is a sum of coefficient arrays, values alone.
Periodic coordinates are angles of unit period and reduce modulo 1.  A
ChartPoint with n coordinate arrays of length N is a block of N
points, which fields, maps, pullbacks, brackets and integrability residuals
evaluate in one pass (see gcx.jets).  Fields from JSON expressions compile
their trees at construction, validation included, with constants folded
(see gcx.expressions).
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from gcx import expressions
from gcx.jets import FormJet, Jet2, _Jet
from gcx.multilinear import GcVector, Multiform, action_matrix, exterior_coeffs, interior_coeffs, wedge_coeffs
from gcx.spinor import DEFAULT_TOL, _pure, min_norm_solve

__all__ = [
    "ChartPoint",
    "ChartMap",
    "MapJet",
    "FormField",
    "GcField",
    "IntegrabilityWitness",
    "pullback",
    "pullback_jet",
    "courant_bracket",
    "integrability_residual",
    "e_b_transform",
]


def _coordinate(c, periodic: bool):
    """A float, or a float array for a block; periodic coordinates reduce to [0, 1)."""
    c = c.astype(float) if isinstance(c, np.ndarray) and c.ndim else float(c)
    return c % 1.0 if periodic else c


@dataclass(frozen=True)
class ChartPoint:
    """A point of a named chart, or a block of points; periodic coordinates are reduced to [0, 1)."""

    chart: str
    coords: tuple
    periodic: tuple = ()

    def __post_init__(self):
        per = tuple(map(bool, self.periodic)) or (False,) * len(self.coords)
        if len(per) != len(self.coords):
            raise ValueError("periodic mask length must match coordinate count")
        reduced = tuple(map(_coordinate, self.coords, per))
        object.__setattr__(self, "coords", reduced)
        object.__setattr__(self, "periodic", per)

    def array(self) -> np.ndarray:
        return np.array(self.coords)

    def with_coords(self, coords) -> "ChartPoint":
        return ChartPoint(self.chart, tuple(coords), self.periodic)


@dataclass(frozen=True)
class ChartMap:
    """A chart-to-chart map with exact first derivatives.

    ``jet_fn`` evaluates the forward map in Jet2 arithmetic on coordinate
    jets; the Jacobian is read off the outputs.  ``target_periodic`` is the
    image's periodic mask; an empty one means no coordinate is periodic.
    ``domain`` maps coordinates to a bool, elementwise over a block.
    """

    source: str
    target: str
    dim: int
    jet_fn: Callable
    target_periodic: tuple = ()
    domain: Optional[Callable] = None

    def _guard(self, coords: np.ndarray) -> None:
        inside = np.asarray(True if self.domain is None else self.domain(coords))
        if not inside.all():
            bad = tuple((coords if coords.ndim == 1 else coords[:, np.argmin(inside)]).tolist())
            raise ValueError(f"point {bad} outside the domain of map {self.source}->{self.target}")

    def jets(self, coords: np.ndarray):
        """(y, J): image and Jacobian J[t, i].

        A block has coords and y (n, N), and one J per point: (N, n, n).
        An output that is a number, or a jet without the block axis, is constant over the block.
        """
        coords = np.asarray(coords, dtype=float)
        self._guard(coords)
        ins = expressions.coordinate_jets(self.dim, coords)
        batch = coords.shape[1:]
        zero = Jet2.constant(self.dim, np.zeros(batch))
        outs = [o if isinstance(o, Jet2) and np.shape(o.values) == batch else zero + o for o in self.jet_fn(ins)]
        if max(np.abs(np.imag(o.values)).max() for o in outs) > 1e-12:
            raise RuntimeError("chart map produced a non-real coordinate")
        y = np.array([o.values.real for o in outs])
        jac = np.stack([o.grads.real for o in outs], axis=-2)
        return y, jac

    def at(self, p: ChartPoint) -> "MapJet":
        """Evaluate the map once at p, for every pullback through it."""
        if p.chart != self.source:
            raise ValueError(f"point is on chart {p.chart!r}, map expects {self.source!r}")
        y, jac = self.jets(p.array())
        return MapJet(ChartPoint(self.target, tuple(y), self.target_periodic), jac)


class MapJet:
    """A chart map evaluated at one point or at a block of points.

    ``image`` is the image point and ``jac[..., t, i]`` the first
    derivatives of the map's components there.  The pulled-back basis
    forms are (2^n, *batch) arrays, built on first use from Jacobian rows by
    ``exterior_coeffs`` and shared by every form pulled back through it.
    """

    def __init__(self, image: ChartPoint, jac: np.ndarray):
        self.image, self.jac = image, jac
        n, batch = jac.shape[-1], jac.shape[:-2]
        self._basis = {0: np.zeros((1 << n, *batch), dtype=complex)}
        self._basis[0][0] = 1.0
        for t in range(n):  # the pulled-back basis one-forms d(phi^t)
            self._basis[1 << t] = np.zeros_like(self._basis[0])
            self._basis[1 << t][_one_forms(n)] = jac[..., t, :].T

    def basis(self, mask: int) -> np.ndarray:
        """The coefficients of the pullback of the basis monomial ``mask``."""
        if mask not in self._basis:
            low = mask & -mask
            self._basis[mask] = exterior_coeffs(self.basis(mask ^ low), self.jac[..., low.bit_length() - 1, :].T)
        return self._basis[mask]

    def pull(self, coeffs: np.ndarray) -> np.ndarray:
        """Pull back image coefficients (2^n, *batch): basis(mask) * coeffs[mask] summed over ascending masks."""
        out = np.zeros_like(self._basis[0])
        for mask in np.flatnonzero(coeffs.reshape(len(out), -1).any(axis=1)).tolist():
            out += self.basis(mask) * coeffs[mask]
        return out


@dataclass(frozen=True)
class _Field:
    """A field on a named chart (any chart if empty).

    ``fn(coords)`` maps coordinates to a jet of what the field carries.
    """

    chart: str
    dim: int
    fn: Callable = field(repr=False)

    def __call__(self, p: ChartPoint):
        if self.chart and p.chart != self.chart:
            raise ValueError(f"field lives on chart {self.chart!r}, got point on {p.chart!r}")
        return self.fn(p.array())


@dataclass(frozen=True)
class FormField(_Field):
    """A Multiform-valued field: point -> FormJet."""

    @classmethod
    def from_expressions(cls, chart: str, dim: int, terms: list) -> "FormField":
        return cls(chart, dim, expressions.compile_form(dim, terms))


@dataclass(frozen=True)
class GcField(_Field):
    """A generator field of T + T*: point -> jet of shape (2n,), vec then cov."""

    @classmethod
    def from_expressions(cls, chart: str, dim: int, vec_exprs: list, cov_exprs: list) -> "GcField":
        return cls(chart, dim, expressions.compile_generator(dim, vec_exprs, cov_exprs))


@dataclass(frozen=True)
class IntegrabilityWitness:
    """Least-squares witness for d rho + H ^ rho = v . rho at a point.

    At a block of N points, v is the (2n, N) array of generator components and residual (N,).
    action_matrix is rho's Clifford action matrix, u -> u . rho, (2^n, 2n) or (N, 2^n, 2n) at a block.
    """

    v: GcVector
    residual: float
    action_matrix: np.ndarray


def pullback_jet(at: MapJet, alpha: FormField) -> FormJet:
    """Values of the pullback of alpha through a map evaluation, as a jet of values alone.

    d of a pullback is the pullback of d (naturality): pull back the
    field whose values are d(alpha).
    """
    return FormJet(at.jac.shape[-1], at.pull(alpha(at.image).values))


def pullback(phi: ChartMap, alpha: FormField, p: ChartPoint) -> Multiform:
    """(phi^* alpha) at p."""
    return pullback_jet(phi.at(p), alpha).value()


def _one_forms(n: int) -> list:
    """Masks of the basis one-forms dx^1, ..., dx^n."""
    return [1 << i for i in range(n)]


def courant_bracket(u: GcField, v: GcField, h: Optional[FormField], p: ChartPoint):
    """H-twisted Courant bracket of two generator fields at a point, or at a block of points.

    [X+xi, Y+eta]_H = [X,Y] + L_X eta - L_Y xi - d(eta(X) - xi(Y))/2 + i_Y i_X H
                    = [X,Y] + i_X d eta - i_Y d xi + d(eta(X) - xi(Y))/2 + i_Y i_X H,
    the Lie derivatives expanded through the Cartan formula.  A point
    gives a GcVector; a block of N points gives its (2n, N) components,
    vec then cov, as ``integrability_residual`` does.
    """
    uj, vj = u(p), v(p)
    if uj.grads is None or vj.grads is None:
        raise ValueError("courant_bracket needs the first partials of both generator fields; got values alone")
    n, one_forms = uj.dim, _one_forms(uj.dim)
    # vector and covector slices: values (n, *batch), grads (n, *batch, n)
    xv, xg, xi, xig = uj.values[:n], uj.grads[:n], uj.values[n:], uj.grads[n:]
    yv, yg, eta, etag = vj.values[:n], vj.grads[:n], vj.values[n:], vj.grads[n:]

    def i_d(wv, cg) -> np.ndarray:
        """i_W d(c), where d(c) needs c's first partials only."""
        c_form = FormJet.zero(n, np.shape(wv)[1:])
        c_form.grads[one_forms] = cg
        return interior_coeffs(c_form.d().values, wv)[one_forms]

    def d_pair(wv, wg, cv, cg) -> np.ndarray:
        """d(c(W)) by the product rule."""
        return np.einsum("i...j,i...->j...", wg, cv) + np.einsum("i...,i...j->j...", wv, cg)

    vec = np.einsum("i...,j...i->j...", xv, yg) - np.einsum("i...,j...i->j...", yv, xg)
    cov = i_d(xv, etag) - i_d(yv, xig) + 0.5 * (d_pair(xv, xg, eta, etag) - d_pair(yv, yg, xi, xig))
    if h is not None:
        cov = cov + interior_coeffs(interior_coeffs(h(p).values, xv), yv)[one_forms]
    return np.concatenate([vec, cov]) if uj.values.ndim > 1 else GcVector(n, vec=vec, cov=cov)


def integrability_residual(rho: FormField, h: Optional[FormField], p: ChartPoint) -> IntegrabilityWitness:
    """Least-squares minimizer of |d rho + H ^ rho - v . rho| over v.

    A residual at round-off level certifies pointwise integrability of
    the spinor line generated by rho.  For a pure rho the action
    A: u -> u . rho is |rho| times a partial isometry (iota_i and dx^i ^
    are adjoints, and the kernel, the annihilator, has dimension n), so
    the minimal-norm v is A^H b / |rho|^2, with no rank decision.  That
    serves the columns ``spinor._pure`` accepts.  The others, and every
    column for n > 4, where ``_pure`` is no purity test, take one
    ``spinor.min_norm_solve`` on the action rows nonzero somewhere among
    them (the odd rows of an even spinor), cut off as numpy lstsq would
    the whole matrix.
    """
    jet = rho(p)
    val = jet.values
    if (np.abs(val).max(axis=0) <= 1e-12).any():
        raise ValueError("spinor vanishes here; evaluate off the zero locus")
    n, target = jet.dim, jet.d().values
    del jet  # the partials are not held through the solve
    if h is not None:
        target = target + wedge_coeffs(n, h(p).values, val)
    mat = action_matrix(val)
    mats, cols = mat.reshape(-1, *mat.shape[-2:]), target.reshape(len(target), -1).T  # (N, 2^n, 2n), (N, 2^n)
    # both sums take the coefficients in turn (a C-order product summed over its middle axis, and accumulate),
    # so that a block gives its per-point values bit for bit
    prod = np.conj(mats, order="C")
    prod *= cols[..., None]
    sol = prod.sum(axis=1) / np.add.accumulate(np.abs(val) ** 2).reshape(len(val), -1)[-1][:, None]
    rest = ~_pure(val.reshape(len(val), -1), DEFAULT_TOL) if n <= 4 else np.ones(len(mats), bool)
    if rest.any():
        sub = mats[rest]
        rows = np.flatnonzero(sub.any(axis=(0, 2)))
        sol[rest] = min_norm_solve(sub[:, rows], cols[rest][:, rows], np.finfo(float).eps * max(mat.shape[-2:]))
    sol = sol.reshape(*val.shape[1:], -1)
    residual = np.linalg.norm((mat @ sol[..., None])[..., 0] - target.T, axis=-1)
    if val.ndim > 1:
        return IntegrabilityWitness(sol.T, residual, mat)
    return IntegrabilityWitness(GcVector.from_array(n, sol), float(residual), mat)


def e_b_transform(b: FormField, u: GcField) -> GcField:
    """The generator-field transform X + xi -> X + xi + i_X B.

    The contraction convention is (i_X B)(Y) = B(X, Y), matching the
    interior product used by the Clifford action.
    """
    if b.dim != u.dim:
        raise ValueError(f"dimension mismatch: {b.dim} vs {u.dim}")

    n = u.dim
    one_forms = _one_forms(n)

    def fn(coords: np.ndarray) -> _Jet:
        uj = u.fn(coords)
        cov = uj[n:] + b.fn(coords).interior_jet(uj.values[:n], uj.grads[:n])[one_forms]
        return _Jet(n, np.concatenate([uj.values[:n], cov.values]), np.concatenate([uj.grads[:n], cov.grads]))

    return GcField(u.chart, u.dim, fn)
