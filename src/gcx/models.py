"""Closed-form geometric models for the type-change and surgery checks.

Charts (all 4-dimensional, angles of unit period):

* ``cplane``   -- (x1, y1, x2, y2) = R^4 viewed as C^2 via z1 = x1 + i y1,
  z2 = x2 + i y2; carries the type-changing spinor z1 + dz1^dz2.
* ``annulus``  -- (r, theta1, theta2, theta3), the punctured-disc-times-
  torus chart with the log-polar 2-forms B and omega.
* ``quotient`` -- (r', theta1', theta2', theta3'), the Z_m quotient chart
  with rescaled forms B', omega'.
* ``tube``     -- (rt, t1, t2, t3), the Weinstein tube with symplectic
  form sigma = rt drt^dt1 + dt2^dt3, the bump extension Btilde and its
  3-form H = d(Btilde).

Every field here is a closed-form evaluator with exact values and
exact first partials, except H, which is a d and carries values alone
(see gcx.chart); r_min guards keep the log terms finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from gcx.chart import ChartMap, FormField
from gcx.jets import FormJet, Jet2

__all__ = [
    "CHART_CPLANE",
    "CHART_ANNULUS",
    "CHART_QUOTIENT",
    "CHART_TUBE",
    "LogModelParams",
    "SurgeryGeometry",
    "BumpProfile",
    "local_model_spinor",
    "local_model_polar",
    "polar_spinor_field",
    "log_model",
    "quotient_spinor_field",
    "deck_action_map",
    "quotient_map",
    "tube_symplectic",
    "gluing_map",
    "polar_overlap_map",
    "bump_profile",
    "b_extension_and_h",
    "glued_spinor_field",
]

CHART_CPLANE = "cplane"
CHART_ANNULUS = "annulus"
CHART_QUOTIENT = "quotient"
CHART_TUBE = "tube"

ANGLES = (False, True, True, True)

# masks of basis monomials, coords ordered 1..4
_M12 = 0b0011
_M13 = 0b0101
_M14 = 0b1001
_M23 = 0b0110
_M24 = 0b1010
_M124 = 0b1011

_R_LOW = 1.0 / math.sqrt(math.e)  # inner radius of the gluing annulus, where psi reaches rt = 0


@dataclass(frozen=True)
class LogModelParams:
    """Multiplicity m and twist k of the Z_m quotient model, gcd(k, m) = 1."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"multiplicity m must be >= 1, got {self.m}")
        if math.gcd(self.k, self.m) != 1:
            raise ValueError(f"k must be coprime with m, got (m, k) = ({self.m}, {self.k})")


@dataclass(frozen=True)
class SurgeryGeometry:
    """Sampling and bump geometry for the tube checks.

    r_min guards the log singularity; the bump descends from 1 to 0 on
    [1, r_out] by default (checks may move the descent window to stand
    in for several simultaneous surgeries in one tube).
    """

    r_min: float = 0.05
    r_out: float = 2.0
    profile: str = "flat"

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError(f"r_min must be positive, got {self.r_min}")
        if not _R_LOW < 1.0 < self.r_out < math.inf:
            raise ValueError(f"need 1/sqrt(e) < 1 < r_out < inf, got r_out = {self.r_out}")
        if self.profile not in ("flat", "poly"):
            raise ValueError(f"unknown bump profile {self.profile!r}")


@dataclass(frozen=True)
class BumpProfile:
    """A smooth decreasing cutoff: 1 on [0, lo], 0 on [hi, inf)."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not 1.0 <= self.lo < self.hi:
            raise ValueError(f"need 1 <= lo < hi, got window ({self.lo}, {self.hi})")

    def evaluate(self, rtilde) -> tuple:
        """(f, f') as two arrays of the shape of rtilde: 0-d at one radius.

        A caller that needs the pair twice (H and its closed-form
        cross-check) takes both from one call.
        """
        r = np.asarray(rtilde, dtype=float)
        if (r < 0).any():
            raise ValueError(f"tube radius must be >= 0, got {np.min(r)}")
        x = (r - self.lo) / (self.hi - self.lo)
        # outside the window the profile is exactly 1 or 0; the flat
        # profile's guards keep its underflowing tails exact and nan-free
        guard = 5e-3 if self.name == "flat" else 0.0
        low = (r <= self.lo) | (x < guard)
        inside = ~(low | (r >= self.hi) | (x > 1.0 - guard))
        out = [np.where(low, 1.0, 0.0), np.zeros(x.shape)]
        if inside.any():
            for level, v in zip(out, self._descent(x[inside])):
                level[inside] = v
        return tuple(out)

    def _descent(self, x) -> tuple:
        """(f, f') inside the window, at an array of x = (rtilde - lo) / (hi - lo), in closed real form."""
        if self.name == "flat":
            # all-orders-flat descent b / (a + b), a = exp(-1/x), b = exp(-1/(1-x))
            a, b = np.exp(-1.0 / x), np.exp(-1.0 / (1.0 - x))
            f = b / (a + b)
            return f, -f * a / (a + b) * (1.0 / x**2 + 1.0 / (1.0 - x) ** 2) / (self.hi - self.lo)
        # C^2 polynomial descent 1 - (6x^5 - 15x^4 + 10x^3)
        return 1.0 - (6.0 * x**5 - 15.0 * x**4 + 10.0 * x**3), -30.0 * x**2 * (1.0 - x) ** 2 / (self.hi - self.lo)

    def jet(self, rtilde) -> Jet2:
        """The cutoff as a jet in the tube coordinates (radius is coord 1).

        At one radius or at a block of radii.
        """
        f, fp = self.evaluate(rtilde)
        grad = np.zeros(f.shape + (4,), dtype=complex)
        grad[..., 0] = fp
        return Jet2(4, f, grad)


def bump_profile(geometry: SurgeryGeometry, window: tuple | None = None) -> BumpProfile:
    lo, hi = window if window is not None else (1.0, geometry.r_out)
    return BumpProfile(geometry.profile, float(lo), float(hi))


# ------------------------------------------------------------- cplane


def local_model_spinor() -> FormField:
    """The type-changing spinor z1 + dz1^dz2 on the cplane chart.

    Type 2 exactly on x1 = y1 = 0, type 0 elsewhere; solves
    d rho = v . rho with v = -d/dz2 and no twisting 3-form.
    """

    def fn(coords: np.ndarray) -> FormJet:
        jet = FormJet.zero(4, coords.shape[1:])
        jet.values[0] = coords[0] + 1j * coords[1]
        jet.grads[0] = [1.0, 1j, 0.0, 0.0]
        # dz1^dz2 = (dx1 + i dy1)^(dx2 + i dy2), coords (x1, y1, x2, y2)
        jet.values[_M13] += 1.0
        jet.values[_M14] += 1j
        jet.values[_M23] += 1j
        jet.values[_M24] += -1.0
        return jet

    return FormField(CHART_CPLANE, 4, fn)


# ------------------------------------------------------------ annulus


def _log_forms(chart: str, m: int, k: int, r_floor: float, what: str) -> tuple:
    """(B', omega') of the Z_m quotient model on a chart; m = 1, k = 0 is the annulus model."""

    def inv_r(coords: np.ndarray) -> Jet2:
        if (coords[0] < r_floor).any():
            raise ValueError(f"{what} requires radius >= {r_floor}, got {np.min(coords[0])}")
        return 1.0 / Jet2.coordinate(4, 1, coords[0])

    def b_fn(coords: np.ndarray) -> FormJet:
        inv, jet = inv_r(coords), FormJet.zero(4, coords.shape[1:])
        for mask, scale in ((_M13, 1.0), (_M12, k / m)):
            jet[mask] = scale * inv
        jet.values[_M24] = -1.0 / m
        return jet

    def w_fn(coords: np.ndarray) -> FormJet:
        jet = FormJet.zero(4, coords.shape[1:])
        jet[_M14] = inv_r(coords) / m
        jet.values[_M23] = 1.0 / m
        return jet

    return FormField(chart, 4, b_fn), FormField(chart, 4, w_fn)


def _exp_field(chart: str, b: FormField, w: FormField) -> FormField:
    """exp(b + i*w) as a field."""
    return FormField(chart, 4, lambda c: (b.fn(c) + w.fn(c) * 1j).exp_wedge())


def local_model_polar(r_min: float = 0.05) -> tuple:
    """(B, omega) on the annulus chart:

        B     = dlog r ^ dtheta2 - dtheta1 ^ dtheta3
        omega = dlog r ^ dtheta3 + dtheta1 ^ dtheta2

    Both closed; exp(B + i*omega) is pure, nondegenerate and of type 0.
    """
    return _log_forms(CHART_ANNULUS, 1, 0, r_min, "annulus model")


def polar_spinor_field(r_min: float = 0.05) -> FormField:
    """exp(B + i*omega) on the annulus chart."""
    return _exp_field(CHART_ANNULUS, *local_model_polar(r_min))


def deck_action_map(params: LogModelParams) -> ChartMap:
    """The free Z_m generator (r, t1, t2, t3) -> (r, t1 + 1/m, t2 + k/m, t3)."""
    m, k = params.m, params.k

    def fn(ins):
        r, t1, t2, t3 = ins
        return [r, t1 + 1.0 / m, t2 + k / m, t3]

    return ChartMap(CHART_ANNULUS, CHART_ANNULUS, 4, fn, target_periodic=ANGLES)


# ----------------------------------------------------------- quotient


def log_model(params: LogModelParams, r_min: float = 0.05) -> tuple:
    """(B', omega') on the quotient chart:

        B'     = dlog r' ^ (dtheta2' + (k/m) dtheta1') - (1/m) dtheta1' ^ dtheta3'
        omega' = (1/m)(dlog r' ^ dtheta3' + dtheta1' ^ dtheta2')

    Valid for r' >= r_min^m, where the quotient coordinates are defined.
    """
    return _log_forms(CHART_QUOTIENT, params.m, params.k, r_min**params.m, "quotient model")


def quotient_spinor_field(params: LogModelParams, r_min: float = 0.05) -> FormField:
    """exp(B' + i*omega') on the quotient chart."""
    return _exp_field(CHART_QUOTIENT, *log_model(params, r_min))


def quotient_map(params: LogModelParams) -> ChartMap:
    """The covering chart map (r, t) -> (r^m, m*t1, t2 - k*t1, t3)."""
    m, k = params.m, params.k

    def fn(ins):
        r, t1, t2, t3 = ins
        return [r**m, m * t1, t2 - k * t1, t3]

    return ChartMap(CHART_ANNULUS, CHART_QUOTIENT, 4, fn, target_periodic=ANGLES)


# --------------------------------------------------------------- tube


def tube_symplectic() -> FormField:
    """sigma = rt drt^dt1 + dt2^dt3 on the tube chart; closed, nondegenerate for rt > 0."""

    def fn(coords: np.ndarray) -> FormJet:
        jet = FormJet.zero(4, coords.shape[1:])
        jet[_M12] = Jet2.coordinate(4, 1, coords[0])
        jet.values[0b1100] = 1.0
        return jet

    return FormField(CHART_TUBE, 4, fn)


def gluing_map() -> ChartMap:
    """The annulus -> tube symplectomorphism.

    (r, t1, t2, t3) -> (sqrt(log(e r^2)), t3, t2, -t1) on the annulus
    1/sqrt(e) < r <= 1 (with 1e-12 slack at r = 1); its inverse is
    r = exp((rt^2 - 1)/2) on 0 < rt <= 1.
    """

    def fwd(ins):
        r, t1, t2, t3 = ins
        rt = (1.0 + 2.0 * r.log()).sqrt()
        return [rt, t3, t2, -1.0 * t1]

    return ChartMap(
        CHART_ANNULUS,
        CHART_TUBE,
        4,
        fwd,
        target_periodic=ANGLES,
        domain=lambda c: (_R_LOW < c[0]) & (c[0] <= 1.0 + 1e-12),
    )


def polar_overlap_map(angle_scale: float = 1.0) -> ChartMap:
    """The annulus -> cplane overlap z1 = r exp(i*angle_scale*theta1), z2 = t2 + i t3.

    angle_scale = 1 identifies the chart angle with the radian polar
    angle, the convention under which the annulus forms reproduce the
    normal form of the cplane spinor exactly (see gcx.conventions);
    angle_scale = 2*pi is the geometric unit-period torus angle.
    """

    def fn(ins):
        r, t1, t2, t3 = ins
        a = angle_scale * t1
        return [r * a.cos(), r * a.sin(), t2, t3]

    return ChartMap(
        CHART_ANNULUS,
        CHART_CPLANE,
        4,
        fn,
        domain=lambda c: c[0] >= 0.0,
    )


def b_extension_and_h(geometry: SurgeryGeometry, window: tuple | None = None) -> tuple:
    """(Btilde, H) on the tube chart.

    Btilde = f(rt) * (rt drt^dt2 - dt1^dt3) with f the selected bump;
    H is the assembled d(Btilde), cross-checked against the closed form
    -f'(rt) drt^dt1^dt3 at every evaluation (to 1e-10).  H is a d, so it
    carries values alone (its grads are None).
    """
    profile = bump_profile(geometry, window)

    def btilde(coords: np.ndarray) -> tuple:
        """Btilde's jet and the bump jet it scales."""
        if (coords[0] < geometry.r_min).any():
            raise ValueError(f"tube extension requires radius >= {geometry.r_min}, got {np.min(coords[0])}")
        # f times (psi^{-1})^* B in tube coordinates: f (rt drt^dt2 - dt1^dt3)
        bump, jet = profile.jet(coords[0]), FormJet.zero(4, coords.shape[1:])
        jet[_M13] = Jet2.coordinate(4, 1, coords[0]) * bump
        jet[_M24] = -1.0 * bump
        return jet, bump

    def h_fn(coords: np.ndarray) -> FormJet:
        b, bump = btilde(coords)  # one bump evaluation for d(Btilde) and its closed form
        jet = b.d()
        closed = np.zeros(jet.values.shape, dtype=complex)
        closed[_M124] = -bump.grads[..., 0]
        if np.abs(jet.values - closed).max() > 1e-10:
            raise RuntimeError("assembled d(Btilde) disagrees with its closed form")
        return jet

    return (
        FormField(CHART_TUBE, 4, lambda coords: btilde(coords)[0]),
        FormField(CHART_TUBE, 4, h_fn),
    )


def glued_spinor_field(geometry: SurgeryGeometry, window: tuple | None = None) -> FormField:
    """exp(Btilde + i*sigma) on the tube chart."""
    return _exp_field(CHART_TUBE, b_extension_and_h(geometry, window)[0], tube_symplectic())
