"""Deterministic check runners for the model identities.

Each runner draws seeded sample points, evaluates exact identities of
the closed-form models through the chart calculus, and judges each
sub-identity as a ``Component`` against its bound; a residual is the worst
(sup-norm) one, since the identities are pointwise claims, and its worst
point the first point that reaches it.  ``_report`` alone turns components
into a verdict: pass is their AND, and max_residual and worst_point are the
largest residual's (the first in note order on a tie; a NaN wins).  Sampling uses
one PRNG stream per check (seed + fixed stream id), and points are drawn
and evaluated in sample order, so reports are byte-identical for a given
seed.  Every sampled check but locus evaluates its points BLOCK at a
time, normal forms included, one numpy pass per block (a block is one
ChartPoint with coordinate arrays).  All but type_jump, which draws its
points one at a time first, also draw BLOCK at a time and keep only
running maxima, so their memory does not grow with the sample count.
A block draws the same doubles as one draw of all its points, and each
point's figures are its own, so no report depends on BLOCK.  locus runs
Newton's method one seed at a time, then takes the induced structures of
all its located points as one block.
The H slice quadrature takes BLOCK // 16 Gauss nodes of 16 angle pairs
per H evaluation, and the bump is a real closed form, so BLOCK is the one
chunk size.  d, the wedge and the Clifford action are signed gathers and
the Gauss rules come from an elementwise Newton iteration, so no step of
a check hands a product that grows with the block to BLAS or LAPACK.

``check_plan`` lists the calls ``gcx check`` makes, one per report,
and ``STREAMS`` the PRNG stream id of each report.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from gcx import conventions
from gcx.chart import ChartPoint, FormField, integrability_residual, pullback_jet
from gcx.jets import FormJet, Jet2
from gcx.models import (
    _M13,
    _M124,
    _R_LOW,
    ANGLES,
    CHART_ANNULUS,
    CHART_CPLANE,
    CHART_QUOTIENT,
    CHART_TUBE,
    LogModelParams,
    SurgeryGeometry,
    b_extension_and_h,
    bump_profile,
    deck_action_map,
    gluing_map,
    glued_spinor_field,
    local_model_polar,
    local_model_spinor,
    log_model,
    polar_overlap_map,
    polar_spinor_field,
    quotient_map,
    quotient_spinor_field,
    tube_symplectic,
)
from gcx.multilinear import GcVector, _tables, exterior_coeffs, interior_coeffs
from gcx.spinor import DEFAULT_TOL, _nondegenerate, _pure, normal_forms

__all__ = [
    "CheckReport",
    "LocusPoint",
    "check_symplectomorphism",
    "check_integrability",
    "check_h_properties",
    "check_quotient",
    "check_type_jump",
    "check_polar_compatibility",
    "check_locus",
    "locate_type_change",
    "locus_complex_structures",
    "reduce_modular",
    "degenerate_locus_field",
    "INTEGRABILITY_REGIONS",
    "check_plan",
    "STREAMS",
]

INTEGRABILITY_REGIONS = ("cplane", "polar", "bump", "outer")
QUAD_NODES = 128  # Gauss-Legendre nodes of the H slice integral over the window
FT_NODES = 64  # Gauss-Legendre nodes of each integral of f' that h_properties compares with f
# sample points per numpy pass; bounds transient memory whatever --samples is
BLOCK = 64
SIGN_CONTROL_TOL = 1e-3  # the wrong-sign H control passes iff its residual exceeds this
QUOTIENT_R_LO = 0.1  # check_quotient samples r from [max(r_min, QUOTIENT_R_LO), 1]


@dataclass(frozen=True)
class Component:
    """One sub-identity of a report: its figure, its verdict, its note line or None, and its worst point.

    A residual is a component with a worst point, the first sampled point where its figure is reached;
    only residuals count toward max_residual.  Other figures are a determinant, an integral, or None.
    """

    name: str
    figure: float | None
    passed: bool
    note: str | None = None
    worst_point: list | None = None


def _at_most(name, top, bound, note=None, **fields) -> Component:
    """The residual (figure, worst point) = top[name]: passes iff figure <= bound (a NaN fails); note formats them."""
    figure, worst = top[name]
    return Component(name, figure, figure <= bound, note and note.format(figure=figure, bound=bound, **fields), worst)


def _holds(name, ok, label=None, figure=None) -> Component:
    """A yes/no test, whose figure is no residual; its note, if labelled, reads 'label: ok'."""
    return Component(name, figure, bool(ok), label and f"{label}: {bool(ok)}")


@dataclass
class CheckReport:
    """Outcome of one verification run; deterministic given its params.  components stay out of the JSON."""

    check: str
    params: dict
    samples: int
    max_residual: float
    worst_point: list
    passed: bool
    notes: list = field(default_factory=list)
    components: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "samples": int(self.samples),
            "max_residual": float(self.max_residual),
            "worst_point": [float(c) for c in self.worst_point],
            "pass": bool(self.passed),
            "notes": [str(n) for n in self.notes],
        }

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}  {self.check:<28} max_residual={self.max_residual:.3e} samples={self.samples}"


def _report(check, seed, samples, tol, parts, **params):
    """The one verdict rule: a CheckReport from components and fixed note lines, in note order.

    pass is the AND of the components; max_residual and worst_point are the largest residual's (the first
    in note order on a tie; a NaN wins, as in np.argmax).  params are seed, samples and tol, then the runner's.
    """
    components = {p.name: p for p in parts if isinstance(p, Component)}
    passed = all(c.passed for c in components.values())
    residuals = [c for c in components.values() if c.worst_point is not None]
    worst = residuals[int(np.argmax([c.figure for c in residuals]))]
    notes = [n for n in (p.note if isinstance(p, Component) else p for p in parts) if n is not None]
    params = {"seed": seed, "samples": samples, "tol": tol, **params}
    return CheckReport(check, params, samples, float(worst.figure), worst.worst_point, passed, notes, components)


def _geometry_params(geometry: SurgeryGeometry) -> dict:
    return {"r_min": geometry.r_min, "r_out": geometry.r_out, "profile": geometry.profile}


# ----------------------------------------------------------- check plan

# PRNG stream id of each report, which _rng reads (every quotient report draws stream 8, keyed further
# by m); changing an id changes every report that draws it
STREAMS = {
    "symplectomorphism": 1,
    "integrability_cplane": 2,
    "integrability_polar": 3,
    "integrability_bump": 4,
    "integrability_outer": 5,
    "h_properties": 7,
    "quotient": 8,
    "locus": 9,
    "type_jump": 10,
    "polar_compatibility": 11,
    "h_sign_negative_control": 12,
}


def check_plan(cfg) -> list:
    """(report name, zero-argument call) of each report a ``cli.RunConfig`` asks for, in run order.

    A run takes min(--samples, cap) samples where a check has a cap.  The
    per-window reports run window by window (h_properties_w1,
    integrability_bump_w1, h_properties_w2, ...; no suffix for one window).
    Each call looks its runner up on this module when it runs, so a patched
    runner is the one called.
    """
    n, seed, tol, tol2, geo = cfg.samples, cfg.seed, cfg.tol, cfg.tol_second, cfg.geometry
    plan = []
    if cfg.target in ("local-model", "all"):
        plan += [
            ("integrability_cplane", lambda: check_integrability("cplane", n, seed, tol, geo)),
            ("integrability_polar", lambda: check_integrability("polar", n, seed, tol, geo)),
            ("type_jump", lambda: check_type_jump(min(n, 200), seed, tol)),
            ("polar_compatibility", lambda: check_polar_compatibility(min(n, 400), seed, tol, geo.r_min)),
        ]
    if cfg.target in ("surgery", "all"):
        plan.append(("symplectomorphism", lambda: check_symplectomorphism(geo, n, seed, tol)))
        for i, w in enumerate(cfg.windows):
            suffix = f"_w{i + 1}" if len(cfg.windows) > 1 else ""
            plan += [
                (f"h_properties{suffix}", lambda w=w: check_h_properties(geo, min(n, 500), seed, tol2, w)),
                (f"integrability_bump{suffix}", lambda w=w: check_integrability("bump", min(n, 500), seed, tol, geo, w)),
            ]
        first, last = cfg.windows[0], cfg.windows[-1]
        plan += [
            ("integrability_outer", lambda: check_integrability("outer", min(n, 500), seed, tol, geo, last)),
            (  # no tol: the control keeps the threshold its verdict reads
                "h_sign_negative_control",
                lambda: check_integrability("bump", min(n, 200), seed, geometry=geo, window=first, flip_h_sign=True),
            ),
        ]
    if cfg.target in ("quotient", "all"):
        for m, k in cfg.quotients:
            call = lambda m=m, k=k: check_quotient(LogModelParams(m, k), min(n, 500), seed, tol2, geo.r_min)
            plan.append((f"quotient_m{m}_k{k}", call))
    if cfg.target in ("locus", "all"):
        plan.append(("locus", lambda: check_locus(min(n, 100), seed, tol)))
    return plan


def _rng(seed: int, stream: str, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(STREAMS[stream], extra))
    )


def _sample_annulus(rng, samples, r_lo, r_hi, chart=CHART_ANNULUS) -> ChartPoint:
    """A block of points (r, t1, t2, t3), r in [r_lo, r_hi]: each point's four draws in turn."""
    coords = rng.uniform(0.0, 1.0, (samples, 4)).T
    coords[0] = r_hi - (r_hi - r_lo) * coords[0]  # includes the outer boundary r_hi
    return ChartPoint(chart, tuple(coords), ANGLES)


def _largest(figures: dict, coords) -> dict:
    """{name: (max of its per-point figures, the first point where it is reached)}; a NaN is the max."""
    first = {name: int(np.argmax(row)) for name, row in figures.items()}
    return {name: (figures[name][i], [float(c[i]) for c in coords]) for name, i in first.items()}


def _per_block(fn, draw, samples: int) -> dict:
    """``_largest`` over the samples, a NaN kept: fn(block) gives {name: per-point figures}, and draw(count)
    the next count points as a block (in blocks, the same doubles as one draw of them all)."""
    top = {}
    for start in range(0, samples, BLOCK):
        p = draw(min(BLOCK, samples - start))
        for name, best in _largest(fn(p), p.coords).items():
            if name not in top or np.argmax([top[name][0], best[0]]) == 1:
                top[name] = best
    return top


def _max_abs(values: np.ndarray) -> np.ndarray:
    """Per point sup norm over the component axis."""
    return np.abs(values).max(axis=0)


def _legendre_rule(nodes: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's method on the roots of
    P_nodes from Chebyshev guesses, elementwise through the three-term recurrence (no LAPACK)."""

    def legendre(x):  # P_nodes(x) and its derivative
        p, p_prev = x, np.ones_like(x)
        for k in range(2, nodes + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        return p, nodes * (x * p - p_prev) / (x * x - 1.0)

    x = -np.cos(np.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
    step = np.ones(nodes)
    while np.abs(step).max() > 1e-15:  # quadratic convergence: about four steps
        p, dp = legendre(x)
        step = p / dp
        x = x - step
    x = 0.5 * (x - x[::-1])  # exactly symmetric about 0, and then so are the weights
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.lru_cache(maxsize=None)
def _gauss_rule(nodes: int) -> tuple:
    """``_legendre_rule(nodes)``, built on first use and kept (read-only)."""
    rule = _legendre_rule(nodes)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# ------------------------------------------------------------- surgery


def check_symplectomorphism(
    geometry: SurgeryGeometry | None = None,
    samples: int = 1000,
    seed: int = 42,
    tol: float = 1e-9,
) -> CheckReport:
    """The gluing map pulls the tube form back to the annulus form, and Btilde back to the annulus B.

    Btilde is defined for rt >= r_min only, so its comparison covers the
    sampled points whose image lies there; the bump is 1 on the whole
    image (rt <= 1 <= lo), so the comparison holds for every window.
    """
    geometry = geometry or SurgeryGeometry()
    rng = _rng(seed, "symplectomorphism")
    r_lo = max(_R_LOW, geometry.r_min) + 1e-9
    psi, sigma = gluing_map(), tube_symplectic()
    b_field, omega = local_model_polar(geometry.r_min)
    btilde = b_extension_and_h(geometry)[0]
    covered, min_det = 0, np.inf

    def block(p):
        nonlocal covered, min_det
        at = psi.at(p)
        sigma_res = _max_abs(pullback_jet(at, sigma).values - omega(p).values)
        inside = at.image.coords[0] >= geometry.r_min
        bt = np.zeros_like(at.basis(0))  # Btilde's coefficients, zero where it is not defined
        bt[:, inside] = btilde(at.image.with_coords(c[inside] for c in at.image.coords)).values
        b_res = np.where(inside, _max_abs(at.pull(bt) - b_field(p).values), 0.0)
        covered += int(inside.sum())
        min_det = np.minimum(min_det, np.abs(np.linalg.det(at.jac)).min())
        return {"sigma_pullback": sigma_res, "btilde_pullback": b_res}

    top = _per_block(block, lambda count: _sample_annulus(rng, count, r_lo, 1.0), samples)
    btilde_note = "psi^*Btilde = B at the {covered} points with image rt >= r_min: residual = {figure:.3e}"
    parts = [
        _at_most("sigma_pullback", top, tol),
        Component("det_dpsi", min_det, min_det > 1e-12, f"min |det Dpsi| = {min_det:.6e}"),
        _at_most("btilde_pullback", top, tol, btilde_note, covered=covered),
    ]
    return _report("symplectomorphism", seed, samples, tol, parts, **_geometry_params(geometry))


def _region_setup(region, geometry, window, flip_h_sign=False):
    """(field, h_field, sampling box (chart, r_lo, r_hi), or None for the cplane cube, witness note)."""
    if region == "cplane":
        return local_model_spinor(), None, None, "witness compared against v = -d/dz2 through its Clifford action"
    if region == "polar":
        return polar_spinor_field(geometry.r_min), None, (CHART_ANNULUS, geometry.r_min, 1.0), None
    prof = bump_profile(geometry, window)
    rho = glued_spinor_field(geometry, window)
    if region == "bump":
        _, h = b_extension_and_h(geometry, window)
        sign = float(conventions.SPINOR_TWIST_SIGN) * (-1.0 if flip_h_sign else 1.0)
        h_used = FormField(CHART_TUBE, 4, lambda c: FormJet(4, h.fn(c).values * sign))
        return rho, h_used, (CHART_TUBE, prof.lo + 1e-6, prof.hi - 1e-6), None
    if region == "outer":
        return rho, None, (CHART_TUBE, prof.hi, prof.hi + 1.0), "witness must vanish: constant symplectic spinor"
    raise ValueError(f"unknown integrability region {region!r}; expected one of {INTEGRABILITY_REGIONS}")


def check_integrability(
    region: str,
    samples: int = 500,
    seed: int = 42,
    tol: float | None = None,
    geometry: SurgeryGeometry | None = None,
    window: tuple | None = None,
    flip_h_sign: bool = False,
) -> CheckReport:
    """Max integrability residual of the region's model spinor over samples.

    In the bump region the twisting 3-form is the frozen-sign multiple
    of d(Btilde); flip_h_sign runs the negative control with the wrong
    sign, whose report passes iff the residual exceeds tol (default
    SIGN_CONTROL_TOL).  The cplane witness must act as -d/dz2 does, and
    the outer one must vanish, each to tol.
    """
    geometry = geometry or SurgeryGeometry()
    if tol is None:
        tol = SIGN_CONTROL_TOL if flip_h_sign else 1e-8
    rho, h_used, box, witness_note = _region_setup(region, geometry, window, flip_h_sign)
    if flip_h_sign and region != "bump":
        raise ValueError("the sign control only applies to the bump region")
    stream = "h_sign_negative_control" if flip_h_sign else f"integrability_{region}"
    rng = _rng(seed, stream)
    v_local = GcVector(4, vec=[0, 0, -0.5, 0.5j]).as_array()  # -d/dz2 on the cplane chart

    def draw(count):
        if box is None:  # the cube [-1, 1]^4 of the cplane chart
            return ChartPoint(CHART_CPLANE, tuple(rng.uniform(-1, 1, (count, 4)).T))
        return _sample_annulus(rng, count, box[1], box[2], box[0])

    name = "wrong_sign" if flip_h_sign else "integrability"

    def block(p):
        wit = integrability_residual(rho, h_used, p)
        figures = {name: wit.residual}
        if region == "cplane":
            # Clifford action of the witness minus that of -d/dz2
            action = wit.action_matrix @ (wit.v.T - v_local)[..., None]
            figures["witness"] = np.abs(action[..., 0]).max(axis=-1)
        elif region == "outer":
            figures["witness"] = np.linalg.norm(wit.v, axis=0)
        return figures

    top = _per_block(block, draw, samples)
    parts = [conventions.NOTE_SPINOR_TWIST] if region == "bump" else []
    if witness_note:
        parts.append(_at_most("witness", top, tol, witness_note))
    if flip_h_sign:
        note = f"negative control: wrong twist sign must fail; pass means residual > tol = {tol:g}"
        figure, worst = top[name]
        parts.append(Component(name, figure, figure > tol, note, worst))
    else:
        parts.append(_at_most(name, top, tol))
    params = {"region": region, **_geometry_params(geometry)}
    if window is not None:
        params["window"] = list(window)
    return _report(stream, seed, samples, tol, parts, **params)


def _integral_of_derivative(prof, upper: np.ndarray) -> np.ndarray:
    """The integral of f' from lo to each radius of upper (lo <= upper <= hi), by FT_NODES-node Gauss."""
    nodes, weights = _gauss_rule(FT_NODES)
    half = 0.5 * (upper - prof.lo)
    radii = prof.lo + half[..., None] * (nodes + 1.0)
    return half * (prof.evaluate(radii)[1] * weights).sum(axis=-1)


def check_h_properties(
    geometry: SurgeryGeometry | None = None,
    samples: int = 500,
    seed: int = 42,
    tol: float = 1e-8,
    window: tuple | None = None,
) -> CheckReport:
    """The bump's f' against f, support confinement, and the slice integral of H = d(Btilde).

    H = -f'(rt) drt^dt1^dt3, so f' is what H reads; at each sampled radius
    f(rt) - f(lo) must equal the integral of f' from lo to min(rt, hi)
    (the fundamental theorem), which a wrong f' fails even where its
    slice integral stays 1.
    """
    geometry = geometry or SurgeryGeometry()
    prof = bump_profile(geometry, window)
    lo, hi = prof.lo, prof.hi
    btilde, h = b_extension_and_h(geometry, window)
    rng = _rng(seed, "h_properties")

    def draw(r_lo, r_hi):
        return lambda count: _sample_annulus(rng, count, r_lo, r_hi, chart=CHART_TUBE)

    f_lo = prof.evaluate(lo)[0]
    whole = _integral_of_derivative(prof, np.array(hi))  # every radius past hi reads the whole window

    def ft_residual(p):
        rt = p.coords[0]
        integral = np.where(rt >= hi, whole, 0.0)  # empty at rt <= lo
        inside = (lo < rt) & (rt < hi)
        integral[inside] = _integral_of_derivative(prof, rt[inside])
        return {"fundamental_theorem": np.abs(prof.evaluate(rt)[0] - f_lo - integral)}

    top = _per_block(ft_residual, draw(geometry.r_min, hi + 0.5), samples)

    # H vanishes inside lo and outside hi, and so does Btilde outside hi: 50 points each, BLOCK at a time
    inner = _per_block(lambda p: {"h": _max_abs(h(p).values)}, draw(geometry.r_min, lo), 50)
    outer = _per_block(lambda p: {"h": _max_abs(h(p).values), "b": _max_abs(btilde(p).values)}, draw(hi, hi + 1.0), 50)
    support = np.max([inner["h"][0], outer["h"][0], outer["b"][0]])  # a NaN stays NaN

    # product quadrature over the 3-cycle {t2 = const}, orientation dr^dt1^dt3:
    # the 16 angle pairs at each Gauss node, BLOCK // 16 nodes (a block of points) per H evaluation
    nodes, weights = _gauss_rule(QUAD_NODES)
    radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    ang = (np.arange(4) + 0.5) / 4.0
    a1, a3 = np.repeat(ang, len(ang)), np.tile(ang, len(ang))
    step, node_sums = max(1, BLOCK // 16), []
    for r in np.split(radii, range(step, QUAD_NODES, step)):
        t1, t3 = np.tile(a1, len(r)), np.tile(a3, len(r))
        grid = ChartPoint(CHART_TUBE, (np.repeat(r, len(a1)), t1, np.full(len(t1), 0.37), t3), ANGLES)
        # at each node, summed pair after pair, in the order of the points
        node_sums.extend(np.add.accumulate(h(grid).values[_M124].real.reshape(len(r), len(a1)), axis=1)[:, -1])
    integral = 0.5 * (hi - lo) * sum(w * acc / len(a1) for w, acc in zip(weights, node_sums))
    slice_ok = abs(integral - conventions.H_SLICE_SIGN) <= 1e-6
    slice_note = f"slice integral = {integral:.9f} (sign {int(np.sign(integral)):+d})"
    parts = [
        Component("slice_integral", integral, slice_ok, slice_note),
        conventions.NOTE_H_SLICE,
        _holds("support", support == 0.0, f"support confined to window [{lo}, {hi}]", figure=support),
        _at_most("fundamental_theorem", top, tol),
        f"residual = |f(rt) - f(lo) - integral of f' from lo to min(rt, hi)|, {FT_NODES}-node Gauss-Legendre",
        "dH = 0: H = -f'(rt) drt^dt1^dt3 has a coefficient in rt alone, cross-checked against d(Btilde) "
        "at every evaluation",
    ]
    params = {"quad_nodes": QUAD_NODES, **_geometry_params(geometry), "window": [lo, hi]}
    return _report("h_properties", seed, samples, tol, parts, **params)


# ------------------------------------------------------------ quotient


def check_quotient(
    params: LogModelParams,
    samples: int = 500,
    seed: int = 42,
    tol: float = 1e-8,
    r_min: float = 0.05,
) -> CheckReport:
    """Deck invariance of the forms and of the quotient map, the quotient pullbacks, and quotient integrability."""
    m = params.m
    rng = _rng(seed, "quotient", extra=m)
    b_field, w_field = local_model_polar(r_min)
    bq, wq = log_model(params, r_min)
    qmap = quotient_map(params)
    deck = deck_action_map(params)
    # d(q^*B' - B) = q^*(dB') - dB by naturality: pull back the values of dB'
    d_bq = FormField(CHART_QUOTIENT, 4, lambda c: bq.fn(c).d())
    rho_q = quotient_spinor_field(params, r_min)

    def deck_residual(p, b_p, w_p):
        """Deck invariance of B and omega; the deck map's evaluation and its basis forms die with the call."""
        at_deck = deck.at(p)
        return np.maximum(
            _max_abs(pullback_jet(at_deck, b_field).values - b_p),
            _max_abs(pullback_jet(at_deck, w_field).values - w_p),
        )

    def block(p):
        b_p, w_p = b_field(p), w_field(p).values
        b_p, db_p = b_p.values, b_p.d().values  # values only: no jet with partials lives through the block
        figures = {"deck": deck_residual(p, b_p, w_p)}
        at_q = qmap.at(p)
        # integrability first, before the quotient pullbacks fill at_q's basis cache
        figures["integrability"] = integrability_residual(rho_q, None, at_q.image).residual
        figures["omega"] = _max_abs(pullback_jet(at_q, wq).values - w_p)
        disc = pullback_jet(at_q, bq).values - b_p
        expected = np.zeros(disc.shape, dtype=complex)
        expected[_M13] = (m - 1) / p.coords[0]  # (m-1) dlog r ^ dtheta2
        figures["b_discrepancy"] = _max_abs(disc - expected)
        # the recorded discrepancy form is closed
        figures["d_discrepancy"] = _max_abs(pullback_jet(at_q, d_bq).values - db_p)
        return figures

    r_lo = max(r_min, QUOTIENT_R_LO)
    top = _per_block(block, lambda count: _sample_annulus(rng, count, r_lo, 1.0), samples)

    def same_image(a: ChartPoint, b: ChartPoint) -> bool:
        """q(a) = q(b): the radius exactly, the angles modulo 1 to 1e-12."""
        ya, yb = qmap.at(a).image.coords, qmap.at(b).image.coords
        turns = (np.subtract(ya[1:], yb[1:]) + 0.5) % 1.0 - 0.5
        return ya[0] == yb[0] and np.abs(turns).max() <= 1e-12

    # orbit freeness, including on the central fibre, and q constant on each orbit
    orbit_ok = True
    for r in (0.0, 0.5):
        q, orbit = ChartPoint(CHART_ANNULUS, (r, 0.11, 0.21, 0.31), ANGLES), set()
        for _ in range(m):
            step = deck.at(q).image
            orbit_ok &= same_image(q, step)
            q = step
            orbit.add(tuple(round(c, 9) for c in q.coords))
        orbit_ok &= len(orbit) == m

    disc_note = (
        "B pullback discrepancy = (m-1) dlog r ^ dtheta2, m-1 = {m1}; "
        "residual vs formula = {figure:.3e} (<= {bound:g}), d(discrepancy) = {closed:.3e}"
    )
    parts = [
        _at_most("deck", top, 1e-12, "deck invariance residual = {figure:.3e} (<= {bound:g})"),
        _at_most("omega", top, 1e-12, "omega pullback residual = {figure:.3e} (<= {bound:g})"),
        _at_most("b_discrepancy", top, 1e-10, disc_note, m1=m - 1, closed=top["d_discrepancy"][0]),
        _at_most("d_discrepancy", top, tol),
        _at_most("integrability", top, tol, "quotient integrability residual = {figure:.3e}"),
        _holds("orbit", orbit_ok, f"orbit size {m} and q(deck(p)) = q(p) at r = 0 and r = 0.5"),
    ]
    name = f"quotient_m{m}_k{params.k}"
    return _report(name, seed, samples, tol, parts, m=m, k=params.k, r_min=r_min)


# ------------------------------------------------------- local model


def check_type_jump(samples: int = 200, seed: int = 42, tol: float = 1e-9) -> CheckReport:
    """Type is 2 exactly on x1 = y1 = 0 and 0 off it, read at normal_form's own rank cutoff; tol is recorded only."""
    rho = local_model_spinor()
    rng = _rng(seed, "type_jump")
    on_locus = [(0.0, 0.0, *rng.uniform(-1, 1, 2)) for _ in range(samples // 2)]
    off_locus = []
    while len(off_locus) < samples - samples // 2:
        c = rng.uniform(-1, 1, 4)
        if math.hypot(c[0], c[1]) > 1e-3:
            off_locus.append(c)
    coords = np.array(on_locus + off_locus).T
    blocks = (ChartPoint(CHART_CPLANE, tuple(coords[:, s : s + BLOCK])) for s in range(0, samples, BLOCK))

    def misclassified(p):
        expected = np.where((p.coords[0] == 0.0) & (p.coords[1] == 0.0), 2, 0)
        return {"misclassified": (normal_forms(rho(p).values)[0] != expected).astype(float)}

    top = _per_block(misclassified, lambda count: next(blocks), samples)
    note = f"type 2 at {len(on_locus)} locus points, type 0 at {len(off_locus)} off-locus points"
    return _report("type_jump", seed, samples, tol, [_at_most("misclassified", top, 0.0, note)])


def check_polar_compatibility(
    samples: int = 200, seed: int = 42, tol: float = 1e-9, r_min: float = 0.05
) -> CheckReport:
    """The cplane spinor pulled to the annulus chart reproduces the polar forms."""
    rho = local_model_spinor()
    overlap = polar_overlap_map()
    b_field, w_field = local_model_polar(r_min)
    rng = _rng(seed, "polar_compatibility")

    def block(p):
        pulled = pullback_jet(overlap.at(p), rho).values
        expected = b_field(p).values + 1j * w_field(p).values
        return {"polar_forms": _max_abs(normal_forms(pulled)[2] - expected)}

    top = _per_block(block, lambda count: _sample_annulus(rng, count, max(r_min, 0.1), 1.0), samples)
    parts = [conventions.NOTE_POLAR_OVERLAP, _at_most("polar_forms", top, tol)]
    return _report("polar_compatibility", seed, samples, tol, parts, r_min=r_min)


# ---------------------------------------------------------------- locus


@dataclass(frozen=True)
class LocusPoint:
    """A located zero of the degree-0 spinor component (``locus_complex_structures`` takes its tangent plane)."""

    location: ChartPoint
    converged: bool
    residuals: tuple  # |rho0| at the seed and after each Newton step
    nondegenerate: bool


def degenerate_locus_field() -> FormField:
    """Test fixture z1^2 + dz1^dz2: its locus zeros are degenerate."""
    local = local_model_spinor()

    def fn(coords: np.ndarray) -> FormJet:
        jet = local.fn(coords)  # z1 + dz1^dz2, whose z1 is replaced
        z = Jet2.coordinate(4, 1, coords[0]) + 1j * Jet2.coordinate(4, 2, coords[1])
        jet[0] = z * z
        return jet

    return FormField(CHART_CPLANE, 4, fn)


def _scalar_jacobian(jet: FormJet) -> np.ndarray:
    """Real 2 x n Jacobian of (Re rho0, Im rho0), (N, 2, n) on a block: a view of rho0's partials."""
    return jet.grads[0].view(float).reshape(*jet.grads[0].shape, 2).swapaxes(-1, -2)


def _newton_frame(jac: np.ndarray, value: complex) -> tuple:
    """lstsq's step J^+ f and the singular values of a 2 x n Jacobian J, from a row-pivoted LQ in floats:
    J = [[r11, 0], [r12, r22]] Q, so sigma1 sigma2 = r11 r22 and sigma1^2 + sigma2^2 = |J|_F^2.  Rank 2 is
    lstsq's sigma2 > eps max(2, n) sigma1; rank 1 steps J^T f / |J|_F^2; a zero, non-finite or overflowing
    J steps nothing and reads as rank 0."""
    (a, b), f = jac.tolist(), (value.real, value.imag)
    r11, rb = math.hypot(*a), math.hypot(*b)
    if not 0.0 < r11 + rb < math.inf:
        return [0.0] * len(a), 0.0, 0.0
    if rb > r11:  # the longer row first
        (b, a), f, r11 = (a, b), f[::-1], rb
    q1 = [x / r11 for x in a]
    r12 = sum(q * y for q, y in zip(q1, b))
    w = [y - r12 * q for q, y in zip(q1, b)]
    r22 = math.hypot(*w)
    ratio = (math.hypot(1.0 + r22 / r11, r12 / r11) + math.hypot(1.0 - r22 / r11, r12 / r11)) / 2.0  # sigma1 / r11
    sigma1, sigma2 = r11 * ratio, r22 / ratio  # sigma2 = r11 r22 / sigma1 keeps an SVD's absolute accuracy
    if sigma2 > math.ulp(1.0) * max(2, len(a)) * sigma1:  # solve L y = f
        y1, y2 = f[0] / r11, (f[1] - r12 * (f[0] / r11)) / r22
        return [y1 * q + y2 * (x / r22) for q, x in zip(q1, w)], sigma1, sigma2
    norm = math.hypot(r11, r12, r22)
    return [(f[0] * (x / norm) + f[1] * (y / norm)) / norm for x, y in zip(a, b)], sigma1, sigma2


def locate_type_change(rho_field: FormField, seeds: list) -> list:
    """Newton iteration on the degree-0 component, each pseudo-inverse step ``_newton_frame``'s closed form.

    No seed makes a LAPACK call.  Converged points are nondegenerate iff the 2 x n Jacobian of
    (Re rho0, Im rho0) at the last iterate has smallest singular value >= 1e-9; its kernel, the locus
    tangent space, is left to ``locus_complex_structures``.  Non-convergence is recorded, not fatal.
    The deep target (|rho0| <= 1e-22, at most 50 steps) lets linearly converging degenerate zeros
    expose themselves: their Jacobian singular values shrink with the iterate, to below 1e-9.
    """
    out = []
    for p in seeds:
        jet = rho_field(p)
        residuals = [abs(jet.values[0])]
        while True:
            step, _, sigma2 = _newton_frame(_scalar_jacobian(jet), complex(jet.values[0]))
            if not (residuals[-1] > 1e-22 and len(residuals) <= 50 and all(map(math.isfinite, step)) and any(step)):
                break
            p = p.with_coords([c - s for c, s in zip(p.coords, step)])
            jet = rho_field(p)
            residuals.append(abs(jet.values[0]))
        converged = residuals[-1] <= 1e-10
        out.append(LocusPoint(p, converged, tuple(residuals), bool(converged and sigma2 >= 1e-9)))
    return out


def reduce_modular(tau: complex) -> complex:
    """Reduce a lattice modulus to the standard fundamental domain."""
    tau = complex(tau)
    if tau.imag < 0:
        tau = -tau
    if not abs(tau.imag) > 0:  # a NaN too
        raise ValueError("degenerate lattice: real modulus")
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - 1e-14:
            tau = -1.0 / tau
        else:
            break
    if tau.real == -0.5:  # boundary normalization of the domain
        tau = complex(0.5, tau.imag)
    return tau


def locus_complex_structures(rho_field: FormField, located: list, lattice_basis) -> tuple:
    """tau and the dbar and tangent residuals (N,) of the structure that Omega, the degree-2 part, induces at N
    nondegenerate locus points, its (1,0)-forms the xi with xi ^ Omega = 0.  With g = d(rho0), on one block:
    dbar = |g ^ Omega| / (max|Omega| max(1, |g|)); tangent = |g ^ conj(g) ^ Omega| / (max|Omega| |g|^2), 0 iff ker g is
    a complex line; a lattice vector l must have |g(l)| <= 1e-6 |g| max(1, |l|).  Each Omega(X, .) is (1,0), so
    tau = Omega(X, l2) / Omega(X, l1), reduced, with X = conj(Omega(l1, .)): Omega(X, l1) = -|Omega(l1, .)|^2 != 0."""
    if not all(lp.nondegenerate for lp in located):
        raise ValueError("locus point is degenerate; no induced complex structure")
    jet = rho_field(located[0].location.with_coords(np.array([lp.location.coords for lp in located]).T))
    omega = np.where(_tables(jet.dim).degree[:, None] == 2, jet.values, 0.0)
    if not (_pure(omega, DEFAULT_TOL).all() and _nondegenerate(omega, DEFAULT_TOL).all()):
        raise ValueError("degenerate Omega at a locus point; no induced complex structure")
    g, scale = jet.grads[0].T, np.abs(omega).max(axis=0)  # g: (n, N)
    size = np.linalg.norm(g, axis=0)
    dbar = np.abs(exterior_coeffs(omega, g)).max(axis=0) / (scale * np.maximum(1.0, size))
    tangent = np.abs(exterior_coeffs(exterior_coeffs(omega, g.conj()), g)).max(axis=0) / (scale * size**2)
    l1, l2 = (np.asarray(v, dtype=float)[:, None] for v in lattice_basis)
    if any((np.abs((g * vec).sum(axis=0)) > 1e-6 * size * max(1.0, np.linalg.norm(vec))).any() for vec in (l1, l2)):
        raise ValueError("lattice vector does not lie in the locus tangent plane")
    one = 1 << np.arange(jet.dim)  # the degree-1 positions
    form = interior_coeffs(omega, interior_coeffs(omega, l1)[one].conj())[one]  # Omega(X, .)
    tau = np.array([reduce_modular(t) for t in (form * l2).sum(axis=0) / (form * l1).sum(axis=0)])
    return tau, dbar, tangent


FIBER_LATTICE = (np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))


def check_locus(seeds_count: int = 100, seed: int = 42, tol: float = 1e-9) -> CheckReport:
    """Newton localization, nondegeneracy, induced structure and tau = i; tol bounds tau, dbar and tangent."""
    rho = local_model_spinor()
    rng = _rng(seed, "locus")
    seeds = [
        ChartPoint(CHART_CPLANE, (*(rng.uniform(-0.35, 0.35, 2)), *rng.uniform(0, 1, 2)))
        for _ in range(seeds_count)
    ]
    located = locate_type_change(rho, seeds)

    quadratic_ok = all(
        nxt <= 10.0 * prev**2 + 1e-12 for lp in located for prev, nxt in zip(lp.residuals, lp.residuals[1:])
    )

    # per located point: |z1|, tau error vs i, dbar residual, tangent residual
    tau, dbar_res, tangent_res = locus_complex_structures(rho, located, FIBER_LATTICE)
    coords = np.array([lp.location.coords for lp in located]).T
    z1 = np.hypot(coords[0], coords[1])
    top = _largest({"converged": z1, "tau": np.abs(tau - 1j), "dbar": dbar_res, "tangent": tangent_res}, coords)

    deg = locate_type_change(degenerate_locus_field(), [ChartPoint(CHART_CPLANE, (0.3, -0.2, 0.5, 0.5))])[0]
    on_locus, worst = top["converged"]
    z1_note = f"max |z1| at located points = {on_locus:.3e}"
    tau_note = "tau error vs i = {figure:.3e}; dbar residual = {dbar:.3e}"
    parts = [
        Component("converged", on_locus, all(lp.converged for lp in located), z1_note, worst),
        _holds("nondegenerate", all(lp.nondegenerate for lp in located)),
        _holds("quadratic_decay", quadratic_ok, "quadratic residual decay"),
        _at_most("tau", top, tol, tau_note, dbar=top["dbar"][0]),
        _at_most("dbar", top, tol),
        _at_most("tangent", top, tol),
        _holds("degenerate_fixture", deg.converged and not deg.nondegenerate, "degenerate fixture (z1^2) flagged"),
    ]
    return _report("locus", seed, seeds_count, tol, parts)
