"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), runs one pass
of its fixed unit of work (``run_pass``) split into named units that are
timed one by one on the clock it is given, fingerprints a pass's outputs
(``digest``) and checks them (``check``).  gcx is called only through its public functions,
looked up on their modules at call time so that the traced run's
wrappers see every call.
"""

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gcx import chart, cli, models, spinor, verify
from gcx.multilinear import Multiform

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"

# the quotient models `gcx check all` runs when --m and --k are omitted
QUOTIENTS = ((1, 0), (2, 1), (3, 2), (5, 2))
# four disjoint bump descent windows in one tube, one per simultaneous surgery
WINDOWS = ((1.0, 1.6), (2.0, 2.6), (3.0, 3.6), (4.0, 4.6))

CHECK_ALL_REPORTS = (
    "integrability_cplane",
    "integrability_polar",
    "type_jump",
    "polar_compatibility",
    "symplectomorphism",
    "h_properties",
    "integrability_bump",
    "integrability_outer",
    "h_sign_negative_control",
    *(f"quotient_m{m}_k{k}" for m, k in QUOTIENTS),
    "locus",
)
SURGERY_REPORTS = (
    "symplectomorphism",
    *(f"{check}_w{i}" for i in range(1, len(WINDOWS) + 1) for check in ("h_properties", "integrability_bump")),
    "integrability_outer",
    "h_sign_negative_control",
)
ALL_REPORTS = tuple(dict.fromkeys(CHECK_ALL_REPORTS + SURGERY_REPORTS))
WRITE_UNIT = "write_reports"
REST_UNIT = "cli"  # argument parsing and summary lines


@dataclass
class PassResult:
    units: list  # [(unit name, seconds)] in execution order
    outputs: object
    attempted: int
    failed: int


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


def _annulus_point(coords) -> chart.ChartPoint:
    return chart.ChartPoint(models.CHART_ANNULUS, tuple(coords), models.ANGLES)


# ---------------------------------------------------------- gcx check runs


class _Recorder(list):
    """Report list for ``cli.run_checks``, stamping the time each report is appended."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.stamps = []

    def append(self, report):
        self.stamps.append(self.clock())
        super().append(report)


class CheckRun:
    """One ``gcx check`` invocation per pass, through ``cli.main``.

    Its units are the checks, the report write and the rest of the
    command (argument parsing and the summary lines).  Two wrappers kept
    here, around ``cli.run_checks`` and ``cli._write_reports``, stamp the
    times; gcx's own code writes the report file and prints the summary,
    which goes to the null device.
    """

    def __init__(self, name: str, args: list, expected: tuple):
        self.name = name
        self.args = args
        self.expected = expected

    def setup(self, seed: int) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.name}-seed{seed}-report.json"
        return {"argv": [*self.args, "--seed", str(seed), "--output", str(path)], "path": path}

    def run_pass(self, inputs: dict, clock) -> PassResult:
        reports = _Recorder(clock)
        write = []  # (start, end) of each report write
        run_checks, write_reports = cli.run_checks, cli._write_reports

        def recording_run_checks(cfg, into=None):
            try:
                return run_checks(cfg, reports)
            finally:  # the command writes whatever was appended, even after a failure
                if into is not None:
                    into.extend(reports)

        def timed_write_reports(path, reps):
            begin = clock()
            write_reports(path, reps)
            write.append((begin, clock()))

        cli.run_checks, cli._write_reports = recording_run_checks, timed_write_reports
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = clock()
                code = cli.main(inputs["argv"])
                end = clock()
        finally:
            cli.run_checks, cli._write_reports = run_checks, write_reports
        if code not in (0, 1, 3) or len(write) != 1:
            raise RuntimeError(f"gcx {' '.join(inputs['argv'])} exited with {code} without a report")

        units, prev = [], start
        for rep, stamp in zip(reports, reports.stamps):
            units.append((rep.check, stamp - prev))
            prev = stamp
        units.append((WRITE_UNIT, write[0][1] - write[0][0]))
        units.append((REST_UNIT, (end - start) - math.fsum(t for _, t in units)))
        outputs = json.loads(Path(inputs["path"]).read_text())
        # exit code 3: a check raised, and the checks after it did not run
        failed = len(self.expected) - len(outputs) if code == 3 else 0
        return PassResult(units, outputs, len(self.expected), failed)

    def digest(self, outputs) -> str:
        return _sha(json.dumps(outputs, sort_keys=True))

    def check(self, inputs: dict, outputs: list, seed: int) -> list:
        import checks  # imports sympy, which stays out of set-up time and peak RSS

        # a check that raised was counted as failed, and so were the checks
        # after it; the reports before it must hold
        expected = self.expected[: len(outputs)]
        problems = checks.check_reports(outputs, expected)
        if checks.NEGATIVE_CONTROL in expected:
            problems += checks.check_negative_control(outputs)
        return problems + self.extra_checks(outputs, seed)

    def extra_checks(self, outputs: list, seed: int) -> list:
        return []


class CheckAll(CheckRun):
    def __init__(self):
        super().__init__("check-all", ["check", "all"], CHECK_ALL_REPORTS)

    def extra_checks(self, outputs: list, seed: int) -> list:
        """Gluing-map and quotient omega' identities against sympy, at every worst point and 4 seeded points."""
        import checks
        import oracle

        rng = np.random.default_rng([seed, 1])
        raw = [r["worst_point"] for r in outputs] + [
            (rng.uniform(0.0, 1.0), *rng.uniform(0.0, 1.0, 3)) for _ in range(4)
        ]
        omega = oracle.annulus_omega()

        psi, sigma = models.gluing_map(), models.tube_symplectic()
        problems = checks.check_two_form_identity(
            "gluing-map symplectomorphism",
            [checks.fold_into(p, checks.GLUING_DOMAIN) for p in raw],
            lambda p: chart.pullback(psi, sigma, _annulus_point(p)).coeffs,
            oracle.gluing_pullback(),
            omega,
        )
        points = [checks.fold_into(p, checks.QUOTIENT_DOMAIN) for p in raw]
        for m, k in QUOTIENTS:
            params = models.LogModelParams(m, k)
            qmap, omega_q = models.quotient_map(params), models.log_model(params)[1]
            problems += checks.check_two_form_identity(
                f"quotient omega' (m={m}, k={k})",
                points,
                lambda p: chart.pullback(qmap, omega_q, _annulus_point(p)).coeffs,
                oracle.quotient_pullback(m, k),
                omega,
            )
        return problems


class SurgeryWindows(CheckRun):
    def __init__(self):
        windows = ",".join(f"{lo}:{hi}" for lo, hi in WINDOWS)
        super().__init__("surgery-windows", ["check", "surgery", "--windows", windows], SURGERY_REPORTS)

    def extra_checks(self, outputs: list, seed: int) -> list:
        """Slice integral of each window's H by the benchmark's own quadrature: +1 by Stokes."""
        import checks

        rng = np.random.default_rng([seed, 2])
        t2 = float(rng.uniform(0.0, 1.0))
        angles = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(2)]
        problems = []
        for window in WINDOWS:
            h = models.b_extension_and_h(models.SurgeryGeometry(), window)[1]
            integral = checks.slice_integral(lambda *c: h_coefficient(h, c), window, t2, angles)
            problems += checks.check_slice_integral(window, integral)
        return problems


def h_coefficient(h, coords) -> float:
    """The dr^dt1^dt3 coefficient of a tube 3-form field at tube coordinates."""
    p = chart.ChartPoint(models.CHART_TUBE, tuple(coords), models.ANGLES)
    return h(p).value().coeffs[0b1011].real


# ------------------------------------------------------------ point queries

# one block: normal forms of B-transformed spinors (from_symplectic and
# from_complex in turn), one Courant bracket of polynomial fields, and
# type-change locus searches.  The counts give each of the three calls about
# a third of a pass, from their measured per-call times (README.md), so that
# a slowdown of any one per-point path shows in pass_s.
NORMAL_FORMS_PER_BLOCK = 8
LOCATES_PER_BLOCK = 28
BLOCKS = 200
SKEW_SAMPLE = 100
ORACLE_SAMPLE = 3

_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
_J0 = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])


def _two_form(values) -> Multiform:
    return Multiform.from_terms(4, {pair: float(v) for pair, v in zip(_PAIRS, values)})


def _symplectic_spinor(rng):
    """exp(B) ^ exp(i omega) with |Pf(omega)| >= 1/4, so omega is safely nondegenerate."""
    while True:
        c = rng.uniform(-1.0, 1.0, 6)
        if abs(c[0] * c[5] - c[1] * c[4] + c[2] * c[3]) >= 0.25:
            break
    b = _two_form(rng.uniform(-0.5, 0.5, 6))
    return spinor.b_transform(b, spinor.from_symplectic(_two_form(c)))


def _complex_spinor(rng):
    """exp(B) ^ Omega for the complex structure P J0 P^-1, with cond(P) <= 10."""
    while True:
        p = np.eye(4) + 0.4 * rng.uniform(-1.0, 1.0, (4, 4))
        if np.linalg.cond(p) <= 10.0:
            break
    b = _two_form(rng.uniform(-0.5, 0.5, 6))
    return spinor.b_transform(b, spinor.from_complex(p @ _J0 @ np.linalg.inv(p)))


def _polynomials(rng, count: int) -> list:
    """Real polynomials of degree <= 4 in the JSON expression vocabulary (no log, no division)."""
    coeffs = np.round(rng.uniform(-1, 1, (count, 4)), 6).tolist()
    sizes = rng.integers(1, 3, (count, 3)).tolist()
    coords = rng.integers(1, 5, (count, 6)).tolist()
    squared = (rng.uniform(size=(count, 6)) < 0.5).tolist()
    out = []
    for c, size, idx, sq in zip(coeffs, sizes, coords, squared):
        terms = [{"const": {"re": c[0]}}]
        for t in range(3):
            factors = [{"const": {"re": c[t + 1]}}]
            for j in range(2 * t, 2 * t + size[t]):
                factors.append({"pow": [{"coord": idx[j]}, 2]} if sq[j] else {"coord": idx[j]})
            terms.append({"mul": factors})
        out.append({"add": terms})
    return out


def _bracket_query(rng) -> dict:
    polys = _polynomials(rng, 18)
    h_terms = [
        {"indices": sorted(int(i) for i in rng.choice(4, 3, replace=False) + 1), "expr": polys[16 + t]}
        for t in range(2)
    ]
    return {
        "point": rng.uniform(-1, 1, 4).tolist(),
        "u": {"vec": polys[0:4], "cov": polys[4:8]},
        "v": {"vec": polys[8:12], "cov": polys[12:16]},
        "H": {"terms": h_terms},
    }


def bracket(query: dict, swap: bool = False):
    """Evaluate the query's Courant bracket as a library user would: fields from JSON, then the bracket."""
    u = chart.GcField.from_expressions("pq", 4, query["u"]["vec"], query["u"]["cov"])
    v = chart.GcField.from_expressions("pq", 4, query["v"]["vec"], query["v"]["cov"])
    h = chart.FormField.from_expressions("pq", 4, query["H"]["terms"])
    p = chart.ChartPoint("pq", tuple(query["point"]))
    out = chart.courant_bracket(v, u, h, p) if swap else chart.courant_bracket(u, v, h, p)
    return out.vec, out.cov


def locate(rho_field, seed):
    """One Newton search for the type-change locus from a seed point of the C^2 chart."""
    return verify.locate_type_change(rho_field, [chart.ChartPoint(models.CHART_CPLANE, seed)])[0]


class PointQueries:
    """Many independent single-point library calls; a pass is one timed unit."""

    name = "point-queries"

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        blocks = []
        for _ in range(BLOCKS):
            blocks.append(
                {
                    "nf": [  # (type, spinor)
                        (2, _complex_spinor(rng)) if j % 2 else (0, _symplectic_spinor(rng))
                        for j in range(NORMAL_FORMS_PER_BLOCK)
                    ],
                    "bracket": _bracket_query(rng),
                    "seeds": [
                        (*rng.uniform(-0.5, 0.5, 2), *rng.uniform(0.0, 1.0, 2)) for _ in range(LOCATES_PER_BLOCK)
                    ],
                }
            )
        return {"blocks": blocks}

    def run_pass(self, inputs: dict, clock) -> PassResult:
        outputs = []
        start = clock()
        for block in inputs["blocks"]:
            out = {
                "nf": [_attempt(spinor.normal_form, rho) for _, rho in block["nf"]],
                "bracket": _attempt(bracket, block["bracket"]),
            }
            rho_field = models.local_model_spinor()
            out["located"] = [_attempt(locate, rho_field, seed) for seed in block["seeds"]]
            outputs.append(out)
        units = [("queries", clock() - start)]
        results = [r for out in outputs for r in (*out["nf"], out["bracket"], *out["located"])]
        return PassResult(units, outputs, len(results), sum(r is None for r in results))

    def digest(self, outputs) -> str:
        chunks = []
        for out in outputs:
            for nf in out["nf"]:
                chunks += [None] if nf is None else [nf.type, nf.omega0.coeffs.tobytes(), nf.B.coeffs.tobytes(), nf.omega.coeffs.tobytes()]
            br = out["bracket"]
            chunks += [None] if br is None else [br[0].tobytes(), br[1].tobytes()]
            chunks += [None if lp is None else (lp.location.coords, lp.converged) for lp in out["located"]]
        return _sha(*chunks)

    def check(self, inputs: dict, outputs: list, seed: int) -> list:
        import checks
        import oracle

        problems = []
        queries, results = [], []
        for block, out in zip(inputs["blocks"], outputs):
            for (expected, rho), nf in zip(block["nf"], out["nf"]):
                if nf is not None:
                    problems += checks.check_normal_form(
                        expected, rho.coeffs, nf.type, nf.omega0.coeffs, nf.b_plus_i_omega().coeffs
                    )
            if out["bracket"] is not None:
                queries.append(block["bracket"])
                results.append(out["bracket"])
            for lp in out["located"]:
                if lp is not None:
                    problems += checks.check_located(lp.location.coords, lp.converged)

        rng = np.random.default_rng([seed, 4])
        for i in rng.choice(len(queries), min(SKEW_SAMPLE, len(queries)), replace=False):
            problems += checks.check_skew(results[i], bracket(queries[i], swap=True))
        for i in rng.choice(len(queries), min(ORACLE_SAMPLE, len(queries)), replace=False):
            problems += checks.check_bracket_oracle(results[i], oracle.courant_bracket(queries[i]))
        return problems


def _attempt(fn, *args):
    """Run one query; a query that raises counts as failed and yields None."""
    try:
        return fn(*args)
    except Exception:
        return None


WORKLOADS = {w.name: w for w in (CheckAll(), SurgeryWindows(), PointQueries())}
