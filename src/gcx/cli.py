"""Command-line entry point.

Subcommands:

* ``gcx check {local-model|surgery|quotient|locus|all}`` -- run the
  deterministic verification suites, write a JSON array of check
  reports, print one summary line per check, and exit 0 iff all pass.
* ``gcx normal-form --input spinor.json`` -- factor a pure spinor.
* ``gcx bracket --input fields.json`` -- evaluate a Courant bracket at
  a point from JSON expression fields.

Exit codes: 0 success, 1 check failure, 2 usage, config or input error or
an unwritable output, 3 runtime assertion failure (partial report written).
Every ``--output`` must be a regular file in an existing directory, checked
before any work, and is written whole or not at all.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from gcx.chart import ChartPoint, FormField, GcField, courant_bracket
from gcx.models import LogModelParams, SurgeryGeometry
from gcx.multilinear import Multiform
from gcx.spinor import check_nondegenerate, normal_form
from gcx import verify

DEFAULT_QUOTIENTS = ((1, 0), (2, 1), (3, 2), (5, 2))
# the largest certified quotient model: the orbit check walks m deck steps, and B''s pullback cancels
# terms of size k m / r, which at m = 153, k = 100, r = 0.1 leaves 3e-11 of its 1e-10 bound
MAX_M, MAX_K = 200, 100
CHECK_TARGETS = ("local-model", "surgery", "quotient", "locus", "all")

# what malformed input raises: wrong types, missing keys and floating-point faults such as a log of 0
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, ArithmeticError)


@dataclass
class RunConfig:
    """Resolved configuration of one ``gcx check`` invocation."""

    target: str
    seed: int
    samples: int
    tol: float
    tol_second: float
    geometry: SurgeryGeometry
    quotients: list
    windows: list
    output: str

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("--samples must be >= 1")
        if not all(math.isfinite(t) and t > 0 for t in (self.tol, self.tol_second)):
            raise ValueError("tolerances must be positive and finite")
        if not self.geometry.r_min < 1:  # the samplers draw r from [r_min, 1]
            raise ValueError(f"--r-min must be < 1, got {self.geometry.r_min}")
        # 1/r'^2 = r^(-2m) is finite while r^(2m) is a normal double at the innermost sampled radius
        r_lo = max(self.geometry.r_min, verify.QUOTIENT_R_LO)
        m_max = min(MAX_M, int(math.log(sys.float_info.min) / (2.0 * math.log(r_lo))))
        for m, k in self.quotients:
            if not (1 <= m <= m_max and abs(k) <= MAX_K):
                raise ValueError(f"--m {m} --k {k}: need 1 <= m <= {m_max} at this --r-min and |k| <= {MAX_K}")
            LogModelParams(m, k)  # k coprime with m
        if self.target not in CHECK_TARGETS:
            raise ValueError(f"unknown check target {self.target!r}")
        lo_prev = None
        for lo, hi in self.windows:
            if not 1.0 <= lo < hi < math.inf:
                raise ValueError(f"bump window ({lo}, {hi}) must satisfy 1 <= lo < hi < inf")
            if lo_prev is not None and lo < lo_prev:
                raise ValueError("bump windows must be disjoint and ascending")
            lo_prev = hi


def _env_seed() -> int:
    raw = os.environ.get("GCX_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"GCX_SEED must be an integer, got {raw!r}") from exc


def _parse_windows(raw: str, r_out: float) -> list:
    if not raw:
        return [(1.0, r_out)]
    out = []
    for part in raw.split(","):
        lo, _, hi = part.partition(":")
        out.append((float(lo), float(hi)))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcx",
        description="Deterministic verification of generalized complex local models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification suites")
    check.add_argument("target", choices=CHECK_TARGETS)
    check.add_argument("--seed", type=int, default=None, help="PRNG seed (default GCX_SEED or 42)")
    check.add_argument("--samples", type=int, default=1000)
    check.add_argument("--tol", type=float, default=None, help="residual tolerance (default 1e-9)")
    check.add_argument("--r-min", type=float, default=0.05)
    check.add_argument("--r-out", type=float, default=2.0)
    check.add_argument("--profile", choices=("flat", "poly"), default="flat")
    check.add_argument("--m", type=int, default=None, help="quotient multiplicity")
    check.add_argument("--k", type=int, default=None, help="quotient twist, coprime with m")
    check.add_argument(
        "--windows",
        default="",
        help="disjoint bump descent windows, e.g. '1:2,2.5:3.5' (default '1:<r-out>')",
    )
    check.add_argument("--output", default="gcx-report.json", help="report file path")

    nf = sub.add_parser("normal-form", help="factor a pure spinor from JSON")
    nf.add_argument("--input", required=True)
    nf.add_argument("--tol", type=float, default=1e-9)
    nf.add_argument("--output", default=None)

    br = sub.add_parser("bracket", help="evaluate a Courant bracket at a point")
    br.add_argument("--input", required=True)
    br.add_argument("--output", default=None)

    return parser


def config_from_args(args) -> RunConfig:
    seed = args.seed if args.seed is not None else _env_seed()
    tol = args.tol if args.tol is not None else 1e-9
    tol_second = args.tol if args.tol is not None else 1e-8
    geometry = SurgeryGeometry(r_min=args.r_min, r_out=args.r_out, profile=args.profile)
    if (args.m is None) != (args.k is None):
        raise ValueError("--m and --k must be given together")
    if args.m is not None:
        quotients = [(args.m, args.k)]
    else:
        quotients = list(DEFAULT_QUOTIENTS)
    cfg = RunConfig(
        target=args.target,
        seed=seed,
        samples=args.samples,
        tol=tol,
        tol_second=tol_second,
        geometry=geometry,
        quotients=quotients,
        windows=_parse_windows(args.windows, args.r_out),
        output=args.output,
    )
    cfg.validate()
    return cfg


def run_checks(cfg: RunConfig, reports: list | None = None) -> list:
    """Make the reports of ``verify.check_plan(cfg)`` in order, each named after its row.

    Completed reports are appended to ``reports`` as they finish, so a
    failure partway through still leaves the partial list behind.
    """
    reports = [] if reports is None else reports
    for name, make in verify.check_plan(cfg):
        rep = make()
        rep.check = name
        reports.append(rep)
    return reports


def _check_output(path: str) -> None:
    """Refuse an --output that is not a regular file in an existing directory.

    The output is renamed over the path, which would replace a FIFO or a device node there."""
    irregular = os.path.exists(path) and not os.path.isfile(path)
    if irregular or not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--output {path!r} is not a file in an existing directory")


def _write_text(path: str, text: str) -> None:
    """Write text whole or not at all: a temporary file beside path, then a rename."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_reports(path: str, reports: list) -> None:
    """Write the reports as one JSON array, whole or not at all."""
    _write_text(path, json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")


def _cmd_check(args) -> int:
    cfg = config_from_args(args)
    reports, failure = [], ""
    try:
        run_checks(cfg, reports)
    except Exception as exc:  # runtime assertion failure: partial report, exit 3
        failure = f"runtime failure: {exc}"
    try:
        _write_reports(cfg.output, reports)
    except OSError as exc:  # an unwritable report: exit 2, or 3 after a runtime failure
        print(*filter(None, [failure, f"error: cannot write {cfg.output}: {exc}"]), sep="\n", file=sys.stderr)
        return 3 if failure else 2
    if failure:
        print(failure, f"partial report written to {cfg.output}", sep="\n", file=sys.stderr)
        return 3
    lines = [rep.summary_line() for rep in reports] + [f"report written to {cfg.output}"]
    return _emit(lines) or (0 if all(r.passed for r in reports) else 1)


def _emit(lines: list, path: str | None = None, text: str = "") -> int:
    """Write text to path, if given, then print lines: 0, or 2 with one error line if either fails.

    A stdout that failed keeps its buffer and flushes it again at exit, so its descriptor goes to the null device."""
    try:
        if path:
            _write_text(path, text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    try:
        print("\n".join(lines), flush=True)
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # a stream with no file descriptor, as in a test
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2
    return 0


def _read_json(path: str) -> dict:
    with open(path) as handle:
        if isinstance(data := json.load(handle), dict):
            return data
    raise ValueError(f"--input must hold a JSON object, got {type(data).__name__}")


def _cmd_normal_form(args) -> int:
    if not 0 < args.tol < 1:  # NaN fails too; a tol >= 1 keeps no singular value, so no spinor is pure
        raise ValueError(f"--tol must be finite and in (0, 1), got {args.tol}")
    nf = normal_form(Multiform.from_json_dict(_read_json(args.input)), args.tol)
    nondeg = "n/a (odd dimension)" if nf.dim % 2 else check_nondegenerate(nf, args.tol)
    lines = [f"type: {nf.type}", f"omega0: {nf.omega0}", f"B: {nf.B}", f"omega: {nf.omega}"]
    lines += [f"gauge unique: {nf.gauge_unique}", f"nondegenerate: {nondeg}"]
    return _emit(lines, args.output, json.dumps(nf.to_json_dict(), indent=2) + "\n")


def _cmd_bracket(args) -> int:
    data = _read_json(args.input)
    dim = data.get("dim", 4)
    if dim not in (2, 3, 4):  # the kernel's tables grow as 8^dim; int() would truncate 3.5
        raise ValueError(f"dim must be 2, 3 or 4, got {dim!r}")
    dim, chart = int(dim), data.get("chart", "cli")
    periodic = data.get("periodic", [False] * dim)
    if not isinstance(periodic, list) or not all(isinstance(b, bool) for b in periodic):
        raise ValueError(f"periodic must be a list of JSON booleans, got {periodic!r}")
    coords = data["point"]  # finite JSON numbers only: float() would read "0.5" and true
    numbers = isinstance(coords, list) and all(type(c) in (int, float) and math.isfinite(c) for c in coords)
    if not (numbers and len(coords) == dim):
        raise ValueError(f"point must be a list of {dim} finite numbers, got {coords!r}")
    point = ChartPoint(chart, tuple(map(float, coords)), periodic)
    u = GcField.from_expressions(chart, dim, data["u"]["vec"], data["u"]["cov"])
    v = GcField.from_expressions(chart, dim, data["v"]["vec"], data["v"]["cov"])
    h = None
    if data.get("H") is not None:
        h = FormField.from_expressions(chart, dim, data["H"]["terms"])
    with np.errstate(all="raise", under="ignore"):
        out = courant_bracket(u, v, h, point)
    # input safety: a bracket that is not finite is refused, whatever arithmetic produced it
    if not np.isfinite(out.as_array()).all():
        raise ValueError("the bracket is not finite at this point")

    payload = {
        "vec": [{"re": float(c.real), "im": float(c.imag)} for c in out.vec],
        "cov": [{"re": float(c.real), "im": float(c.imag)} for c in out.cov],
    }
    text = json.dumps(payload, indent=2)
    return _emit([text], args.output, text + "\n")


COMMANDS = {"check": _cmd_check, "normal-form": _cmd_normal_form, "bracket": _cmd_bracket}


def main(argv=None) -> int:
    """Run one subcommand: bad input is one ``error:`` line and exit 2, a failed cross-check exit 3."""
    args = build_parser().parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        return COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # --input nested past the stack, met by json.load, compile or evaluation
        print(f"error: --input {args.input!r} is nested too deep", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a cross-check failed
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
