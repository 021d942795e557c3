#!/usr/bin/env python3
"""Benchmark for gcx: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (setup_s, pass_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output checked is correct, 1 when one is wrong, and 1 without a result
when the gcx sources are missing from the checkout.  See README.md.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("check-all", "surgery-windows", "point-queries")
SETUP_PROBES = 7
# a fresh interpreter that imports numpy and says ready: the part of every
# set-up probe that runs none of gcx's code, timed right after each probe
REFERENCE_START = ["-c", "import numpy; print('ready', flush=True)"]
# the time set-up counts for it: about its typical wall time on the machine in README.md
REFERENCE_START_S = 0.15
MIN_PASSES = 2  # plain passes per run, however long a pass takes


def load_gcx() -> None:
    """Put the checkout's sources first on the path; refuse any other copy of gcx."""
    if not (SRC / "gcx" / "__init__.py").is_file():
        sys.exit(f"error: no gcx sources under {SRC}; run from the root of a gcx checkout")
    sys.path.insert(0, str(SRC))
    import gcx

    if Path(gcx.__file__).resolve().parent != SRC / "gcx":
        sys.exit(f"error: gcx was imported from {gcx.__file__}, not from {SRC}")


def probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import gcx, say so, build the inputs, say ready.

    The ready line carries the input building's time at the reference
    host speed, sampled as for the passes (hostspeed.py).
    """
    load_gcx()
    import hostspeed
    import workloads

    print("imported", flush=True)
    with hostspeed.HostSpeed() as host:
        start = host.clock()
        workloads.WORKLOADS[workload].setup(seed)
        built = host.clock() - start
    # inputs built too fast for a single sample count as measured
    slowdown = host.slowdown([(0, len(host.samples))]) if host.samples else 1.0
    print(f"ready {built / slowdown!r}", flush=True)


def start_lines(args: list) -> tuple:
    """Spawn a fresh interpreter with ``args``; the wall time to each of its output lines, and the lines."""
    cmd = [sys.executable, *args]
    times, lines = [], []
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        for line in proc.stdout:
            times.append(time.perf_counter() - start)
            lines.append(line.split())
    if proc.returncode != 0 or not lines or lines[-1][:1] != ["ready"]:
        sys.exit(f"error: set-up probe exited with {proc.returncode}")
    return times, lines


def setup_samples(workload: str, seed: int) -> list:
    """Set-up probes, each with the reference start taken right after it.

    Each sample is (wall time to ready, wall time to imported, input
    building at the reference host speed, reference start).
    """
    probe_args = [str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        (imported, ready), (_, ready_line) = start_lines(probe_args)
        reference = start_lines(REFERENCE_START)[0][0]
        samples.append((ready, imported, float(ready_line[1]), reference))
    return samples


class Passes:
    """The passes of one kind (plain or traced) and the host-speed samples taken during them."""

    def __init__(self):
        self.units = []  # one [(unit, seconds)] list per pass
        self.spans = []  # (lo, hi) indices of each pass's host-speed samples

    def at_reference_speed(self, host) -> dict:
        """Each unit's mean time over the passes, scaled to the reference host speed.

        Dividing by the slowdown sampled during these same passes takes
        out what the other tenants of the host cost the run (hostspeed.py).
        """
        scale = 1.0 / (len(self.units) * host.slowdown(self.spans))
        totals = {}
        for units in self.units:
            for name, seconds in units:
                totals[name] = totals.get(name, 0.0) + seconds
        return {name: total * scale for name, total in totals.items()}


def layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    import tracer
    import workloads

    units = tracer.metric_units()
    units.update({f"verify.{report}.s": "s" for report in workloads.ALL_REPORTS})
    units["cli.write_reports.s"] = "s"
    units["trace.overhead_s"] = "s"
    units["host.slowdown"] = "x"
    units["host.pass_wall_s"] = "s"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0

    load_gcx()
    setups = [] if args.trace else setup_samples(args.workload, args.seed)

    import hostspeed
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    host = hostspeed.HostSpeed()
    tracer = tracing.Tracer(host.clock) if args.trace else None

    plain, traced, layer_passes = Passes(), Passes(), []
    digests, attempted, failed = set(), 0, 0
    first = None
    start = time.perf_counter()
    with host:
        while True:
            use_trace = tracer is not None and len(traced.units) < len(plain.units)  # alternate
            lo = len(host.samples)
            if use_trace:
                tracer.begin_pass()
                try:
                    result = wl.run_pass(inputs, host.clock)
                finally:
                    layer_passes.append(tracer.end_pass())
            else:
                result = wl.run_pass(inputs, host.clock)
            kind = traced if use_trace else plain
            kind.units.append(result.units)
            kind.spans.append((lo, len(host.samples)))
            attempted += result.attempted
            failed += result.failed
            digests.add(wl.digest(result.outputs))
            first = first or result
            if time.perf_counter() - start >= args.seconds and len(plain.units) >= MIN_PASSES:
                if tracer is None or traced.units:
                    break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness, after measuring: sympy stays out of the timings and the peak RSS
    problems = wl.check(inputs, first.outputs, args.seed)
    if len(digests) != 1:
        problems.append(f"passes over the same inputs gave {len(digests)} different outputs")

    plain_units = plain.at_reference_speed(host)
    pass_s = math.fsum(plain_units.values())
    if tracer is None:
        metrics = {
            # Python's and numpy's start at a fixed time, gcx's imports as measured,
            # the inputs at the reference host speed (README.md)
            "setup_s": (REFERENCE_START_S + statistics.median(i - r + b for _, i, b, r in setups), "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        # counts from the first traced pass (every pass repeats them), self
        # times as the traced passes' mean and check times as the plain
        # passes' mean, both at the reference host speed
        traced_scale = 1.0 / (len(layer_passes) * host.slowdown(traced.spans))
        values = {name: layer_passes[0][name] for name in tracing.metric_units()}
        values.update(
            {name: traced_scale * math.fsum(p[name] for p in layer_passes) for name in values if name.endswith(".self_s")}
        )
        values.update({f"verify.{report}.s": plain_units.get(report, 0.0) for report in workloads.ALL_REPORTS})
        values["cli.write_reports.s"] = plain_units.get(workloads.WRITE_UNIT, 0.0)
        values["trace.overhead_s"] = math.fsum(traced.at_reference_speed(host).values()) - pass_s
        values["host.slowdown"] = host.slowdown(plain.spans)
        values["host.pass_wall_s"] = pass_s * values["host.slowdown"]
        metrics = {name: (values[name], unit) for name, unit in layer_units().items()}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.save(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    if failed:
        print(f"warning: {failed} of {attempted} operations raised; the figures time shorter passes", file=sys.stderr)
    # the raw figure shows a run whose slowdown correction is off
    slowdown = host.slowdown(plain.spans)
    print(
        f"{args.workload} seed {args.seed}: {len(plain.units)} plain and {len(traced.units)} traced passes, "
        f"{attempted} operations, {failed} failed; raw mean pass {pass_s * slowdown:.4f} s, "
        f"host slowdown {slowdown:.4f} over {len(host.samples)} samples",
        file=sys.stderr,
    )
    if setups:
        print(
            f"raw set-up {statistics.median(s[0] for s in setups):.4f} s, "
            f"imports {statistics.median(s[1] for s in setups):.4f} s, "
            f"reference start {statistics.median(s[3] for s in setups):.4f} s, "
            f"inputs at reference speed {statistics.median(s[2] for s in setups):.4f} s",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
