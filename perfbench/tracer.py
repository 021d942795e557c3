"""Per-layer tracing: spans and counters around gcx's public functions.

The wrappers live here, outside ``src/gcx``: ``install`` replaces each
traced function or method on its module or class (and on every gcx
module that imported it by name) with a wrapper that records a span, and
``uninstall`` puts the originals back.  A span is (name, parent span,
start, end); spans stay in memory, in flat arrays, until ``save`` writes
them out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# metric prefix -> (module, attribute path) of the traced callable
SPANS = {
    "multilinear.wedge": ("gcx.multilinear", "Multiform.wedge"),
    "multilinear.clifford": ("gcx.multilinear", "clifford"),
    "multilinear.action_matrix": ("gcx.multilinear", "action_matrix"),
    "spinor.normal_form": ("gcx.spinor", "normal_form"),
    "jets.FormJet.wedge": ("gcx.jets", "FormJet.wedge"),
    "jets.FormJet.scale": ("gcx.jets", "FormJet.scale"),
    "jets.FormJet.d": ("gcx.jets", "FormJet.d"),
    "jets.FormJet.exp_wedge": ("gcx.jets", "FormJet.exp_wedge"),
    "expressions.evaluate": ("gcx.expressions", "evaluate"),
    "chart.pullback_jet": ("gcx.chart", "pullback_jet"),
    "chart.ChartMap.jets": ("gcx.chart", "ChartMap.jets"),
    "chart.integrability_residual": ("gcx.chart", "integrability_residual"),
    "chart.courant_bracket": ("gcx.chart", "courant_bracket"),
    "verify.locate_type_change": ("gcx.verify", "locate_type_change"),
}
# evaluations of the H field returned by models.b_extension_and_h
H_FIELD = "models.h_field"
SPAN_NAMES = (*SPANS, H_FIELD)
JET2_CREATED = "jets.Jet2.created"
FIELD_CALLS = "models.field.calls"
MAP_JETS_PER_POINT = "chart.map_jets_per_point"


def metric_units() -> dict:
    """Every metric a traced pass yields, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[JET2_CREATED] = "count"
    units[FIELD_CALLS] = "count"
    units[MAP_JETS_PER_POINT] = "calls/point"
    return units


class Tracer:
    """Spans and counters for the passes run between ``begin_pass`` and ``end_pass``, timed on ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_id = array("i")
        self._stack = []
        self._pass = -1
        self._first_span = 0
        self.counts = Counter()
        self._map_points = set()
        self._maps = {}
        self._saved = []

    # ------------------------------------------------------------ wrapping

    def _spanned(self, name: str, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, pass_id, stack = (
            self.name_id, self.parent, self.start, self.end, self.pass_id, self._stack
        )
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self._pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, module: str, attr: str, new) -> None:
        """Swap a module-level function on every gcx module that holds it."""
        orig = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if name == "gcx" or name.startswith("gcx."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, new)

    def install(self) -> None:
        from gcx import chart, jets

        for name, (module, path) in SPANS.items():
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[module], owner_name)
                orig = owner.__dict__[attr]
                new = self._spanned(name, orig)
                if name == "chart.ChartMap.jets":
                    new = self._recording_map_points(new)
                self._replace(owner, attr, new)
            else:
                self._replace_function(module, attr, self._spanned(name, getattr(sys.modules[module], attr)))

        self._replace(jets.Jet2, "__init__", self._counted(JET2_CREATED, jets.Jet2.__init__))

        # every FormField counts its evaluations, through __call__ or .fn alike
        field_init = chart.FormField.__init__
        counted = self._counted

        def form_field_init(field, *args, **kwargs):
            field_init(field, *args, **kwargs)
            object.__setattr__(field, "fn", counted(FIELD_CALLS, field.fn))

        self._replace(chart.FormField, "__init__", form_field_init)

        models = sys.modules["gcx.models"]
        b_and_h = models.b_extension_and_h
        spanned = self._spanned

        def b_extension_and_h(*args, **kwargs):
            btilde, h = b_and_h(*args, **kwargs)
            object.__setattr__(h, "fn", spanned(H_FIELD, h.fn))
            return btilde, h

        self._replace_function("gcx.models", "b_extension_and_h", b_extension_and_h)

    def _recording_map_points(self, jets_fn):
        points, maps = self._map_points, self._maps

        def wrapper(chart_map, coords):
            maps[id(chart_map)] = chart_map  # keeps ids unique while the keys live
            points.add((id(chart_map), np.asarray(coords, dtype=float).tobytes()))
            return jets_fn(chart_map, coords)

        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ passes

    def begin_pass(self) -> None:
        self._pass += 1
        self._first_span = len(self.start)
        self.counts.clear()
        self._map_points.clear()
        self._maps.clear()
        self.install()

    def end_pass(self) -> dict:
        """Uninstall, then return this pass's metrics by name."""
        self.uninstall()
        lo = self._first_span
        ids = np.array(self.name_id[lo:], dtype=np.int64)
        parents = np.array(self.parent[lo:], dtype=np.int64)
        dur = np.array(self.end[lo:]) - np.array(self.start[lo:])
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested] - lo, dur[nested])
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=dur - child, minlength=len(self.names))

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out[JET2_CREATED] = self.counts[JET2_CREATED]
        out[FIELD_CALLS] = self.counts[FIELD_CALLS]
        map_calls = out["chart.ChartMap.jets.calls"]
        out[MAP_JETS_PER_POINT] = map_calls / len(self._map_points) if map_calls else 0.0
        self._maps.clear()
        return out

    def save(self, path) -> None:
        """Write every recorded span: names, name id, parent index, pass, start and end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            pass_id=np.array(self.pass_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
