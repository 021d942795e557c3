"""JSON expression trees for chart fields.

The vocabulary is fixed so that CLI runs are reproducible bit-for-bit
from their inputs: constants, coordinates, +, x, integer powers, exp,
log, and sin/cos in the unit-period angle convention (sin of a
coordinate u means sin(2*pi*u)).  Expressions evaluate to jets with
first partials, so fields built from them carry exact derivatives.
A field compiles its trees once, at construction (``compile``, which
validates too): constants stay numbers, folded into constant jets, and
every evaluation shares one set of coordinate jets among the trees.

JSON encoding, one key per node:

    {"const": {"re": 1.0, "im": 0.0}}
    {"coord": 2}                        # 1-based coordinate index
    {"add": [node, ...]}
    {"mul": [node, ...]}
    {"pow": [node, k]}                  # integer k, |k| <= 64 (MAX_POW)
    {"exp": node} | {"log": node} | {"sin": node} | {"cos": node}
"""

import cmath
import math
import operator

import numpy as np

from gcx.jets import FormJet, Jet2, _Jet
from gcx.multilinear import _indices_to_mask, _integer

__all__ = ["compile", "evaluate"]

TWO_PI = 2.0 * math.pi
MAX_POW = 64  # largest |k| of a pow node: x^k and k x^(k-1) are then taken by repeated squaring

_UNARY = {
    "exp": lambda j: j.exp(),
    "log": lambda j: j.log(),
    "sin": lambda j: (TWO_PI * j).sin(),
    "cos": lambda j: (TWO_PI * j).cos(),
}


def _run(f, xs: list) -> Jet2:
    """A compiled tree's jet at the coordinate jets xs: a folded constant is its own jet."""
    return f if isinstance(f, Jet2) else f(xs)


def compile(node: dict, dim: int):
    """Validate a tree in one walk (ValueError outside the vocabulary) and return its evaluator.

    The evaluator maps the ``coordinate_jets`` to the tree's Jet2.  A const, and an add or mul of
    constants, folds here into one constant jet, built once and never written, that keeps its operand
    position: sums and products run in the tree's order and arithmetic.  A tree without coordinates
    compiles to its jet; pow and the unary nodes act on a constant when evaluated, so 0 ** -1 raises there.
    """
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"malformed expression node: {node!r}")
    ((kind, body),) = node.items()
    if kind == "const":
        if not isinstance(body, dict):
            raise ValueError(f"const body must be a {{re, im}} object, got {body!r}")
        value = complex(float(body.get("re", 0.0)), float(body.get("im", 0.0)))
        if not cmath.isfinite(value):
            raise ValueError(f"const must be finite, got {value}")
        return Jet2.constant(dim, value)
    if kind == "coord":
        if not 1 <= (i := _integer(body, "a coordinate index")) <= dim:
            raise ValueError(f"coordinate index {i} out of range 1..{dim}")
        return operator.itemgetter(i - 1)
    if kind in ("add", "mul"):
        if not body:
            raise ValueError(f"empty {kind} node")
        op = operator.add if kind == "add" else operator.mul
        head, *rest = [compile(child, dim) for child in body]
        while rest and isinstance(head, Jet2) and isinstance(rest[0], Jet2):  # the leading constants
            head = op(head, rest.pop(0))

        def run(xs: list) -> Jet2:
            out = _run(head, xs)
            for f in rest:
                out = op(out, _run(f, xs))
            return out

        return run if rest else head
    if kind == "pow":
        child, k = body
        if abs(k := _integer(k, "a pow exponent")) > MAX_POW:
            raise ValueError(f"pow exponent must be an integer with |k| <= {MAX_POW}, got {k!r}")
        inner = compile(child, dim)
        return lambda xs: _run(inner, xs) ** k
    if kind in _UNARY:
        inner, fn = compile(body, dim), _UNARY[kind]
        return lambda xs: fn(_run(inner, xs))
    raise ValueError(f"unknown expression node kind: {kind!r}")


def coordinate_jets(dim: int, coords: np.ndarray) -> list:
    """The coordinate functions at coords (a point, or a block), shared by every tree of a field."""
    return [Jet2.coordinate(dim, i + 1, coords[i]) for i in range(dim)]


def evaluate(node: dict, coords: np.ndarray) -> Jet2:
    """Evaluate an expression tree to a jet at ``coords``."""
    return _run(compile(node, len(coords)), coordinate_jets(len(coords), coords))


def _assemble(jet_type, size: int, dim: int, slots: list, evaluators: list):
    """coords -> a jet of ``size`` components, each slot's evaluated trees summed into it in order."""

    def fn(coords: np.ndarray):
        xs, parts = coordinate_jets(dim, coords), {}
        for slot, evaluator in zip(slots, evaluators):
            jet = _run(evaluator, xs)
            parts[slot] = parts[slot] + jet if slot in parts else jet
        out = jet_type.constant(dim, np.zeros((size,) + np.shape(coords)[1:], dtype=complex))
        for slot, jet in parts.items():
            out[slot] = jet
        return out

    return fn


def compile_form(dim: int, terms: list):
    """Compile [{"indices": [...], "expr": node}, ...] once: coords -> FormJet."""
    evaluators = [compile(term["expr"], dim) for term in terms]
    return _assemble(FormJet, 1 << dim, dim, [_indices_to_mask(dim, term["indices"]) for term in terms], evaluators)


def compile_generator(dim: int, vec_exprs: list, cov_exprs: list):
    """Compile per-component expression nodes once: coords -> generator jet of shape (2 dim,), vec then cov."""
    evaluators = [compile(node, dim) for node in [*vec_exprs, *cov_exprs]]
    if len(vec_exprs) != dim or len(cov_exprs) != dim:
        raise ValueError(f"expected {dim} vec and cov expressions")
    return _assemble(_Jet, 2 * dim, dim, range(2 * dim), evaluators)
