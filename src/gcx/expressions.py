"""JSON expression trees for chart fields.

The vocabulary is fixed so that CLI runs are reproducible bit-for-bit
from their inputs: constants, coordinates, +, x, integer powers, exp,
log, and sin/cos in the unit-period angle convention (sin of a
coordinate u means sin(2*pi*u)).  Expressions evaluate to jets with
first partials, so fields built from them carry exact derivatives.

JSON encoding, one key per node:

    {"const": {"re": 1.0, "im": 0.0}}
    {"coord": 2}                        # 1-based coordinate index
    {"add": [node, ...]}
    {"mul": [node, ...]}
    {"pow": [node, k]}                  # integer k, |k| <= 64 (MAX_POW)
    {"exp": node} | {"log": node} | {"sin": node} | {"cos": node}
"""

import math
from functools import reduce

import numpy as np

from gcx.jets import FormJet, Jet2, _Jet
from gcx.multilinear import _indices_to_mask

__all__ = [
    "evaluate",
    "validate",
    "const",
    "coord",
    "add",
    "mul",
    "power",
    "exp",
    "log",
    "sin",
    "cos",
    "random_polynomial",
]

TWO_PI = 2.0 * math.pi
MAX_POW = 64  # largest |k| of a pow node: x^k and k x^(k-1) are then taken by repeated squaring

_UNARY = {
    "exp": lambda j: j.exp(),
    "log": lambda j: j.log(),
    "sin": lambda j: (TWO_PI * j).sin(),
    "cos": lambda j: (TWO_PI * j).cos(),
}


def const(value) -> dict:
    c = complex(value)
    return {"const": {"re": c.real, "im": c.imag}}


def coord(i: int) -> dict:
    return {"coord": int(i)}


def add(*nodes) -> dict:
    return {"add": list(nodes)}


def mul(*nodes) -> dict:
    return {"mul": list(nodes)}


def power(node, k: int) -> dict:
    return {"pow": [node, int(k)]}


def exp(node) -> dict:
    return {"exp": node}


def log(node) -> dict:
    return {"log": node}


def sin(node) -> dict:
    return {"sin": node}


def cos(node) -> dict:
    return {"cos": node}


def _node_kind(node: dict) -> str:
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"malformed expression node: {node!r}")
    return next(iter(node))


def validate(node: dict, dim: int) -> None:
    """Raise ValueError on anything outside the fixed vocabulary."""
    kind = _node_kind(node)
    body = node[kind]
    if kind == "const":
        if not isinstance(body, dict):
            raise ValueError(f"const body must be a {{re, im}} object, got {body!r}")
        float(body.get("re", 0.0))
        float(body.get("im", 0.0))
    elif kind == "coord":
        if not 1 <= int(body) <= dim:
            raise ValueError(f"coordinate index {body} out of range 1..{dim}")
    elif kind in ("add", "mul"):
        if not body:
            raise ValueError(f"empty {kind} node")
        for child in body:
            validate(child, dim)
    elif kind == "pow":
        child, k = body
        if float(k) != int(k) or abs(int(k)) > MAX_POW:
            raise ValueError(f"pow exponent must be an integer with |k| <= {MAX_POW}, got {k!r}")
        validate(child, dim)
    elif kind in _UNARY:
        validate(body, dim)
    else:
        raise ValueError(f"unknown expression node kind: {kind!r}")


def evaluate(node: dict, coords: np.ndarray) -> Jet2:
    """Evaluate an expression tree to a jet at ``coords``."""
    n = len(coords)
    kind = _node_kind(node)
    body = node[kind]
    if kind == "const":
        return Jet2(n, complex(float(body.get("re", 0.0)), float(body.get("im", 0.0))))
    if kind == "coord":
        return Jet2.coordinate(n, int(body), coords[int(body) - 1])
    if kind == "add":
        return reduce(lambda a, b: a + b, (evaluate(c, coords) for c in body))
    if kind == "mul":
        return reduce(lambda a, b: a * b, (evaluate(c, coords) for c in body))
    if kind == "pow":
        child, k = body
        return evaluate(child, coords) ** int(k)
    if kind in _UNARY:
        return _UNARY[kind](evaluate(body, coords))
    raise ValueError(f"unknown expression node kind: {kind!r}")


def random_polynomial(rng: np.random.Generator, dim: int, degree: int = 2, terms: int = 3) -> dict:
    """Seeded random low-degree real polynomial in the chart coordinates."""
    nodes = [const(round(float(rng.uniform(-1, 1)), 6))]
    for _ in range(terms):
        factors = [const(round(float(rng.uniform(-1, 1)), 6))]
        for _ in range(int(rng.integers(1, degree + 1))):
            factors.append(coord(int(rng.integers(1, dim + 1))))
        nodes.append(mul(*factors))
    return add(*nodes)


def form_terms_to_jet(dim: int, terms: list, coords: np.ndarray) -> FormJet:
    """Assemble a FormJet from [{"indices": [...], "expr": node}, ...]."""
    coeffs = {}
    for term in terms:
        mask = _indices_to_mask(dim, term["indices"])
        jet = evaluate(term["expr"], coords)
        coeffs[mask] = coeffs[mask] + jet if mask in coeffs else jet
    out = FormJet.zero(dim, np.shape(coords)[1:])
    for mask, jet in coeffs.items():
        out[mask] = jet
    return out


def gc_components_to_jet(
    dim: int, vec_exprs: list, cov_exprs: list, coords: np.ndarray
) -> _Jet:
    """Assemble a generator jet of shape (2 dim,), vec then cov, from per-component expression nodes."""
    if len(vec_exprs) != dim or len(cov_exprs) != dim:
        raise ValueError(f"expected {dim} vec and cov expressions")
    out = _Jet(dim, np.zeros((2 * dim,) + np.shape(coords)[1:], dtype=complex))
    for c, node in enumerate([*vec_exprs, *cov_exprs]):
        out[c] = evaluate(node, coords)
    return out
