"""Independent oracles for the benchmark's correctness checks.

Nothing here imports gcx.  The closed forms are transcribed again from
the model definitions (the gluing map, the tube and annulus symplectic
forms, the Z_m quotient map and omega'), differentiated by sympy, and
evaluated numerically.  Forms are returned as 16-entry coefficient
arrays indexed by the bitmask of their ascending basis monomial, the
layout gcx's Multiform uses, so the two can be compared entry by entry.
"""

import itertools

import numpy as np
import sympy as sp

DIM = 4
R, T1, T2, T3 = sp.symbols("r t1 t2 t3", real=True)
COORDS = (R, T1, T2, T3)


def _antisymmetric(coeffs: dict) -> sp.Matrix:
    """4x4 antisymmetric matrix of a 2-form given as {(i, j): expr}, 0-based i < j."""
    mat = sp.zeros(DIM, DIM)
    for (i, j), c in coeffs.items():
        mat[i, j] = c
        mat[j, i] = -c
    return mat


def _pullback_matrix(phi, target_form) -> sp.Matrix:
    """phi^* alpha as an antisymmetric matrix: J^T A(phi(x)) J."""
    jac = sp.Matrix(phi).jacobian(sp.Matrix(COORDS))
    return sp.simplify(jac.T * _antisymmetric(target_form(phi)) * jac)


class TwoFormOracle:
    """A symbolic 2-form on the 4 source coordinates, evaluated as a coefficient array."""

    def __init__(self, matrix: sp.Matrix):
        self._fn = sp.lambdify(COORDS, matrix.tolist(), "math")

    def coeffs(self, coords) -> np.ndarray:
        mat = np.array(self._fn(*(float(c) for c in coords)), dtype=float)
        out = np.zeros(1 << DIM, dtype=complex)
        for i, j in itertools.combinations(range(DIM), 2):
            out[(1 << i) | (1 << j)] = mat[i, j]
        return out


def annulus_omega() -> TwoFormOracle:
    """omega = dlog r ^ dtheta3 + dtheta1 ^ dtheta2 on the annulus chart."""
    return TwoFormOracle(_antisymmetric({(0, 3): 1 / R, (1, 2): sp.Integer(1)}))


def gluing_pullback() -> TwoFormOracle:
    """psi^* sigma for psi(r, t) = (sqrt(1 + 2 log r), t3, t2, -t1), sigma = rt drt^dt1 + dt2^dt3."""
    phi = [sp.sqrt(1 + 2 * sp.log(R)), T3, T2, -T1]
    return TwoFormOracle(_pullback_matrix(phi, lambda y: {(0, 1): y[0], (2, 3): sp.Integer(1)}))


def quotient_pullback(m: int, k: int) -> TwoFormOracle:
    """q^* omega' for q(r, t) = (r^m, m t1, t2 - k t1, t3), omega' = (dlog r'^dt3' + dt1'^dt2')/m."""
    phi = [R**m, m * T1, T2 - k * T1, T3]
    m_ = sp.Integer(m)
    return TwoFormOracle(
        _pullback_matrix(phi, lambda y: {(0, 3): 1 / (m_ * y[0]), (1, 2): 1 / m_})
    )


# ------------------------------------------------------- exterior algebra


def _sort_sign(indices) -> tuple:
    """(sign, ascending tuple) of a list of distinct indices, by bubble sort."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


def _mask_indices(mask: int) -> tuple:
    return tuple(i for i in range(DIM) if mask >> i & 1)


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge of two coefficient arrays, term by term."""
    out = np.zeros(1 << DIM, dtype=complex)
    for s in np.flatnonzero(a):
        for t in np.flatnonzero(b):
            if s & t:
                continue
            sign, _ = _sort_sign(_mask_indices(int(s)) + _mask_indices(int(t)))
            out[s | t] += sign * a[s] * b[t]
    return out


def reconstruct(omega0: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """exp(beta) ^ omega0 for a 2-form beta in dimension 4: (1 + beta + beta^beta/2) ^ omega0."""
    one = np.zeros(1 << DIM, dtype=complex)
    one[0] = 1.0
    series = one + exponent + 0.5 * wedge(exponent, exponent)
    return wedge(series, omega0)


# ------------------------------------------------------- Courant bracket


def expr_to_sympy(node: dict, xs):
    """A polynomial expression tree of the gcx JSON vocabulary as a sympy expression."""
    (kind, body), = node.items()
    if kind == "const":
        return sp.Float(body.get("re", 0.0)) + sp.I * sp.Float(body.get("im", 0.0))
    if kind == "coord":
        return xs[int(body) - 1]
    if kind == "add":
        return sp.Add(*(expr_to_sympy(c, xs) for c in body))
    if kind == "mul":
        return sp.Mul(*(expr_to_sympy(c, xs) for c in body))
    if kind == "pow":
        child, k = body
        return expr_to_sympy(child, xs) ** int(k)
    raise ValueError(f"the oracle covers polynomial nodes only, got {kind!r}")


def _three_tensor(terms, xs) -> dict:
    """Totally antisymmetric components H[a, b, c] of a 3-form from its JSON terms."""
    tensor = {}
    for term in terms:
        base = tuple(int(i) - 1 for i in term["indices"])
        coeff = expr_to_sympy(term["expr"], xs)
        for perm in itertools.permutations(base):
            sign, _ = _sort_sign(perm)
            tensor[perm] = tensor.get(perm, 0) + sign * coeff
    return tensor


def courant_bracket(query: dict) -> tuple:
    """(vec, cov) of the H-twisted Courant bracket at the query point.

    [X+xi, Y+eta]_H = [X, Y] + L_X eta - L_Y xi - d(eta(X) - xi(Y))/2 + i_Y i_X H,
    with (L_X eta)_j = X^i d_i eta_j + eta_i d_j X^i and (i_Y i_X H)_c = H(X, Y, d/dx^c).
    """
    xs = COORDS
    X = [expr_to_sympy(e, xs) for e in query["u"]["vec"]]
    xi = [expr_to_sympy(e, xs) for e in query["u"]["cov"]]
    Y = [expr_to_sympy(e, xs) for e in query["v"]["vec"]]
    eta = [expr_to_sympy(e, xs) for e in query["v"]["cov"]]
    H = _three_tensor(query["H"]["terms"], xs) if query.get("H") else {}
    n = DIM

    def lie(a, b, j):  # L_a b for a vector a and covector b, component j
        return sum(a[i] * sp.diff(b[j], xs[i]) + b[i] * sp.diff(a[i], xs[j]) for i in range(n))

    pair = sum(eta[i] * X[i] - xi[i] * Y[i] for i in range(n))
    vec = [
        sum(X[i] * sp.diff(Y[j], xs[i]) - Y[i] * sp.diff(X[j], xs[i]) for i in range(n))
        for j in range(n)
    ]
    cov = [
        lie(X, eta, c)
        - lie(Y, xi, c)
        - sp.diff(pair, xs[c]) / 2
        + sum(X[a] * Y[b] * H.get((a, b, c), 0) for a in range(n) for b in range(n))
        for c in range(n)
    ]
    subs = dict(zip(xs, query["point"]))
    return (
        np.array([complex(sp.sympify(v).evalf(subs=subs)) for v in vec]),
        np.array([complex(sp.sympify(c).evalf(subs=subs)) for c in cov]),
    )

