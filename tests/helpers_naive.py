"""Brute-force exterior algebra on sorted index tuples.

Deliberately independent of gcx.multilinear: forms are dicts mapping
ascending 1-based index tuples to complex coefficients, and every sign
comes from an explicit bubble sort.  Used as the oracle that pins
expected values in the algebra tests.  ``central_partials`` is the
finite-difference oracle for derivatives past the first, which jets do
not carry.  ``naive_evaluate`` walks an expression tree one Jet2 per node,
constants included: the oracle for ``expressions.compile``.
``random_polynomial`` is the seeded expression-tree fixture of the chart tests.
``naive_nondegeneracy_figure`` is the nondegeneracy figure before the Mukai pairing.
``naive_locus_structures`` is the induced locus structure through J, its eigenvectors, an SVD of the
Jacobians and a pseudo-inverse: the oracle for ``verify.locus_complex_structures``.  It builds J itself,
from the null space of the action of ``naive_action_table`` by SVD, and imports nothing from gcx.spinor.
"""

import math
from functools import reduce

import numpy as np

from gcx.jets import Jet2
from gcx.multilinear import Multiform


def sort_parity(seq):
    """Bubble-sort a list of distinct ints, returning (sign, sorted tuple)."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, tuple(items)


def cleanup(form):
    return {k: v for k, v in form.items() if abs(v) > 1e-300}


def naive_wedge(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            merged = list(ia) + list(ib)
            if len(set(merged)) != len(merged):
                continue
            sign, key = sort_parity(merged)
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return cleanup(out)


def naive_exp_wedge(b, partials=()):
    """sum_j b^j / j! with brute-force wedge powers, and its partials along ``partials`` (one dict per
    partial of b) by the product rule on each power: (b^j)' = (b^(j-1))' ^ b + b^(j-1) ^ b'."""

    def plus(x, y, s=1.0):
        return {k: x.get(k, 0.0) + s * y.get(k, 0.0) for k in x.keys() | y.keys()}

    out, d_out = {(): 1.0}, [{} for _ in partials]
    power, d_power = {(): 1.0}, [{} for _ in partials]
    factorial = 1.0
    for j in range(1, 5):  # dimension <= 4: every power past the fourth vanishes
        d_power = [plus(naive_wedge(dp, b), naive_wedge(power, db)) for dp, db in zip(d_power, partials)]
        power = naive_wedge(power, b)
        factorial *= j
        out = plus(out, power, 1.0 / factorial)
        d_out = [plus(do, dp, 1.0 / factorial) for do, dp in zip(d_out, d_power)]
    return cleanup(out), [cleanup(do) for do in d_out]


def naive_interior(j, form):
    """Interior product with the j-th coordinate tangent vector (1-based)."""
    out = {}
    for key, c in form.items():
        if j not in key:
            continue
        pos = key.index(j)
        rest = key[:pos] + key[pos + 1 :]
        out[rest] = out.get(rest, 0.0) + ((-1) ** pos) * c
    return cleanup(out)


def naive_nondegeneracy_figure(omega0, omega):
    """|top coefficient| of Omega ^ conj(Omega) ^ omega^(n/2 - k) by brute-force wedges, for Multiforms Omega of
    degree k, scaled here to a largest coefficient of 1, and omega: the nondegeneracy figure the Mukai pairing
    replaced, which it equals up to 2^j / j! (j = n/2 - k).  0 when k > n/2."""
    n = omega0.dim
    unit = from_multiform(omega0 / omega0.max_abs())
    form = naive_wedge(unit, {key: c.conjugate() for key, c in unit.items()})
    for _ in range(n // 2 - len(next(iter(unit)))):
        form = naive_wedge(form, from_multiform(omega))
    return abs(form.get(tuple(range(1, n + 1)), 0.0))


def naive_clifford(vec, cov, form, n):
    """(X + xi) . rho computed term by term."""
    out = {}
    for j in range(1, n + 1):
        if vec[j - 1]:
            for key, c in naive_interior(j, form).items():
                out[key] = out.get(key, 0.0) + vec[j - 1] * c
        if cov[j - 1]:
            for key, c in naive_wedge({(j,): 1.0}, form).items():
                out[key] = out.get(key, 0.0) + cov[j - 1] * c
    return cleanup(out)


def naive_action_table(n):
    """The Clifford action as a dense (2n, 2^n, 2^n) table: [j, u, s] is the dx^u coefficient of
    generator j (d/dx^1..d/dx^n, then dx^1..dx^n) acting on dx^s, term by term by naive_clifford."""
    size = 1 << n
    table = np.zeros((2 * n, size, size))
    for j, gen in enumerate(np.eye(2 * n)):
        for s in range(size):
            monomial = {tuple(i + 1 for i in range(n) if s >> i & 1): 1.0}
            table[j, :, s] = to_multiform(naive_clifford(gen[:n], gen[n:], monomial, n), n).coeffs.real
    return table


def to_multiform(form, n):
    out = np.zeros(1 << n, dtype=complex)
    for key, c in form.items():
        mask = 0
        for i in key:
            mask |= 1 << (i - 1)
        out[mask] += c
    return Multiform(n, out)


def from_multiform(rho):
    out = {}
    for mask in range(1 << rho.dim):
        c = rho.coeffs[mask]
        if c != 0:
            key = tuple(i + 1 for i in range(rho.dim) if mask >> i & 1)
            out[key] = c
    return out


def random_multiform(rng, n, degrees=None):
    coeffs = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    if degrees is not None:
        for mask in range(1 << n):
            if bin(mask).count("1") not in degrees:
                coeffs[mask] = 0.0
    return Multiform(n, coeffs)


def central_partials(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Partials of the array fn(x) at the point x (n,), or at each point of a block x (n, N), stacked on
    a last axis, by central differences."""
    steps = np.eye(len(x)).reshape((len(x), len(x)) + (1,) * (x.ndim - 1)) * h
    return np.stack([(fn(x + step) - fn(x - step)) / (2 * h) for step in steps], axis=-1)


def naive_evaluate(node: dict, coords: np.ndarray) -> Jet2:
    """An expression tree's jet at coords (n,) or (n, N): a new Jet2 per node, reduced left to right."""
    n = len(coords)
    ((kind, body),) = node.items()
    if kind == "const":
        return Jet2.constant(n, complex(float(body.get("re", 0.0)), float(body.get("im", 0.0))))
    if kind == "coord":
        return Jet2.coordinate(n, int(body), coords[int(body) - 1])
    if kind == "add":
        return reduce(lambda a, b: a + b, (naive_evaluate(c, coords) for c in body))
    if kind == "mul":
        return reduce(lambda a, b: a * b, (naive_evaluate(c, coords) for c in body))
    if kind == "pow":
        return naive_evaluate(body[0], coords) ** int(body[1])
    jet = naive_evaluate(body, coords)
    if kind == "exp":
        return jet.exp()
    if kind == "log":
        return jet.log()
    turns = 2.0 * math.pi * jet  # sin and cos of unit-period angles
    return turns.sin() if kind == "sin" else turns.cos()


def random_polynomial(rng: np.random.Generator, dim: int, degree: int = 2, terms: int = 3) -> dict:
    """A seeded random low-degree real polynomial in the chart coordinates, as a JSON expression tree."""

    def const():
        return {"const": {"re": round(float(rng.uniform(-1, 1)), 6), "im": 0.0}}

    nodes = [const()]
    for _ in range(terms):
        factors = [const()]  # drawn before the count of its coordinates
        factors += [{"coord": int(rng.integers(1, dim + 1))} for _ in range(int(rng.integers(1, degree + 1)))]
        nodes.append({"mul": factors})
    return {"add": nodes}


def naive_locus_structures(rho_field, located, lattice_basis):
    """Unreduced tau, the dbar and tangent residuals (N,) and the complex structures on T (N, n, n) at the
    located points: I = -J on T, J = S diag(i, -i) S^-1 with S = [P, conj(P)] and P the annihilator of the
    degree-2 part, the null space of its action matrix by SVD; dbar is |d(rho0)| on I's unit -i eigenvectors
    over max(1, |d(rho0)|); tangent is how far I moves the Jacobian's SVD kernel off itself; and
    l2 = a l1 + b I l1 by pseudo-inverse gives tau = a + i b."""
    coords = np.array([lp.location.coords for lp in located]).T
    jet = rho_field(located[0].location.with_coords(coords))
    n = jet.dim
    degree = np.array([bin(s).count("1") for s in range(1 << n)])
    action = np.einsum("jus,sp->puj", naive_action_table(n), np.where(degree[:, None] == 2, jet.values, 0.0))
    kernel = np.linalg.svd(action)[2][:, n:].conj().swapaxes(1, 2)  # (N, 2n, n): the last n right singular vectors
    s = np.concatenate([kernel, kernel.conj()], axis=2)
    cplx = -(s @ np.diag([1j] * n + [-1j] * n) @ np.linalg.inv(s)).real[:, :n, :n]
    evals, evecs = np.linalg.eig(cplx)
    drho0 = jet.grads[0]  # (N, n)
    dots = np.abs((drho0[:, None, :] @ evecs)[:, 0])
    dbar = np.where(np.abs(evals + 1j) < 1e-6, dots, 0.0).max(axis=1) / np.maximum(1.0, np.linalg.norm(drho0, axis=1))
    jac = np.stack([drho0.real, drho0.imag], axis=1)  # (N, 2, n)
    t_basis = np.linalg.svd(jac)[2][:, 2:].swapaxes(1, 2)  # (N, n, 2)
    off = np.eye(n) - t_basis @ t_basis.swapaxes(1, 2)
    tangent = np.abs(off @ cplx @ t_basis).max(axis=(1, 2))
    l1, l2 = (np.asarray(v, dtype=float) for v in lattice_basis)
    basis = np.stack([np.broadcast_to(l1, (len(located), n)), cplx @ l1], axis=-1)  # (N, n, 2)
    ab = np.linalg.pinv(basis) @ l2
    return ab[:, 0] + 1j * ab[:, 1], dbar, tangent, cplx
