"""Correctness predicates for the benchmark's outputs.

Each function returns a list of problems, empty when the output is
correct.  The predicates compare against inputs of known type, against
Stokes' theorem and against the sympy oracles in ``oracle.py``, never
against a stored copy of an earlier run.  ``test_checks.py`` feeds each
one a wrong output and asserts that it is rejected.
"""

import math

import numpy as np

from oracle import reconstruct

ORACLE_TOL = 1e-9
STOKES_TOL = 1e-6
LOCUS_TOL = 1e-10
NEGATIVE_CONTROL = "h_sign_negative_control"

# domains of the two identities on the annulus chart, (r_lo, r_hi)
GLUING_DOMAIN = (1.0 / math.sqrt(math.e), 1.0)
QUOTIENT_DOMAIN = (0.1, 1.0)


def check_reports(reports: list, expected: list) -> list:
    """Every expected report is present, in order, and passes."""
    names = [r["check"] for r in reports]
    problems = []
    if names != list(expected):
        problems.append(f"report names {names} != expected {list(expected)}")
    problems += [f"report {r['check']} failed" for r in reports if not r["pass"]]
    return problems


def check_negative_control(reports: list) -> list:
    """The wrong-sign twist must leave a large residual, not merely a passing flag."""
    found = [r for r in reports if r["check"] == NEGATIVE_CONTROL]
    if not found:
        return [f"{NEGATIVE_CONTROL} report missing"]
    res = found[0]["max_residual"]
    return [] if res > 1e-3 else [f"{NEGATIVE_CONTROL} residual {res:.3e} is not > 1e-3"]


def fold_into(point, domain) -> tuple:
    """Map a 4-d report point into an annulus domain: radius folded into it, angles mod 1."""
    lo, hi = domain
    r = float(point[0])
    if not lo < r <= hi:
        r = lo + (hi - lo) * (0.05 + 0.9 * (abs(r) % 1.0))
    return (r, *(float(c) % 1.0 for c in point[1:]))


def check_two_form_identity(label, points, program, oracle_lhs, oracle_rhs) -> list:
    """At each point, the program's 2-form equals the oracle's pullback, which equals the target form.

    ``program(point)`` returns the program's 16 coefficients of the
    pulled-back form; ``oracle_lhs`` and ``oracle_rhs`` are the symbolic
    pullback and the form it must equal.
    """
    problems = []
    for p in points:
        lhs = oracle_lhs.coeffs(p)
        gap_identity = np.abs(lhs - oracle_rhs.coeffs(p)).max()
        gap_program = np.abs(np.asarray(program(p)) - lhs).max()
        if gap_identity > ORACLE_TOL or gap_program > ORACLE_TOL:
            problems.append(
                f"{label} at {tuple(round(c, 6) for c in p)}: oracle identity gap "
                f"{gap_identity:.2e}, program vs oracle {gap_program:.2e}"
            )
    return problems


def slice_integral(h_coefficient, window, t2, angles, intervals: int = 256) -> float:
    """Integral of H over {t2 = const}, oriented dr^dt1^dt3, by the trapezoidal rule.

    ``h_coefficient(r, t1, t2, t3)`` is the dr^dt1^dt3 coefficient of H.
    The radial rule is the trapezoid over the descent window (spectrally
    accurate for a bump that is flat at both ends); the angular average
    uses the given (t1, t3) pairs.
    """
    lo, hi = window
    radii = np.linspace(lo, hi, intervals + 1)
    weights = np.full(intervals + 1, (hi - lo) / intervals)
    weights[[0, -1]] *= 0.5
    total = 0.0
    for r, w in zip(radii, weights):
        total += w * np.mean([h_coefficient(r, a1, t2, a3) for a1, a3 in angles])
    return float(total)


def check_slice_integral(window, integral: float) -> list:
    """By Stokes the oriented slice integral of H = d(Btilde) is +1; -1 must fail."""
    if abs(integral - 1.0) <= STOKES_TOL:
        return []
    return [f"slice integral over window {window} = {integral:.9f}, expected +1"]


def check_normal_form(expected_type: int, rho, nf_type: int, omega0, exponent) -> list:
    """normal_form gives the type the spinor was built with and exp(B + i omega)^omega0 = rho."""
    problems = []
    if nf_type != expected_type:
        problems.append(f"normal_form type {nf_type}, built as type {expected_type}")
    gap = np.abs(reconstruct(omega0, exponent) - rho).max()
    if gap > ORACLE_TOL * max(1.0, np.abs(rho).max()):
        problems.append(f"normal_form does not reconstruct its spinor (gap {gap:.2e})")
    return problems


def check_skew(forward, backward) -> list:
    """[u, v]_H = -[v, u]_H, component by component."""
    gap = max(np.abs(np.asarray(f) + np.asarray(b)).max() for f, b in zip(forward, backward))
    scale = max(1.0, max(np.abs(np.asarray(f)).max() for f in forward))
    return [] if gap <= ORACLE_TOL * scale else [f"bracket is not skew (gap {gap:.2e})"]


def check_bracket_oracle(result, expected) -> list:
    """The program's bracket matches the sympy oracle's."""
    gap = max(np.abs(np.asarray(r) - np.asarray(e)).max() for r, e in zip(result, expected))
    scale = max(1.0, max(np.abs(np.asarray(e)).max() for e in expected))
    return [] if gap <= ORACLE_TOL * scale else [f"bracket differs from the oracle by {gap:.2e}"]


def check_located(coords, converged: bool) -> list:
    """A located point of the type-change locus has converged and |z1| <= 1e-10."""
    z1 = abs(complex(coords[0], coords[1]))
    if converged and z1 <= LOCUS_TOL:
        return []
    return [f"located point {tuple(coords)} has |z1| = {z1:.2e}, converged={converged}"]
