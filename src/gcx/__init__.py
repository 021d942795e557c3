"""Generalized complex linear algebra and chart calculus in dimension <= 4.

The package is organised bottom-up:

* ``multilinear`` -- exact graded exterior algebra over a fixed complex
  cotangent space, Clifford action, split-signature pairing.
* ``spinor`` -- pointwise pure-spinor theory: annihilators, normal forms,
  nondegeneracy, B-transforms, the induced endomorphism of T + T*.
* ``chart`` -- calculus on coordinate charts: first-order jets, exterior
  derivative, Courant bracket, pullback, integrability residuals.
* ``models`` -- closed-form geometric models: the type-changing spinor on
  C^2, its polar/torus form, Z_m quotients, the Weinstein tube, the gluing
  map and the bump extension with its 3-form.
* ``verify`` -- deterministic seeded check runners emitting CheckReports.
* ``cli`` -- the ``gcx`` command-line entry point.
"""

from gcx.multilinear import GcVector, Multiform, clifford, exp_wedge, pairing
from gcx.spinor import (
    AnnihilatorBasis,
    GcEndomorphism,
    NormalForm,
    annihilator,
    b_transform,
    check_nondegenerate,
    from_complex,
    from_symplectic,
    is_pure,
    j_endomorphism,
    normal_form,
)

__all__ = [
    "Multiform",
    "GcVector",
    "clifford",
    "pairing",
    "exp_wedge",
    "AnnihilatorBasis",
    "NormalForm",
    "GcEndomorphism",
    "annihilator",
    "is_pure",
    "normal_form",
    "check_nondegenerate",
    "b_transform",
    "from_symplectic",
    "from_complex",
    "j_endomorphism",
]

__version__ = "0.1.0"
