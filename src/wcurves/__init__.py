"""Exact invariants of genus-two Weierstrass curve families.

Everything is computed in exact arithmetic over real quadratic orders:
prototype enumeration and dynamics, Euler characteristics and cusp
counts, the boundary cusp complex with its intersection ledger, and
cylinder-counting (Siegel-Veech) constants.
"""

from . import boundary, euler, exact, prototypes, siegelveech, verify
from .boundary import *
from .euler import *
from .exact import *
from .prototypes import *
from .siegelveech import *
from .verify import *

__version__ = "1.0.0"

__all__ = [
    name
    for layer in (boundary, euler, exact, prototypes, siegelveech, verify)
    for name in layer.__all__
]
