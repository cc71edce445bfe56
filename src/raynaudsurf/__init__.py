"""Exact cohomology certificates for polarized cyclic covers of ruled surfaces.

The package computes, in exact arithmetic, certified values or bounds for
every h^i(X, Z^n) on the degree-ell cyclic covers X of ruled surfaces over
(pre-)Tango curves, carrying the Mumford-Szpiro type polarization Z that
makes them counter-examples to Kodaira vanishing in characteristic p.  It
also verifies the closed-form (non-)vanishing statements against the
mechanical pushforward engine and reports the induced graded local
cohomology of the section ring.
"""

from . import curvecoh, numclass, params, sectionring, surfcoh
from .params import *
from .numclass import *
from .curvecoh import *
from .surfcoh import *
from .sectionring import *

# Each module's __all__ is the one list of its public names.
__all__ = params.__all__ + numclass.__all__ + curvecoh.__all__ + surfcoh.__all__ + sectionring.__all__

__version__ = "0.1.0"
