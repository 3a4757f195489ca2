"""solfree: exact computation with solution-free sets on Z/m and the circle.

Modules:

- ``forms``     linear-form algebra (parsing, invariance, heights, weights)
- ``cyclic``    sets/functions on Z/m: solution measures, DFT, U^2 norm
- ``torus``     grid sets on the circle: exact measures, Eulerian weights
- ``transfer``  spectrum regularization and Freiman-isomorphism transfer
- ``rounding``  randomized rounding of [0,1] functions to sets
- ``kernels``   one exact integer cyclic convolution on numpy
"""

from .forms import FormFamily, LinearForm, parse_form
from .groups import TORUS

__all__ = ["FormFamily", "LinearForm", "parse_form", "TORUS"]

__version__ = "0.1.0"
