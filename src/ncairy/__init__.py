"""Fredholm determinants of matrix Airy convolution operators and matrix Painleve II/XXXIV."""

# Each module's __all__ is its public API; the package re-exports exactly those names.
from . import airy, errors, fredholm, kernels, ncp2, ncp34, tw
from .airy import *
from .errors import *
from .fredholm import *
from .kernels import *
from .ncp2 import *
from .ncp34 import *
from .tw import *

__all__ = [*airy.__all__, *errors.__all__, *fredholm.__all__, *kernels.__all__,
           *ncp2.__all__, *ncp34.__all__, *tw.__all__]
