"""Conformable-calculus hydrogen atom: operators, wavefunctions, certification.

Each module's ``__all__`` is its public surface, and ``__all__`` here is
their union: a public name is listed once, in the module that defines it.
"""

from .calculus import *
from .errors import *
from .hydrogen import *
from .special import *
from .verification import *

__version__ = "0.1.0"

__all__ = calculus.__all__ + errors.__all__ + hydrogen.__all__ + special.__all__ + verification.__all__
