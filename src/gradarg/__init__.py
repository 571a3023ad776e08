"""Gradual valuation and graded acceptability for argumentation frameworks.

The package models attack graphs, values their arguments either locally
(each argument from its direct attackers) or globally (tuples of all
attack/defence branch lengths), enumerates preferred and stable
extensions, grades acceptance across extensions, and relates the two
views through well-defendedness.  It exports what its modules export.
"""

from . import acceptability, framework, local, tuple_eval, tuples
from .acceptability import *
from .framework import *
from .local import *
from .tuple_eval import *
from .tuples import *

__version__ = "0.1.0"

__all__ = [*acceptability.__all__, *framework.__all__, *local.__all__,
           *tuple_eval.__all__, *tuples.__all__]
