"""Numerical semigroups: invariants, ideal extensions, chains, genealogy.

Each public name is declared once, in the ``__all__`` of the module that
defines it (semigroup, extensions, chains, genealogy, oracle, errors); the
package re-exports them all and its ``__all__`` is their sorted union.
"""
from . import chains, errors, extensions, genealogy, oracle, semigroup
from .chains import *
from .errors import *
from .extensions import *
from .genealogy import *
from .oracle import *
from .semigroup import *

__all__ = sorted([*chains.__all__, *errors.__all__, *extensions.__all__,
                  *genealogy.__all__, *oracle.__all__, *semigroup.__all__])

__version__ = "0.1.0"
