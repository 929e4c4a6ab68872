"""Finite-dimensional f-divergences of density matrices, with certified bounds.

The package computes S_f(Q, P) through the joint spectral representation
of a pair of density matrices, evaluates the classical divergence I_f of
probability vectors, and certifies the upper-bound chains that relate
the two to window quantities r and R.  Generator families are built by
name with ``parse_generator_spec`` or in bulk with ``default_catalog``;
the short closed-form names (``umegaki``, ``chi_square``, ...) are the
independent formulas used to cross-check the spectral route.

The package exports exactly its modules' ``__all__`` lists and
``__version__``: each public name is declared once, in its own module.
"""

from . import classical, errors, generators, harness, hermitian, quantum
from .classical import *  # noqa: F403
from .errors import *  # noqa: F403
from .generators import *  # noqa: F403
from .harness import *  # noqa: F403
from .hermitian import *  # noqa: F403
from .quantum import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *hermitian.__all__, *generators.__all__, *classical.__all__,
           *quantum.__all__, *harness.__all__]
