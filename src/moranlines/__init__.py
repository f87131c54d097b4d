"""Finite-population lineage simulation and exact verification toolkit.

Forward simulation of a labeled population with selection and
type-dependent mutation, keeping whole ancestral paths; an enriched
backward process over tagged sites and active type sets; exact
weighted-semigroup identities connecting the two on small populations;
conditioned (survival-reweighted) path samplers; and reduced chains for
the common-ancestor type and the pair genealogical distance, with
equilibrium and survival solvers plus diffusion-limit variants.

Each module's ``__all__`` is the one list of its public names; the
package re-exports the union of those lists.
"""
from .model import *
from .forward import *
from .backward import *
from .exact import *
from .transformed import *
from .reduced import *

__version__ = "0.1.0"

__all__ = ["__version__", *model.__all__, *forward.__all__,
           *backward.__all__, *exact.__all__, *transformed.__all__,
           *reduced.__all__]
