"""Mackey functor calculus over C2 and the Klein four-group.

Computes homotopy of twisted Eilenberg-MacLane spectra two independent
ways (closed-form Poincare series and cellular Bredon chains), the slice
cells and towers of integer suspensions of the constant functor, and the
slice spectral sequence charts with their differential patterns.
"""

from .bredon import (homotopy, homotopy_level_series, smash, sphere_complex,
                     trivial_suspension, with_coefficients, dualize, homology)
from .f2 import BitMatrix
from .hk import poincare, poincare_C2, poincare_K
from .laurent import LaurentPoly, geom
from .mackey import (Mackey, catalog, check_axioms, direct_sum, dual,
                     fingerprint, identify, inflate, restrict_to)
from .reps import RepC2, RepK, parse_rep, restrict_rep
from .slices import (SliceCell, TowerNode, homotopy_of_slice,
                     restriction_consistency, slice_C2, slice_C2_f, slice_K,
                     slice_bounds_K, slice_predicates, tower_K)
from .sschart import (Chart, Differential, build_E1, canned_differentials,
                      check_convergence, euler_check, render,
                      solve_differentials)

__all__ = [name for name in dir() if not name.startswith("_")]
