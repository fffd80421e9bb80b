"""Exact Hankel determinants of Catalan and Narayana convolution powers.

The package computes, over Z and Z[t] with no floating point anywhere,
Hankel determinants of backward-shifted convolution powers of the Catalan
numbers and their Narayana refinements, and ships a verification suite that
mechanically re-derives the shift theorems, support patterns, closed forms,
generating-function identities and the weighted-lattice-path model behind
them.
"""

from .polyring import (
    INTEGER_RING,
    POLY_RING,
    ExactDivisionError,
    T,
    UniPoly,
)
from .series import Series, TruncationError
from .families import (
    Family,
    catalan_conv,
    catalan_series,
    companion_poly,
    companion_poly_t,
    lucas,
    mixed_powers,
    narayana_conv,
    narayana_series,
    narayana_series_weighted,
)
from .hankel import family_dets, leading_minors
from .paths import enumerate_paths, path_weight_sum, path_weight_sum_table
from .report import CheckReport
from .verify import check_reciprocal_duality

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ExactDivisionError",
    "Family",
    "INTEGER_RING",
    "POLY_RING",
    "Series",
    "T",
    "TruncationError",
    "UniPoly",
    "catalan_conv",
    "catalan_series",
    "check_reciprocal_duality",
    "companion_poly",
    "companion_poly_t",
    "enumerate_paths",
    "family_dets",
    "leading_minors",
    "lucas",
    "mixed_powers",
    "narayana_conv",
    "narayana_series",
    "narayana_series_weighted",
    "path_weight_sum",
    "path_weight_sum_table",
]
