"""Exact verification of sharp variation bounds for discrete maximal functions.

Computes centered and uncentered discrete maximal functions (interval,
cross-polytope and cube averages) of finitely supported rational functions
on Z^d, exactly, and certifies the associated sharp variation inequalities,
lattice-count lemmas and delta extremality at desk scale.
"""

from .constants import (
    ONE_DIM_CENTERED_SHARP,
    ConstantEnclosure,
    centered_constant_partial,
    constant_enclosure,
    tail_majorant,
    uncentered_constant_partial,
)
from .gridfn import GridFunction, total_variation
from .lattice import (
    EnumerationCapExceeded,
    ShellTable,
    admissible_boxes_through,
    check_gap_monotonicity,
    check_log_concavity,
    l1_ball_count,
    l1_ball_points,
)
from .maxop import (
    ArgmaxWitness,
    BallSpec,
    average,
    centered_max_1d,
    centered_max_l1,
    delta_centered_l1_closed_form,
    delta_uncentered_cube_closed_form,
    evaluate_on_box,
    uncentered_max_1d,
    uncentered_max_cube,
)
from .varanalysis import (
    VariationReport,
    adaptive_variation,
    delta_variation_closed_form,
    truncated_variation_maxfn,
)
from .verify import (
    SharpnessRecord,
    random_gridfn,
    scan_extremizers,
    verify_inequality,
    verify_uncentered_var_bound_1d,
)

__version__ = "0.1.0"
