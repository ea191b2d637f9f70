"""Small-deviation toolkit for symmetric alpha-stable processes, 1 < alpha < 2.

Seeded path simulation, shifted small-ball probability estimation (crude and
tilted importance sampling), the associated numerical constants, and a
finite-grid harness for the iterated-logarithm scaling regimes.
"""

from .constants import (
    SmallBallConstant,
    char_exponent_scale,
    dirichlet_eigenvalue,
    middle_shift_constant,
    psi,
    smallball_constant_mc,
    smallball_constant_spectral,
    truncated_second_moment,
)
from .girsanov import (
    TiltSpec,
    deterministic_exponent,
    log_weight_batch,
    step_mean_amplitude,
    theta,
)
from .lil import (
    DIAGNOSTIC_NOTE,
    GridSpec,
    IntegralTestResult,
    ScaledDistanceRecord,
    grid_gap_ratios,
    integral_test,
    running_min_trace,
    sample_scaled_distances,
    scaled_distance,
    split_at,
)
from .processes import (
    AlphaStableParams,
    Estimate,
    ShiftFunction,
    identity_shift,
    make_shift,
    random_shift,
    tent_shift,
    zero_shift,
)
from .simulate import (
    BatchPaths,
    RngStream,
    batch_plan,
    map_batches,
    sample_jump_batch,
    sample_stable_batch,
    sample_sups,
    sample_tilted_batch,
    sample_time_changed_batch,
    standard_symmetric_stable,
    sup_distance_batch,
    write_path_csv,
)
from .smallball import (
    AndersonReport,
    AndersonRow,
    SmallBallQuery,
    TailReport,
    anderson_report,
    default_battery,
    empirical_no_big_jump_fraction,
    estimate_crude,
    estimate_is,
    prob_no_big_jumps,
    tail_prob_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
