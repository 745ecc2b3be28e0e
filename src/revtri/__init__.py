"""revtri: numerical certification of reverse triangle inequalities.

Checks node-wise hypotheses on sampled vector-valued functions, evaluates
additive and multiplicative reverses of the continuous triangle inequality
with error budgets, constructs equality-case functions, and fuzz-tests
every bound with hypothesis-by-construction scenarios.
"""

from .bounds import (
    ALL_BOUND_IDS,
    BoundParams,
    BoundResult,
    HOLDS,
    HYPOTHESIS_FAILED,
    HypothesisReport,
    VIOLATED,
    ball_coefficient,
    band_coefficient,
    check_arg,
    check_ball,
    check_band,
    check_box_complex,
    check_dominance,
    check_scaled_dominance,
    eval_complex_bound,
    eval_family_bound,
    eval_unit_bound,
)
from .errors import (
    DegeneracyError,
    InfeasibilityError,
    InputError,
    OrthonormalityError,
    RevtriError,
    ScenarioError,
)
from .extremal import extremal_scenario
from .fuzz import FuzzSummary, fuzz, generate_scenario, trial_rng
from .gridfn import FunctionSpec, Grid, GridFunction, ScalarProfile, materialize, profile_of
from .hilbert import (
    COMPLEX,
    REAL,
    HVector,
    OrthonormalFamily,
    basis_vector,
    check_orthonormal,
    gram_report,
    inner,
    norm,
    orthonormalize,
)
from .quadrature import (
    DEFAULT_RULE,
    SIMPSON,
    TRAPEZOID,
    IntegralEstimate,
    bochner_integral,
    defect,
    norm_integral,
)
from .scenario import (
    RunReport,
    Scenario,
    Tolerances,
    exit_code,
    load_scenario,
    report_to_csv,
    report_to_json,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .sweep import sweep, sweep_to_csv

__version__ = "0.1.0"
