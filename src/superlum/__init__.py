"""Spacetime transforms on both sides of the light cone, spacetime-diagram
bookkeeping, and path-counting invariants built from phase sums."""

from .errors import (
    BranchSpeedViolation,
    CyclicDiagram,
    DegenerateA,
    InvalidScenario,
    IsolatedEvent,
    LightSpeedResult,
    MixedK,
    NonfiniteInput,
    NonfiniteResult,
    NonpositiveK,
    NotConstant,
    PoleError,
    SuperlumError,
    SuperluminalSegment,
    TruncationInsufficient,
    ZeroExtent,
    ZeroVelocity,
)
from .kinematics import (
    Boost,
    Branch,
    Event1p1,
    Event1p3,
    GeneralTransformFamily,
    Parity,
    SuperluminalEvent1p3,
    boost_1p1,
    boost_1p3_subluminal,
    boost_1p3_superluminal,
    boost_matrix_1p1,
    branch_of_matrix,
    compose_boosts_1p1,
    compose_velocities_1p1,
    extract_K,
    galilean_family,
    general_boost_1p1,
    interval_1p1,
    interval_nm,
    lorentz_family,
    rapidity,
    subluminal_matrix,
    superluminal_family,
    superluminal_matrix,
    velocity_of_matrix,
)
from .diagrams import (
    Diagram,
    PathSet,
    Role,
    Scenario,
    Segment,
    SpeedClass,
    count_paths,
    count_paths_auto,
    load_fixture,
    load_scenario,
    role_report,
    transform_diagram,
)
from .invariants import (
    Amplitude,
    InvariantSpec,
    Path,
    ScanResult,
    amplitude,
    amplitude_invariant,
    check_multiplicativity,
    check_symmetry,
    check_time_reversal,
    finiteness_scan,
    invariant_P,
    pairwise_phase_sums,
    path_phase,
    uniform_phase_sampler,
)
from .sympoly import (
    CoefficientTensor,
    alpha_coefficient,
    cauchy_condition_check,
    closed_product,
    closure_checks,
    expansion_reconstruction_check,
    newton_convolution_check,
    power_sum,
)
from .render import render_svg
from .report import CheckReport, relative_deviation
from .verify import run_suite, suite_report

__version__ = "0.1.0"
