"""Spacetime transforms on both sides of the light cone, spacetime-diagram
bookkeeping, and path-counting invariants built from phase sums."""

from .errors import (
    BranchSpeedViolation,
    CyclicDiagram,
    DegenerateA,
    InvalidInput,
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
from .report import CheckReport, relative_deviation

__version__ = "0.1.0"

# The phase-sum, series, SVG and verify layers load on first use, so that a
# run of the kinematics and diagram layers starts without them: the first
# lookup of one of these modules or names imports its module (_Layers).
_LAZY = {
    "invariants": (
        "Amplitude",
        "InvariantSpec",
        "Path",
        "ScanResult",
        "amplitude",
        "amplitude_invariant",
        "check_multiplicativity",
        "check_symmetry",
        "check_time_reversal",
        "finiteness_scan",
        "invariant_P",
        "pairwise_phase_sums",
        "path_phase",
        "uniform_phase_sampler",
    ),
    "sympoly": (
        "CoefficientTensor",
        "alpha_coefficient",
        "cauchy_condition_check",
        "closed_product",
        "closure_checks",
        "expansion_reconstruction_check",
        "newton_convolution_check",
        "power_sum",
    ),
    "render": ("render_svg",),
    "verify": ("run_suite", "suite_report"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted([*(name for name in globals() if not name.startswith("_")), *_HOME])


class _Layers:
    """The module's __getattr__ and __dir__ (PEP 562).  They are methods of
    a private object, not functions of this module, because the benchmark's
    tracer (bench/tracing.py) wraps every function that the package's
    namespace binds and files it under its module's layer."""

    def attribute(self, name: str):
        """A lazy module or one of its names, loaded on first use.  The
        names of every lazy module then loaded are bound, also of those that
        it imported itself (verify imports invariants and sympoly), so that
        vars(superlum) holds them from then on."""
        import importlib
        import sys

        if name not in _HOME:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        importlib.import_module(f".{_HOME[name]}", __name__)
        namespace = globals()
        for module, names in _LAZY.items():
            loaded = sys.modules.get(f"{__name__}.{module}")
            if loaded is not None:
                for export in names:
                    namespace.setdefault(export, getattr(loaded, export))
        return namespace[name]

    def names(self) -> list[str]:
        """dir(superlum): every name, those of the lazy layers included."""
        return sorted({*globals(), *_HOME})


_layers = _Layers()
__getattr__ = _layers.attribute
__dir__ = _layers.names
