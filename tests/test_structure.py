"""One fact, one place: where the package may check a bound, sum exponentials,
form a boost scale, reject a boost result, compose speeds and classify
segments, read from the source with ast; how many lines the path census
runs, counted by a trace function; and which modules each entry point
loads, read from sys.modules in a child process."""

import ast
import builtins
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superlum
import superlum.cli

SOURCES = sorted(Path(superlum.__file__).parent.glob("*.py"))


def _scoped_nodes():
    """(qualified name of the enclosing function, node) for every node of
    every module, the name prefixed by the module's stem."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                out.append((scope, child))
                visit(child, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


NODES = _scoped_nodes()


def _attribute(node, owner: str, name: str | None = None) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == owner and (name is None or node.attr == name))


def _scopes(match) -> set[str]:
    return {scope for scope, node in NODES if match(node)}


def test_branch_bound_is_raised_only_at_boost_construction():
    def raises_violation(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "BranchSpeedViolation"

    assert _scopes(raises_violation) == {"kinematics.Boost.__post_init__"}


def test_exponentials_are_summed_only_in_the_phase_sum_kernel():
    assert _scopes(lambda node: _attribute(node, "np", "exp")) == {
        "invariants._log_sums"
    }


@pytest.mark.parametrize(
    "function",
    [
        "kinematics.boost_1p3_subluminal",
        "kinematics.boost_1p3_superluminal",
        "kinematics.boost_1p1_columns",
        "diagrams.transform_diagram",
    ],
)
def test_boosts_run_on_the_one_kernel(function):
    used = {
        ast.unparse(node)
        for scope, node in NODES
        if scope == function
        and (_attribute(node, "np") or _attribute(node, "math", "sqrt"))
    }
    assert any(scope == function for scope, _ in NODES)
    assert not used


def _raises(name: str):
    def match(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == name

    return match


def test_the_composition_pole_is_raised_only_by_the_law_and_for_matrices():
    assert _scopes(_raises("PoleError")) == {
        "kinematics._compose",
        "kinematics.velocity_of_matrix",
    }


@pytest.mark.parametrize(
    "function",
    [
        "kinematics.compose_boosts_1p1",
        "kinematics.compose_velocities_1p1",
        "kinematics.rapidity",
    ],
)
def test_composition_builds_no_matrix(function):
    used = {
        ast.unparse(node)
        for scope, node in NODES
        if scope == function
        and (_attribute(node, "np")
             or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
    }
    assert any(scope == function for scope, _ in NODES)
    assert not used


def test_a_frame_is_sorted_only_by_its_one_lazy_accessor_and_by_a_boost():
    """Reading Diagram._seg sorts and classifies an unsorted frame, and
    every other reader of the order or the codes goes through it;
    transform_diagram sorts the frame it builds."""
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "_sort") == {
        "diagrams.Diagram._seg", "diagrams.transform_diagram"}


def test_segments_are_sorted_and_classified_on_the_diagram_arrays():
    """Roles, the SVG and the JSON report read the diagram's one
    classification; no package function asks for Segment objects, and no
    per-segment sort key exists."""
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func).split(".")[-1] == "resolved_segments") == set()
    assert not hasattr(superlum.diagrams, "_segment_sort_key")


def test_the_duplicate_boost_and_classification_paths_are_gone():
    for module, name in [("kinematics", "_apply"), ("kinematics", "_apply_columns"),
                         ("diagrams", "_boosted"), ("diagrams", "_classify"),
                         ("diagrams", "classify_segment"), ("", "classify_segment")]:
        assert not hasattr(getattr(superlum, module) if module else superlum, name)
    for function in (superlum.diagrams.resolved_segments, superlum.diagrams.classify_endpoints):
        assert "tol" not in inspect.signature(function).parameters


def test_the_diagram_report_is_written_from_the_columns_with_no_report_dict():
    """cli._report_text writes each section from the frame itself; no scope
    of cli goes through the scenario dict, and no report dict is built for
    the writer to read back."""
    assert not {scope for scope in _scopes(lambda node: isinstance(node, ast.Call)
                                           and ast.unparse(node.func).split(".")[-1]
                                           == "scenario_to_dict")
                if scope.split(".")[0] == "cli"}
    for name in ("_diagram_report", "_SECTIONS", "_records", "_events", "scenario_to_dict"):
        assert not hasattr(superlum.cli, name)


def test_the_report_writer_joins_written_items_and_reads_terminals_from_the_census():
    """No scope of cli calls terminal_events, since the frame's sources and
    sinks come with the census's path sets, and every template that reaches
    _rows has fields around its %s: items already written are joined by
    _join, not copied through a bare "%s"."""
    def called(name):
        return lambda node: (isinstance(node, ast.Call)
                             and ast.unparse(node.func).split(".")[-1] == name)

    assert not {scope for scope in _scopes(called("terminal_events"))
                if scope.split(".")[0] == "cli"}
    templates = [node.args[0] for scope, node in NODES
                 if scope.split(".")[0] == "cli" and called("_rows")(node)]
    assert templates and all(isinstance(t, ast.Name) or t.value != "%s" for t in templates)
    assert {t.id for t in templates if isinstance(t, ast.Name)} <= {"_EVENT", "_SEGMENT", "_ROLE"}
    assert "%s" not in (superlum.cli._EVENT, superlum.cli._SEGMENT, superlum.cli._ROLE)


def test_a_boost_result_beyond_a_float_is_raised_only_by_the_kernel():
    """Boost results are checked only in _image, and the one other
    NonfiniteResult of these modules is the interval forms' rounding."""
    assert {scope for scope in _scopes(_raises("NonfiniteResult"))
            if scope.split(".")[0] in ("kinematics", "diagrams")} == {
        "kinematics._image", "kinematics._exact_forms"}


def test_a_nonfinite_input_is_raised_only_by_the_input_checks():
    """Every NonfiniteInput of the package is raised in _input, by its
    scalar, column, phase-set and count checks, or by the interval forms'
    rounding, for an increment that has no exact value; and no module but
    _input defines a finiteness helper: the one other function named for
    finiteness is cli's argparse type, which calls _input.finite."""
    scopes = _scopes(_raises("NonfiniteInput"))
    assert {scope for scope in scopes if not scope.startswith("_input.")} == {
        "kinematics._exact_forms"}
    assert {"_input.finite", "_input.as_phases", "_input.finite_count"} <= scopes
    named = {f"{path.stem}.{node.name}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)
             and re.search(r"(?<!in)finite(?!ness)", node.name)}
    assert {name for name in named if not name.startswith("_input.")} == {"cli._finite"}
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "finite") >= {"cli._finite"}


def test_every_bad_input_raises_a_superlum_error_and_main_catches_no_builtin():
    """No scope of the package raises a builtin exception: a bad input
    raises a SuperlumError, InvalidInput where no narrower class names the
    fault.  So cli.main catches only SuperlumError and OSError, and a
    builtin from a fault of the program is not shown as a bad input with
    exit 2."""
    def raises_builtin(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        found = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
        return isinstance(found, type) and issubclass(found, BaseException)

    # the one exemption: a module __getattr__ must raise AttributeError for
    # a name the module lacks (PEP 562), so that hasattr and getattr's
    # default keep working on the package
    assert _scopes(raises_builtin) == {"__init__._Layers.attribute"}
    handlers = [ast.unparse(node.type) for scope, node in NODES
                if scope == "cli.main" and isinstance(node, ast.ExceptHandler)]
    assert handlers == ["SystemExit", "(SuperlumError, OSError)"]


PER_TRIAL_FORMS = {"Path", "Event1p1", "boost_1p1", "path_phase", "amplitude",
                   "check_symmetry", "check_multiplicativity", "newton_convolution_check"}


def test_proper_time_has_one_kernel_and_the_verify_rows_run_on_columns():
    """Segments are checked against c and summed only in _path_phases, which
    path_phase calls; the verify rows build no Path or Event1p1, boost no
    single event, and call none of the public per-trial forms of their
    checks, which are their test oracle."""
    assert _scopes(_raises("SuperluminalSegment")) == {"invariants._path_phases"}

    def per_trial_call(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in PER_TRIAL_FORMS

    assert {scope for scope in _scopes(per_trial_call) if scope.startswith("verify")} == set()


def test_the_coefficient_box_is_built_without_a_per_index_loop():
    """expansion_reconstruction_check and its box read no coefficient one
    index at a time: alpha_coefficient is the box's test oracle."""
    per_index = {
        ast.unparse(node)
        for scope, node in NODES
        if scope in ("sympoly.expansion_reconstruction_check", "sympoly._coefficient_box")
        and isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("alpha_coefficient", "itertools.product",
                                      "_permutation_sum")
    }
    assert any(scope == "sympoly._coefficient_box" for scope, _ in NODES)
    assert not per_index


def test_nothing_in_the_diagram_layer_recurses():
    """The path census runs to any depth: no function of diagrams.py calls
    itself, directly or through others of the module."""
    tree = ast.parse(Path(superlum.diagrams.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    calls = {name: {call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in functions}
             for name, node in functions.items()}
    assert "_walk" in calls and "_suffixes" in calls
    while calls:  # peel off functions that call nothing left; a cycle stays
        leaves = {name for name, callees in calls.items() if not callees}
        assert leaves, f"recursion among {sorted(calls)}"
        calls = {name: callees - leaves for name, callees in calls.items()
                 if name not in leaves}


def test_value_objects_skip_their_init_only_in_the_slot_filler():
    """Only diagrams._filled builds an object without its __init__: no other
    code takes object.__new__ or a slot descriptor's __set__, Diagram.__new__
    is the only other __new__, and the filler builds Event1p1 and Segment,
    for d.events and resolved_segments, which call no constructor."""
    def bypass(node):
        return isinstance(node, ast.Attribute) and (
            node.attr == "__set__" or node.attr == "__new__" and ast.unparse(node.value) != "Diagram")

    assert _scopes(bypass) == {"diagrams._filled"}
    filled = {scope: ast.unparse(node.args[0]) for scope, node in NODES
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "_filled"}
    assert filled == {"diagrams.Diagram.events": "Event1p1",
                      "diagrams.resolved_segments": "Segment"}
    assert not _scopes(lambda node: isinstance(node, ast.Call)
                       and ast.unparse(node.func) in ("Event1p1", "Segment")) & set(filled)


# What each loop of render.py walks, by the source of its iterable (or, for a
# while loop, of its test).  None runs once per row or per event.
RENDER_LOOPS = {
    "enumerate((width - 1, *range(width - 3, width - 2 - digits, -1)))": "digit columns",
    "pieces": "a row's pieces",
    "zip(fields, cells)": "a segment row's fields",
    "zip(fields, digits[:, i:j])": "an event row's coordinate fields",
    "range(0, len(frm), ROWS)": "chunk starts of the segment rows",
    "range(0, n, ROWS)": "chunk starts of the event rows",
    "chunks": "event row chunks, split while their labels are uneven",
    "SpeedClass": "the three speed classes",
    "dashes": "the three speed classes' dash attributes",
    "box": "the two axes of the bounding box",
    "(1.0, -1.0)": "the two light-cone guides",
}


def test_render_writes_rows_as_matrices_with_no_loop_per_row():
    """render.py writes the segment and event rows as rows of uint8
    matrices, each field a column block: no comprehension in it holds an
    f-string, and no loop in it runs once per row or per event (its loops
    are those of RENDER_LOOPS).  The %-template row writer of the JSON
    report's lists is defined in cli alone."""
    tree = ast.parse(Path(superlum.render.__file__).read_text(encoding="utf-8"))
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [ast.unparse(node) for comp in ast.walk(tree) if isinstance(comp, comprehensions)
                for node in ast.walk(comp) if isinstance(node, ast.JoinedStr)]
    loops = sorted(ast.unparse(node.test if isinstance(node, ast.While) else node.iter)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.For, ast.While, ast.comprehension)))
    assert loops == sorted(RENDER_LOOPS)
    defined = [f"{path.stem}.{node.name}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "_rows"]
    assert defined == ["cli._rows"]


def test_json_fields_are_read_only_through_the_field_reader():
    """cli calls the builtins float, int and complex only in its field
    reader and in the argparse type _finite, so no field is converted
    unchecked; "is a JSON number" (the one bool exclusion) and "is a label"
    (the one bare str check of the modules that read JSON) are each
    defined in one scope."""
    def builtin_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "int", "complex"))

    assert {scope for scope in _scopes(builtin_call) if scope.startswith("cli.")} == {
        "cli._as", "cli._finite"}

    def checks(kind: str):
        def match(node):
            return (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                    and ast.unparse(node.args[1]) == kind)
        return match

    assert _scopes(checks("bool")) == {"_input.is_number"}
    assert {scope for scope in _scopes(checks("str"))
            if scope.split(".")[0] in ("_input", "cli", "diagrams", "invariants")} == {
        "_input.is_label"}
    defined = [f"{path.stem}.{node.name}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name in ("is_number", "is_label")]
    assert sorted(defined) == ["_input.is_label", "_input.is_number"]


def test_the_four_key_sort_runs_only_when_start_times_tie():
    """Segments are sorted by one stable argsort of their start times; the
    only np.lexsort of the package is _sort's, in the branch taken when two
    segments share a start time."""
    assert _scopes(lambda node: _attribute(node, "np", "lexsort")) == {"diagrams._sort"}
    frame = next(node for node in ast.walk(ast.parse(inspect.getsource(superlum.diagrams)))
                 if isinstance(node, ast.FunctionDef) and node.name == "_sort")
    branches = [node for node in ast.walk(frame) if isinstance(node, ast.If)
                and any(_attribute(sub, "np", "lexsort") for sub in ast.walk(node))]
    assert len(branches) == 1 and not branches[0].orelse
    assert "argsort" in ast.unparse(frame)


def test_each_frame_fact_has_one_derivation():
    """The labels' sorted order is kept on the frame when it is loaded, so
    no scope sorts the ranks back into it; a boosted frame turns its rows
    in _frame, with no second pass; and d.events has Mapping's own views."""
    def argsorts_rank(node):  # np.argsort of the ranks, or of some of them
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.argsort"):
            return False
        arg = node.args[0].value if isinstance(node.args[0], ast.Subscript) else node.args[0]
        return isinstance(arg, ast.Attribute) and arg.attr == "_rank"

    assert _scopes(argsorts_rank) == set()
    for name in ("_forward", "_EventItems", "_EventValues"):
        assert not hasattr(superlum.diagrams, name)


def test_the_census_graph_is_built_in_one_function():
    """Only _census_graph slices the successor rows out of the segment
    ends, and only _graph, which keeps its result on the diagram, calls
    it."""
    def slices_rows(node):
        return (isinstance(node, ast.ListComp) and isinstance(node.elt, ast.Subscript)
                and isinstance(node.elt.slice, ast.Slice)
                and any(isinstance(gen.iter, ast.Call) and ast.unparse(gen.iter.func) == "zip"
                        for gen in node.generators))

    assert {scope for scope in _scopes(slices_rows)
            if scope.startswith("diagrams.")} == {"diagrams._census_graph"}
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "_census_graph") == {"diagrams._graph"}


def _census_lines(n: int) -> int:
    """Lines of diagrams.py run by count_paths_auto and count_paths on a
    fresh chain of n events, counted by a trace function."""
    d = superlum.Diagram({f"c{i}": superlum.Event1p1(float(i), 0.0) for i in range(n)},
                         [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])
    source = superlum.diagrams.__file__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == source else None

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        superlum.count_paths_auto(d)
        superlum.count_paths(d, "c0", (f"c{n - 1}", f"c{n // 2}"))
    finally:
        sys.settrace(before)
    return lines


def test_no_census_loop_steps_once_per_event_of_a_run():
    """A chain is one run, so the census's Python lines grow with the
    passes of its pointer doubling, log n, and not with its events: a
    chain of 10**4 events runs at most 10 lines more per doubling of n than
    one of 10**2 events (a loop per event would add about 10**4)."""
    small, large = _census_lines(10**2), _census_lines(10**4)
    assert large - small <= 10 * math.log2(10**4 / 10**2)


def test_each_job_has_one_implementation():
    """No second copy of a job the package does elsewhere: _row_sums sums
    rows already laid out in order of length (its caller lays them out) with
    no sort, gather or recursion of its own; finite reads finiteness from
    is_finite with no try of its own; the permutation sum is taken only from
    its cached kernel, on sorted indices; the Newton rows take their order
    bound from one constant, not a parameter; and the scan CSV is joined
    from its rows, with no csv module."""
    row_sums = {ast.unparse(node.func) for scope, node in NODES
                if scope == "invariants._row_sums" and isinstance(node, ast.Call)}
    assert not {"np.argsort", "np.take", "_row_sums"} & row_sums
    assert not any(scope == "_input.finite" and isinstance(node, ast.Try)
                   for scope, node in NODES)
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "is_finite") >= {"_input.finite"}
    assert not hasattr(superlum.sympoly, "_permutation_sum")
    assert not _scopes(lambda node: isinstance(node, ast.Name) and node.id == "_permutation_sum")
    assert "r_max" not in inspect.signature(superlum.sympoly._newton_deviations).parameters
    assert superlum.sympoly._CONVOLUTION[0].shape == (superlum.sympoly.NEWTON_R_MAX + 1,) * 2
    imported = {alias.name for scope, node in NODES if isinstance(node, ast.Import)
                for alias in node.names}
    assert "csv" not in imported and "io" not in imported


def test_every_report_gets_its_verdict_from_one_rule():
    """Every CheckReport of the package is built by report.verdict, the one
    rule that turns a deviation and its bound into pass or fail, and only
    that rule marks a report "expected": "failure"."""
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "CheckReport") == {"report.verdict"}
    assert _scopes(lambda node: isinstance(node, ast.Constant)
                   and node.value in ("expected", "failure")) == {"report.verdict"}


def test_the_verify_rows_draw_only_through_the_generators_samplers():
    """Every size and permutation of the verify rows comes from rng.random
    doubles: verify has no emulation of the generator's samplers, and
    nothing in the package reads the generator's raw words or its kept
    32-bit half-word."""
    assert not hasattr(superlum.verify, "_Raw")
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert not [name for name in ("random_raw", "has_uint32", "uinteger")
                    if name in text], path.name


def test_the_verify_rows_never_read_or_set_the_generators_state():
    """A row that draws random boosts reads fixed columns of its block, so
    no row saves, restores or advances the bit generator."""
    text = Path(superlum.verify.__file__).read_text(encoding="utf-8")
    assert [name for name in ("bit_generator", "advance", ".state") if name in text] == []


# Every name that `from superlum import *` binds: the public names of the
# package, its submodules among them.
STAR_NAMES = set("""
Amplitude Boost Branch BranchSpeedViolation CheckReport CoefficientTensor CyclicDiagram
DegenerateA Diagram Event1p1 Event1p3 GeneralTransformFamily InvalidInput InvalidScenario
InvariantSpec IsolatedEvent LightSpeedResult MixedK NonfiniteInput NonfiniteResult
NonpositiveK NotConstant Parity Path PathSet PoleError Role ScanResult Scenario Segment
SpeedClass SuperlumError SuperluminalEvent1p3 SuperluminalSegment TruncationInsufficient
ZeroExtent ZeroVelocity alpha_coefficient amplitude amplitude_invariant boost_1p1
boost_1p3_subluminal boost_1p3_superluminal boost_matrix_1p1 branch_of_matrix
cauchy_condition_check check_multiplicativity check_symmetry check_time_reversal
closed_product closure_checks compose_boosts_1p1 compose_velocities_1p1 count_paths
count_paths_auto diagrams errors expansion_reconstruction_check extract_K finiteness_scan
galilean_family general_boost_1p1 interval_1p1 interval_nm invariant_P invariants
kinematics load_fixture load_scenario lorentz_family newton_convolution_check
pairwise_phase_sums path_phase power_sum rapidity relative_deviation render render_svg
report role_report run_suite subluminal_matrix suite_report superluminal_family
superluminal_matrix sympoly transform_diagram uniform_phase_sampler velocity_of_matrix verify
""".split())
LAYERS = ("invariants", "sympoly", "render", "verify")  # loaded on first use

# Run in a child: import the package, run the command line given as
# arguments (if any) in process, and print the loaded modules and dir().
_LOADED = """
import io, json, sys
import superlum
if sys.argv[1:]:
    import superlum.cli
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = superlum.cli.main(sys.argv[1:])
    sys.stdout = stdout
    assert code == 0, code
print(json.dumps({"modules": sorted(sys.modules), "dir": dir(superlum)}))
"""


def _loaded(tmp_path, *argv) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(superlum.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


BOOST = {"event": [1.0, 0.5], "boost": {"branch": "superluminal", "speed": 2.0}}
COMPOSE = {"boosts": [{"branch": "subluminal", "speed": 0.5},
                      {"branch": "superluminal", "speed": 2.0}]}


@pytest.mark.parametrize("argv, payload, layers", [
    ((), None, set()),
    (("boost", "--input", "in.json"), BOOST, set()),
    (("compose", "--input", "in.json"), COMPOSE, set()),
    (("scan",), None, {"invariants"}),
    (("diagram", "--input", "fig5a"), None, {"render"}),
    (("verify", "--seed", "1"), None, {"invariants", "sympoly", "verify"}),
], ids=["import", "boost", "compose", "scan", "diagram", "verify"])
def test_each_entry_point_loads_only_the_layers_it_runs(tmp_path, argv, payload, layers):
    """import superlum loads the kinematics and diagram layers, and the
    phase-sum, series, SVG and verify layers only where a command runs
    them; argparse and fractions only where they are used."""
    if payload is not None:
        (tmp_path / "in.json").write_text(json.dumps(payload), encoding="utf-8")
    modules = set(_loaded(tmp_path, *argv)["modules"])
    assert {layer for layer in LAYERS if f"superlum.{layer}" in modules} == layers
    if not argv:
        assert not {"fractions", "argparse"} & modules


def test_the_lazy_names_keep_the_public_namespace(tmp_path):
    """The star import binds the same 90 names as when every layer loaded
    with the package; dir() lists them before any lazy layer is loaded;
    each lazy name is its module's object; and a name the package lacks
    raises AttributeError."""
    star = {}
    exec("from superlum import *", star)
    assert set(star) - {"__builtins__"} == STAR_NAMES
    listed = _loaded(tmp_path)
    assert not {f"superlum.{layer}" for layer in LAYERS} & set(listed["modules"])
    assert STAR_NAMES <= set(listed["dir"])
    for layer, names in superlum._LAZY.items():
        for name in names:
            assert getattr(superlum, name) is getattr(getattr(superlum, layer), name), name
    assert not hasattr(superlum, "no_such_name")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        superlum.no_such_name
