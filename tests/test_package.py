"""The package's public surface: one export list per module."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import slicekit
from slicekit import (
    SystemMatrix,
    bounds,
    certifier,
    ddf_sim,
    errors,
    generators,
    matrix_core,
    slice_engine,
    streams,
    tables,
)

MODULES = (errors, matrix_core, bounds, slice_engine, certifier, generators, ddf_sim, tables)

# The modules that compute; every file they feed is written by ``tables``.
NO_IO_MODULES = (slice_engine, certifier, ddf_sim, matrix_core, bounds, generators, streams)

# slicekit.__all__ before the package derived it from the module lists.
EARLIER_EXPORTS = [
    "__version__",
    "SliceKitError", "NegativeEntry", "DimensionMismatch", "AssumptionViolated",
    "InvalidIndex", "InvalidLength", "InvalidSubset", "MeaninglessBound",
    "InfeasibleWeights", "ConfigError",
    "Params", "SystemMatrix", "identity_step", "row_update", "validate_update",
    "inf_norm", "spectral_radius",
    "row_bound", "slice_norm_bound", "slice_norm_gap", "log_slice_norm_gap",
    "Slice", "SliceEvent", "SliceEventKind", "SliceState", "RunResult", "push",
    "run_sequence", "write_slice_log", "write_event_log",
    "Verdict", "CertificateCase", "BoundTrace", "Certificate", "bound_trace",
    "case3_length_cap", "certify_case1", "certify_case2", "certify_case3",
    "search_case3", "format_certificate", "write_certificate",
    "random_product_sequence", "worst_case_slice_sequence", "case3_lengths",
    "World", "UpdateKind", "LeaderFollowerConfig", "SimResult",
    "demo_world", "run_leader_follower", "steady_state_check",
]

# Names removed with their module: the simulator wrappers, once the run
# built every row in blocks (only tests called them), the slice-log
# reader, once certify read only the lengths (read_slice_lengths), the two
# block sizes that slice_engine.DRAW_BLOCK replaced, and SystemMatrix's
# dense anchor block and row product, which only tests called.
REMOVED = (
    (ddf_sim, "StepRecord"),
    (ddf_sim, "neighbors"),
    (ddf_sim, "build_update"),
    (slice_engine, "read_slice_log"),
    (slice_engine, "SCREEN_ROWS"),
    (ddf_sim, "DRAW_BLOCK"),
    (SystemMatrix, "apply"),
    (SystemMatrix, "b"),
)


def test_all_is_the_module_lists_in_order():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert slicekit.__all__ == expected
    assert len(set(slicekit.__all__)) == len(slicekit.__all__)


def test_every_exported_name_resolves():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(slicekit, name) is getattr(m, name)
    assert isinstance(slicekit.__version__, str)


def test_star_import_binds_exactly_the_list():
    namespace: dict = {}
    exec("from slicekit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(slicekit.__all__)


def test_earlier_exports_are_kept():
    assert len(EARLIER_EXPORTS) == 53
    assert set(EARLIER_EXPORTS) <= set(slicekit.__all__)


def test_removed_names_are_gone():
    for module, name in REMOVED:
        assert name not in slicekit.__all__
        assert not hasattr(module, name)


@pytest.mark.parametrize("module", NO_IO_MODULES, ids=lambda m: m.__name__)
def test_maths_modules_do_no_io(module):
    tree = ast.parse(inspect.getsource(module))
    imported, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level:
                imported |= {"." + alias.name for alias in node.names}
        elif isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert not imported & {"csv", "pathlib", ".tables"}
    assert not called & {"open", "read_text", "write_text"}


# slice_engine's step-code constants; its _STEP_EVENTS is their one reading.
STEP_CODE_NAMES = {"_SKIPPED", "_ABSORBED", "_SUCCESS", "_STARTED", "_COMPLETED"}


@pytest.mark.parametrize(
    "path", sorted(Path(slicekit.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_only_the_engine_names_the_step_codes(path):
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    if path.stem == "slice_engine":
        assert STEP_CODE_NAMES <= named
    else:
        assert not named & STEP_CODE_NAMES


def _run_config():
    return ddf_sim.LeaderFollowerConfig(ddf_sim.demo_world(), matrix_core.Params(0.05, 0.7), 5)


# A factory per value type that holds arrays; each call builds a new instance
# from the same arguments.
ARRAY_VALUES = {
    "SystemMatrix": lambda: matrix_core.row_update(3, 0, [0.5, 0.2, 0.0]),
    "Slice": lambda: slice_engine.Slice(0, np.eye(2), 0, 1, 0.5, 0.9),
    "SliceState": lambda: slice_engine.SliceState(n=2),
    "BoundTrace": lambda: certifier.bound_trace([2, 3], matrix_core.Params(0.05, 0.7)),
    "World": lambda: ddf_sim.demo_world(),
    "LeaderFollowerConfig": _run_config,
    "SimResult": lambda: ddf_sim.run_leader_follower(_run_config()),
}


@pytest.mark.parametrize("make", ARRAY_VALUES.values(), ids=ARRAY_VALUES)
def test_array_holding_values_compare_by_identity(make):
    x, twin = make(), make()
    assert x in [x]
    assert twin not in [x]
    assert hash(x) == hash(x)
