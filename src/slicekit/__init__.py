"""slicekit: slice decomposition, infinity-norm certificates, and a mobile
leader-follower fusion simulator for sub-stochastic linear time-varying
updates.

The library splits into layers that can be used independently:

- :mod:`slicekit.matrix_core` — the single-row update type, its
  admissibility check, and norms.
- :mod:`slicekit.slice_engine` — the streaming slice detector that cuts an
  update sequence into windows whose products are uniformly contractive.
- :mod:`slicekit.bounds` — closed-form row and slice norm bounds.
- :mod:`slicekit.certifier` — asymptotic-stability certificates built from
  recorded slice lengths (uniform cap, capped subfamily, growth caps
  scanned over gamma1 at a fixed rate floor).
- :mod:`slicekit.generators` — random and adversarial sequence generators.
- :mod:`slicekit.ddf_sim` — disk-confined mobile agents fusing toward an
  anchor value, driving the engine online.
- :mod:`slicekit.cli` — the ``slicekit`` command-line harness.
"""

from __future__ import annotations

from .bounds import (
    RowBoundInput,
    beta4,
    combined_row_bound,
    log_slice_norm_gap,
    row_bound_no_substochastic,
    row_bound_with_substochastic,
    slice_norm_bound,
    slice_norm_gap,
)
from .certifier import (
    BoundTrace,
    Certificate,
    CertificateCase,
    Verdict,
    bound_trace,
    case3_length_cap,
    certify_case1,
    certify_case2,
    certify_case3,
    format_certificate,
    search_case3,
    write_certificate,
)
from .ddf_sim import (
    LeaderFollowerConfig,
    SimResult,
    StepRecord,
    UpdateKind,
    World,
    build_update,
    demo_world,
    lf_step,
    neighbors,
    run_leader_follower,
    steady_state_check,
    step_motion,
)
from .errors import (
    AssumptionViolated,
    ConfigError,
    DimensionMismatch,
    InfeasibleWeights,
    InvalidIndex,
    InvalidLength,
    InvalidSubset,
    MeaninglessBound,
    NegativeEntry,
    NoSubStochasticRow,
    SliceKitError,
)
from .generators import (
    case3_lengths,
    random_product_sequence,
    worst_case_slice_sequence,
)
from .matrix_core import (
    Params,
    SystemMatrix,
    identity_step,
    inf_norm,
    row_update,
    spectral_radius,
    validate_update,
)
from .slice_engine import (
    RunResult,
    Slice,
    SliceEvent,
    SliceEventKind,
    SliceState,
    push,
    read_slice_log,
    run_sequence,
    write_event_log,
    write_slice_log,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SliceKitError",
    "NegativeEntry",
    "DimensionMismatch",
    "AssumptionViolated",
    "NoSubStochasticRow",
    "InvalidIndex",
    "InvalidLength",
    "InvalidSubset",
    "MeaninglessBound",
    "InfeasibleWeights",
    "ConfigError",
    # matrix core
    "Params",
    "SystemMatrix",
    "identity_step",
    "row_update",
    "validate_update",
    "inf_norm",
    "spectral_radius",
    # bounds
    "RowBoundInput",
    "beta4",
    "row_bound_no_substochastic",
    "row_bound_with_substochastic",
    "combined_row_bound",
    "slice_norm_bound",
    "slice_norm_gap",
    "log_slice_norm_gap",
    # engine
    "Slice",
    "SliceEvent",
    "SliceEventKind",
    "SliceState",
    "RunResult",
    "push",
    "run_sequence",
    "write_slice_log",
    "read_slice_log",
    "write_event_log",
    # certifier
    "Verdict",
    "CertificateCase",
    "BoundTrace",
    "Certificate",
    "bound_trace",
    "case3_length_cap",
    "certify_case1",
    "certify_case2",
    "certify_case3",
    "search_case3",
    "format_certificate",
    "write_certificate",
    # generators
    "random_product_sequence",
    "worst_case_slice_sequence",
    "case3_lengths",
    # simulator
    "World",
    "UpdateKind",
    "StepRecord",
    "LeaderFollowerConfig",
    "SimResult",
    "demo_world",
    "step_motion",
    "neighbors",
    "build_update",
    "lf_step",
    "run_leader_follower",
    "steady_state_check",
]
