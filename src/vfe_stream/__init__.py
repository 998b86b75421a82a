"""Online variational inference and parameter learning for discrete HMMs.

The package is organized as:

- model: generative model, pinned softmax parametrization, sampling
- oracle: exact filtering/smoothing/enumeration, its guard and finite
  differences
- mfa: mean-field approximation state, augmentation and serialization
- kernel: raw-array ascent loops, their psi and theta gradients and the flat
  theta layout
- elbo: recursive objective, the V fold, carried summaries and the exact
  gradient audit
- learner: streaming ascent schedule and trace recording
- cli: generate / fit / compare / gradcheck commands
"""

__version__ = "0.1.0"

from .model import (
    ConstraintError,
    GenerativeHMM,
    ModelParams,
    StateSpace,
    Trajectory,
    build_hmm,
    sample_trajectory,
    softmax_row,
)
from .oracle import (
    EnumeratedPosterior,
    FilterResult,
    GuardError,
    SmoothingResult,
    brute_force_elbo,
    enumerate_posterior,
    finite_diff_grad,
    forward_backward,
    forward_filter,
    vfe,
)
from .mfa import (
    FullQ,
    MfaFamily,
    MfaHistory,
    augment,
    full_q,
)
from .elbo import (
    ElboSummaries,
    elbo_recursive,
    finish,
    grad_psi,
    grad_theta,
    scratch_summaries,
)
from .learner import (
    LearnerState,
    RunResult,
    Schedule,
    StreamTrace,
    TraceRecord,
    align_states,
    ingest,
    init_learner,
    run_stream,
    summary_dict,
)

__all__ = [
    "ConstraintError",
    "GenerativeHMM",
    "ModelParams",
    "StateSpace",
    "Trajectory",
    "build_hmm",
    "sample_trajectory",
    "softmax_row",
    "EnumeratedPosterior",
    "FilterResult",
    "GuardError",
    "SmoothingResult",
    "brute_force_elbo",
    "enumerate_posterior",
    "finite_diff_grad",
    "forward_backward",
    "forward_filter",
    "vfe",
    "FullQ",
    "MfaFamily",
    "MfaHistory",
    "augment",
    "full_q",
    "ElboSummaries",
    "elbo_recursive",
    "finish",
    "grad_psi",
    "grad_theta",
    "scratch_summaries",
    "LearnerState",
    "RunResult",
    "Schedule",
    "StreamTrace",
    "TraceRecord",
    "align_states",
    "ingest",
    "init_learner",
    "run_stream",
    "summary_dict",
]
