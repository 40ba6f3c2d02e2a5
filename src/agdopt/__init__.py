"""Auto-switching gradient-difference optimizer, baselines, test problems,
theory checks, and a small experiment harness."""

from .core import (
    ConfigError,
    HIST_EDGES,
    HyperParams,
    NumericError,
    ShapeError,
    StepDiagnostics,
    bhat_histogram,
    optimizer_step,
)
from .optim import (
    MomentState,
    OPTIMIZER_NAMES,
    SgdState,
    adabelief_step,
    adam_step,
    agd_step,
    init_state,
    sgd_momentum_step,
)

__version__ = "0.1.0"
