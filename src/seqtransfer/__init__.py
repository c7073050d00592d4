"""Active model identification and sequential transfer for tabular MDPs."""

from .mdp import TabularMdp, policy_evaluation, value_iteration
from .envs import GenerativeModel, TaskChain
from .ptum import ApproxModelSet, run_ptum
from .sequential import SequentialConfig, run_sequential
from .spectral import ObservationLayout, spectral_estimate

__all__ = [
    "TabularMdp",
    "policy_evaluation",
    "value_iteration",
    "GenerativeModel",
    "TaskChain",
    "ApproxModelSet",
    "run_ptum",
    "SequentialConfig",
    "run_sequential",
    "ObservationLayout",
    "spectral_estimate",
]

__version__ = "0.1.0"
