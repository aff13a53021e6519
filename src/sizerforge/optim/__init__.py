"""Inner-loop method arsenal: orchestrated samplers plus standalone baselines."""

from .base import Proposal
from .pool import MethodConfig, propose, validate_method_config
from .turbo import TurboState

__all__ = [
    "Proposal",
    "MethodConfig",
    "propose",
    "validate_method_config",
    "TurboState",
]
