"""Inner-loop method arsenal: orchestrated samplers plus standalone baselines."""

from .base import Proposal
from .pool import MethodConfig, propose, validate_method_config

__all__ = [
    "Proposal",
    "MethodConfig",
    "propose",
    "validate_method_config",
]
