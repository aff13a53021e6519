"""Method table and parameter validation for the arsenal.

``METHODS`` maps each method name to its proposer, the parameter names
it accepts and a preset laid under the caller's parameters; ``_RANGES``
bounds every parameter. A name outside a method's list, a value outside
its range, or a number that is not finite, is a BadParameter before any
sampling happens.

``propose`` calls every proposer as ``(space, history, n_samples, seed,
**params)``; every proposer is a pure function of these. A proposal
carries its designs and, from the trust-region baseline, a restart's
fraction; no method label, since the caller names the method it asks
for. The baselines are presets of the orchestrated samplers: ga_baseline
= genetic(population 20, crossover 0.8, mutation 0.1), bo_baseline =
bayesian(UCB, weight 2.0); turbo_baseline is trust-region LHS, which
reads its region from the history. Only the orchestrated methods are the
inner loop's to pick. Defaults not preset here are the proposers' own
signature defaults.

``_propose_bayesian`` imports ``bayesian`` on the first Bayesian
proposal, and with it numpy and scipy's BLAS, loaded from its file
without scipy's ``__init__`` or ``scipy.linalg``; ``gp`` loads
``ndtr``'s compiled module the same way on the first EI or PI score.
Acquisition names come from ``base.ACQUISITIONS``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Mapping

from ..core import History
from ..errors import BadParameter, InsufficientHistory, UnknownMethod, shown
from ..space import SearchSpace
from .annealing import propose_annealing
from .base import ACQUISITIONS, Proposal, fresh, history_view, uniform_indices
from .genetic import propose_genetic
from .multistart import propose_multistart
from .sampling import propose_lhs
from .turbo import propose_turbo_baseline

ORCHESTRATED = ("lhs", "genetic", "bayesian", "adaptive", "annealing", "multistart")

GA_BASELINE_PRESET = {"population": 20, "crossover_rate": 0.8, "mutation_rate": 0.1}
BO_BASELINE_PRESET = {"acquisition_function": "UCB", "exploration_weight": 2.0}
ADAPTIVE_DEFAULTS = {"explore_weight": 0.5, "exploit_weight": 0.5, "random_weight": 0.2}

_GENETIC = ("mutation_rate", "crossover_rate", "tournament_size", "population")
_BAYESIAN = ("acquisition_function", "exploration_weight")

# parameter -> (type, low, high) with None for no bound, or the allowed
# values; checked in this order. Every integer has an upper bound, since
# a proposer loops over it, well above what the presets, the rule policy
# and the prompts use (3, 20, 5 and 2). A genetic proposal makes about
# 2 * tournament_size * population draws, so it is the two together that
# bound its time (tests/test_pool.py counts them at both bounds)
_RANGES = {
    "mutation_rate": (float, 0.0, 1.0),
    "crossover_rate": (float, 0.0, 1.0),
    "tournament_size": (int, 1, 100),
    "population": (int, 2, 1000),
    "acquisition_function": ACQUISITIONS,
    "exploration_weight": (float, 0.0, None),
    "initial_temperature": (float, 0.0, None),
    "cooling_rate": (float, 0.0, 1.0),
    "n_starts": (int, 1, 1000),
    "search_radius": (int, 0, 1000),
    "explore_weight": (float, 0.0, None),
    "exploit_weight": (float, 0.0, None),
    "random_weight": (float, 0.0, None),
}


@dataclasses.dataclass(frozen=True)
class MethodConfig:
    method: str
    n_samples: int
    parameters: Mapping[str, object] = dataclasses.field(default_factory=dict)
    seed: int = 0


def _check_range(name: str, value: object) -> None:
    rule = _RANGES[name]
    if not isinstance(rule[0], type):
        if value not in rule:
            raise BadParameter(f"{name} must be one of {rule}, got {shown(value)}")
        return
    kind, low, high = rule
    accepted = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, accepted):
        noun = "a number" if kind is float else "an integer"
        raise BadParameter(f"{name} must be {noun}, got {value!r}")
    try:
        x = kind(value)
    except OverflowError:  # an int past float range
        x = math.inf
    if kind is float and not math.isfinite(x):  # NaN passes every bound
        raise BadParameter(f"{name} must be finite, got {x}")
    if low is not None and x < low:
        raise BadParameter(f"{name} must be >= {low}, got {shown(x)}")
    if high is not None and x > high:
        raise BadParameter(f"{name} must be <= {high}, got {shown(x)}")


def validate_method_config(config: MethodConfig) -> None:
    """Unknown method names raise UnknownMethod; unknown or ill-typed
    parameters raise BadParameter."""
    if config.method not in METHODS:
        raise UnknownMethod(f"unknown method {config.method!r}")
    allowed = METHODS[config.method][1]
    for name in config.parameters:
        if name not in allowed:
            raise BadParameter(f"{name!r} is not a parameter of {config.method}")
    if config.n_samples < 1:
        raise BadParameter(f"n_samples must be positive, got {shown(config.n_samples)}")
    for name in _RANGES:
        if name in config.parameters:
            _check_range(name, config.parameters[name])


def _propose_bayesian(*args, **params) -> Proposal:
    """``bayesian.propose_bayesian``, imported on the first call."""
    from .bayesian import propose_bayesian
    return propose_bayesian(*args, **params)


def _apportion(n: int, weights: Mapping[str, float]) -> Dict[str, int]:
    """Largest-remainder split of n among the weighted components."""
    total = sum(weights.values())
    if total <= 0:
        raise BadParameter("adaptive weights must not all be zero")
    quotas = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    leftover = n - sum(counts.values())
    by_remainder = sorted(
        weights, key=lambda k: quotas[k] - counts[k], reverse=True
    )
    for k in by_remainder[:leftover]:
        counts[k] += 1
    return counts


def _propose_adaptive(
    space: SearchSpace, history: History, n_samples: int, seed: int, **weights: float
) -> Proposal:
    weights = {**ADAPTIVE_DEFAULTS, **{k: float(v) for k, v in weights.items()}}
    counts = _apportion(n_samples, weights)

    rng = random.Random(seed)
    seeds = {k: rng.randrange(2**32) for k in ("explore", "exploit", "random")}

    designs = []
    if counts["explore_weight"]:
        designs += propose_lhs(space, history, counts["explore_weight"], seeds["explore"]).designs
    if counts["exploit_weight"]:
        args = (space, history, counts["exploit_weight"], seeds["exploit"])
        try:
            designs += _propose_bayesian(*args).designs
        except InsufficientHistory:
            designs += propose_multistart(*args).designs
    if counts["random_weight"]:
        rrng = random.Random(seeds["random"])
        draws = [uniform_indices(space, rrng) for _ in range(counts["random_weight"])]
        designs += fresh(space, draws, history_view(space, history).seen)

    # a design is its id: the first copy of each stays, in order
    return Proposal(list(dict.fromkeys(designs))[:n_samples])


# method -> (proposer, accepted parameter names, preset under the caller's)
METHODS = {
    "lhs": (propose_lhs, (), {}),
    "genetic": (propose_genetic, _GENETIC, {}),
    "bayesian": (_propose_bayesian, _BAYESIAN, {}),
    "adaptive": (_propose_adaptive, tuple(ADAPTIVE_DEFAULTS), {}),
    "annealing": (propose_annealing, ("initial_temperature", "cooling_rate"), {}),
    "multistart": (propose_multistart, ("n_starts", "search_radius"), {}),
    "ga_baseline": (propose_genetic, _GENETIC, GA_BASELINE_PRESET),
    "bo_baseline": (_propose_bayesian, _BAYESIAN, BO_BASELINE_PRESET),
    "turbo_baseline": (propose_turbo_baseline, (), {}),
}


def propose(space: SearchSpace, config: MethodConfig, history: History) -> Proposal:
    """Validate the config and dispatch to the named method."""
    validate_method_config(config)
    proposer, _, preset = METHODS[config.method]
    params = {**preset, **config.parameters}
    return proposer(space, history, config.n_samples, config.seed, **params)
