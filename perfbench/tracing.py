"""Per-layer tracing from outside the package.

``Tracer.installed()`` rebinds the names the controller calls into each
layer (``propose``, ``evaluate_batch``, ``analyze``, ``render_text``),
the rule backend's methods, ``GaussianProcess.fit``/``predict`` and
``ResultCache.key_for`` with timing wrappers, and puts the originals
back on exit. Spans nest on one stack: every wrapped call runs on the
controller's thread, and the evaluator's worker threads call none of
them.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from sizerforge import controller
from sizerforge.agents import RuleBackend
from sizerforge.errors import InsufficientHistory
from sizerforge.evaluation import ResultCache
from sizerforge.optim.gp import GaussianProcess

from metrics import self_time

AGENT_OPS = ("understand", "plan", "decide_inner", "decide_outer")


class Tracer:
    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[List[Tuple[float, float]]] = []  # child intervals per open span

    @contextlib.contextmanager
    def span(self, key: str):
        children: List[Tuple[float, float]] = []
        self._open.append(children)
        start = time.perf_counter()
        try:
            yield children
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1].append((start, end))
            self.seconds[key] += end - start
            self.counts[key] += 1

    def trial(self, fn: Callable, *args, **kwargs):
        """Run one trial as the root span; its self time is controller time."""
        with self.span("trial") as children:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        self.seconds["controller.self"] += self_time(start, end, children)
        return result

    def _timed(self, key: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(key):
                return fn(*args, **kwargs)
        return wrapper

    def _propose(self, fn: Callable) -> Callable:
        def wrapper(space, config, *args, **kwargs):
            with self.span(f"optim.propose.{config.method}"):
                try:
                    proposal = fn(space, config, *args, **kwargs)
                except InsufficientHistory:
                    self.counts["optim.insufficient_history_fallbacks"] += 1
                    raise
            self.counts["optim.proposed"] += len(proposal.designs)
            if not proposal.designs:
                self.counts["optim.empty_proposals"] += 1
            return proposal
        return wrapper

    def _evaluate_batch(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            with self.span("evaluation.batch"):
                records = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.seconds["evaluation.batch_worker"] += elapsed * kwargs.get("workers", 1)
            self.seconds["evaluation.sim"] += sum(r.wall_time for r in records)
            self.counts["evaluation.records"] += len(records)
            self.counts["evaluation.cached"] += sum(1 for r in records if r.cached)
            self.counts["evaluation.sim_failed"] += sum(1 for r in records if r.sim_status != "ok")
            self.counts["controller.fresh_evals"] += sum(1 for r in records if not r.cached)
            return records
        return wrapper

    def _predict(self, fn: Callable) -> Callable:
        def wrapper(gp, x):
            self.counts["optim.gp.predict.rows"] += len(x)
            with self.span("optim.gp.predict"):
                return fn(gp, x)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        saved = []

        def rebind(owner, name, make):
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, make(getattr(owner, name)))

        try:
            rebind(controller, "propose", self._propose)
            rebind(controller, "evaluate_batch", self._evaluate_batch)
            rebind(controller, "analyze", lambda fn: self._timed("diagnostics.analyze", fn))
            rebind(controller, "render_text", lambda fn: self._timed("diagnostics.render", fn))
            for op in AGENT_OPS:
                rebind(RuleBackend, op, lambda fn, op=op: self._timed(f"agents.{op}", fn))
            rebind(GaussianProcess, "fit", lambda fn: self._timed("optim.gp.fit", fn))
            rebind(GaussianProcess, "predict", self._predict)
            rebind(ResultCache, "key_for",
                   lambda fn: staticmethod(self._timed("evaluation.key", fn)))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
