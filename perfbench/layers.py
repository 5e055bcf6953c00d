"""In-memory span recorder and the layer wrappers of the traced run.

Wrappers are installed from outside the package: each one replaces a
public name of a layer *where its callers look it up* and records one
span per call (name, start, end, span id, parent span id, thread).
Nothing under ``src/`` is modified.

Self time is computed after the run by a sweep over the recorded
spans.  At every instant the *leaves* are the open synchronous spans
that have no open child; the instant is shared equally among them.
In single-threaded code there is exactly one leaf, so this is the
usual "duration minus the time covered by child spans".  Where
threads overlap (the solver service runs solves in worker threads
while its event loop serves reads), sharing keeps the invariant

    sum(layer self times) + unattributed_s == traced wall time

exact.  Coroutine spans (``serve.service.submit``) interleave on one
thread, so they are recorded with their inclusive duration only and
take no part in the sweep.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    """Keeps spans and counts in memory until :meth:`dump`."""

    def __init__(self) -> None:
        # (id, parent, name, thread, start, end, sync)
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _open(self):
        span_id = next(self._ids)
        return span_id, _current.get(), _current.set(span_id)

    def _close(self, span_id, parent, token, name, start, sync) -> None:
        end = time.perf_counter()
        _current.reset(token)
        with self._lock:
            self.spans.append((span_id, parent, name,
                               threading.get_ident(), start, end, sync))

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(result, args,
        kwargs)`` may add counts from the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, token = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, token, name, start, True)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id, parent, token = self._open()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, token, name, start, False)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge_file(self, path: str) -> None:
        """Add the spans and counts another process dumped."""
        with open(path) as fh:
            data = json.load(fh)
        self.spans.extend(tuple(s) for s in data["spans"])
        for name, value in data["counts"].items():
            self.counts[name] += value


def self_times(spans: List[Tuple], t0: float, t1: float
               ) -> Tuple[Dict[str, float], float]:
    """Per-name self time inside ``[t0, t1]`` and the covered time
    (the measure of instants with at least one open synchronous
    span)."""
    by_id = {s[0]: s for s in spans
             if s[6] and s[5] > t0 and s[4] < t1}
    # Ends sort before starts at equal times, and among ends the
    # child (larger id) closes before its parent.
    events = sorted(
        [(max(s[4], t0), 1, s[0]) for s in by_id.values()]
        + [(min(s[5], t1), 0, -s[0]) for s in by_id.values()])
    open_ids = set()
    open_children: Dict[int, int] = defaultdict(int)
    leaves = set()
    totals: Dict[str, float] = defaultdict(float)
    covered = 0.0
    last = t0
    for when, is_start, signed_id in events:
        if leaves and when > last:
            share = (when - last) / len(leaves)
            for leaf in leaves:
                totals[by_id[leaf][2]] += share
            covered += when - last
        last = max(last, when)
        span_id = abs(signed_id)
        parent = by_id[span_id][1]
        if parent not in by_id:
            parent = None
        if is_start:
            open_ids.add(span_id)
            leaves.add(span_id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
            continue
        open_ids.discard(span_id)
        leaves.discard(span_id)
        if parent is not None:
            open_children[parent] -= 1
            if open_children[parent] == 0 and parent in open_ids:
                leaves.add(parent)
    return dict(totals), covered


# -- the layer wrappers ------------------------------------------------

class _TimedLU:
    """A SuperLU factorization whose solves are recorded."""

    def __init__(self, lu, recorder: Recorder) -> None:
        self._lu = lu
        self.solve = recorder.wrap("mdp.kernels.substitute", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TimedLinalg:
    """``scipy.sparse.linalg`` as a caller module sees it, with
    ``splu`` recorded as the factorization layer."""

    def __init__(self, real, recorder: Recorder) -> None:
        self._real = real
        timed = recorder.wrap("mdp.kernels.factorize", real.splu)

        def splu(*args, **kwargs):
            recorder.count("mdp.kernels.factorizations")
            return _TimedLU(timed(*args, **kwargs), recorder)
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _replace_everywhere(original, replacement, undo: List) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``
    (the defining module and each ``from ... import`` site)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _replace_attr(owner, attr: str, replacement, undo: List) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every traced layer; returns a function undoing it."""
    # Load every call site first: a module imported while the wrappers
    # are installed would keep them after the undo.
    import repro.analysis.tables  # noqa: F401
    import repro.analysis.validation  # noqa: F401
    import repro.baselines.selfish_ds  # noqa: F401
    import repro.runtime.fallbacks  # noqa: F401
    import repro.runtime.supervisor  # noqa: F401
    import repro.serve.service as service
    from repro.core import attack_mdp
    from repro.mdp import kernels, pto, ratio, simulate
    from repro.serve import atlas
    from repro.sim import scenario
    pi_module = sys.modules["repro.mdp.policy_iteration"]

    undo: List = []
    count = recorder.count

    def on_backup(_result, _args, _kwargs):
        count("mdp.kernels.backups")

    def on_pi(result, _args, _kwargs):
        count("mdp.policy_iteration.iterations", result.iterations)

    def on_ratio(result, _args, _kwargs):
        count("mdp.ratio.transformed_solves", result.transformed_solves)

    def on_rollout(result, _args, _kwargs):
        total = getattr(result, "total_steps", None)
        count("mdp.simulate.steps",
              result.steps if total is None else total)

    def on_scenario(_result, args, kwargs):
        count("sim.scenario.steps",
              kwargs["steps"] if "steps" in kwargs else args[1])

    def stats_bump(original):
        def bump(self, name, value=1):
            if name in ("policy_hits", "policy_misses"):
                count(f"mdp.kernels.{name}", value)
            return original(self, name, value)
        return bump

    def wrap_fn(name, fn, after=None):
        _replace_everywhere(fn, recorder.wrap(name, fn, after), undo)

    timed_build = recorder.wrap("core.attack_mdp.build",
                                attack_mdp.build_attack_mdp)

    def build(*args, **kwargs):
        stats = attack_mdp.attack_mdp_cache_stats()
        hits = stats.hits + stats.reward_rebuilds
        result = timed_build(*args, **kwargs)
        count("core.attack_mdp.builds")
        if attack_mdp.attack_mdp_cache_stats() is stats:
            count("core.attack_mdp.cache_hits",
                  stats.hits + stats.reward_rebuilds - hits)
        return result
    _replace_everywhere(attack_mdp.build_attack_mdp, build, undo)
    for backup in (kernels.q_backup, kernels.q_backup_max,
                   kernels.q_backup_greedy, kernels.q_backup_states):
        wrap_fn("mdp.kernels.backup", backup, on_backup)
    wrap_fn("mdp.policy_iteration", pi_module.policy_iteration, on_pi)
    wrap_fn("mdp.ratio", ratio.maximize_ratio, on_ratio)
    wrap_fn("mdp.simulate.rollout", simulate.rollout_batch, on_rollout)
    wrap_fn("mdp.simulate.rollout", simulate.rollout, on_rollout)
    wrap_fn("serve.service.solve", service.default_solve_backend)
    for method in ("evaluate", "stationary", "channel_gains"):
        _replace_attr(kernels.PolicyEvalCache, method, recorder.wrap(
            "mdp.kernels.evaluate",
            getattr(kernels.PolicyEvalCache, method)), undo)
    _replace_attr(kernels.EvalCacheStats, "bump",
                  stats_bump(kernels.EvalCacheStats.bump), undo)
    for module in (kernels, pto):
        _replace_attr(module, "sla", _TimedLinalg(module.sla, recorder),
                      undo)
    _replace_attr(scenario.ThreeMinerScenario, "run", recorder.wrap(
        "sim.scenario.run", scenario.ThreeMinerScenario.run, on_scenario),
        undo)
    _replace_attr(atlas.PolicyAtlas, "get", recorder.wrap(
        "serve.atlas.get", atlas.PolicyAtlas.get), undo)
    _replace_attr(atlas.PolicyAtlas, "put", recorder.wrap(
        "serve.atlas.put", atlas.PolicyAtlas.put), undo)
    _replace_attr(service.SolverService, "submit", recorder.wrap_async(
        "serve.service.submit", service.SolverService.submit), undo)

    return functools.partial(_undo, undo)


def time_run_cells(recorder: Recorder) -> Callable[[], None]:
    """Wrap only the process-pool entry point (for the untraced
    parallel pass); returns a function undoing it."""
    import repro.analysis.tables  # noqa: F401 - see install()
    import repro.analysis.validation  # noqa: F401
    from repro.runtime import parallel

    def on_cells(_result, args, kwargs):
        tasks = kwargs["tasks"] if "tasks" in kwargs else args[0]
        recorder.count("runtime.parallel.cells", len(tasks))

    undo: List = []
    _replace_everywhere(parallel.run_cells, recorder.wrap(
        "runtime.parallel.run_cells", parallel.run_cells, on_cells), undo)
    return functools.partial(_undo, undo)


def _undo(undo: List) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
