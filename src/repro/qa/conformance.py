"""Cross-solver differential conformance runner.

Runs every float solver path on the same generated instances (see
:mod:`repro.qa.generators`) and checks each against the exact rational
reference (:mod:`repro.qa.exact`) within a certified per-solver
tolerance, producing a per-(check, instance-class) matrix.  Checks:

========================  ==============================================
``vi``                    discounted value iteration vs exact
                          discounted policy iteration
``pi``                    Howard policy iteration gain vs exact gain
``renewal``               cached policy evaluation (gain, bias and
                          stationary distribution of the exact optimal
                          policy) vs exact; a model that is a DAG after
                          the start cut must be evaluated by renewal
                          substitution and a cyclic one must take the
                          counted LU fallback (no silent switch either
                          way)
``rvi``                   relative value iteration gain vs exact gain
``lp``                    occupation-measure LP gain vs exact gain
``ratio-dinkelbach``      Dinkelbach ratio solve vs exact fixed point
                          (and: must not silently fall back)
``ratio-bisection``       bisection ratio solve vs exact fixed point
``ratio-pto``             probabilistic-termination (PTO) ratio solve
                          vs exact fixed point (and: must not silently
                          fall back)
``mc``                    batched Monte-Carlo rollout of the exact
                          optimal policy (statistical check)
``meta-shift``            gain(r + c) == gain(r) + c
``meta-scale``            gain(c * r) == c * gain(r)
``meta-permute``          gain invariant under state relabeling
``meta-dup``              duplicating an action is a no-op
========================  ==============================================

Every cell is a deterministic function of ``(cls, seed, check)``; a
failure is reproduced with ``run_cell(cls, seed, check)``.  The runner
fans cells out through :func:`repro.runtime.parallel.run_cells`
(``workers > 1``) and is telemetry-instrumented (``qa/*`` counters,
``--trace`` compatible).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.errors import ReproError
from repro.mdp.average_reward import relative_value_iteration
from repro.mdp.kernels import PolicyEvalCache
from repro.mdp.linear_programming import lp_average_reward
from repro.mdp.policy_iteration import policy_iteration
from repro.mdp.ratio import maximize_ratio
from repro.mdp.simulate import rollout_batch
from repro.mdp.value_iteration import value_iteration
from repro.qa.exact import (
    exact_discounted_solve,
    exact_gain_bias,
    exact_policy_iteration,
    exact_ratio,
    exact_stationary,
)
from repro.qa.generators import (
    INSTANCE_CLASSES,
    QAInstance,
    make_instance,
    permute_mdp,
    random_permutation,
    scale_reward,
    shift_reward,
    with_duplicate_action,
)
from repro.runtime.telemetry import counter_add, span

#: All conformance checks, in display order.
CHECKS = ("vi", "pi", "renewal", "rvi", "lp", "ratio-dinkelbach",
          "ratio-bisection", "ratio-pto", "mc",
          "meta-shift", "meta-scale", "meta-permute", "meta-dup")

#: Certified relative tolerance per check (see docs/correctness.md for
#: the derivations).  ``mc`` is statistical: its per-cell tolerance is
#: ``max(5 * stderr, truncation bound)`` computed in the cell.
TOLERANCES: Dict[str, float] = {
    "vi": 1e-6,
    "pi": 1e-9,
    "renewal": 1e-9,
    "rvi": 1e-6,
    "lp": 1e-6,
    "ratio-dinkelbach": 1e-6,
    "ratio-bisection": 1e-5,
    "ratio-pto": 1e-6,
    "meta-shift": 1e-9,
    "meta-scale": 1e-9,
    "meta-permute": 1e-9,
    "meta-dup": 1e-9,
}

#: Monte-Carlo cell parameters (kept small: the check is statistical,
#: not a throughput benchmark).
MC_TRAJECTORIES = 24
MC_STEPS = 1500
MC_SIGMA = 5.0

#: Default seeds: one for ``--fast`` sampling, three for a full run.
FAST_SEEDS = (0,)
FULL_SEEDS = (0, 1, 2)


@dataclass
class ConformanceCell:
    """Outcome of one (instance class, seed, check) cell.

    ``error`` is the achieved discrepancy and ``tolerance`` the
    certified acceptance threshold; ``passed`` is
    ``error <= tolerance`` (or False with ``detail`` set when the
    solver raised).
    """

    cls: str
    seed: int
    check: str
    passed: bool
    error: float
    tolerance: float
    detail: str = ""

    def as_payload(self) -> Dict:
        """JSON-compatible form (what a parallel worker ships back)."""
        return asdict(self)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def _exact_gain(inst: QAInstance) -> Tuple[float, np.ndarray]:
    solution = exact_policy_iteration(inst.mdp, "num")
    return float(solution.gain), solution.policy


def _check_vi(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    scale = max(1.0, inst.reward_scale)
    exact = exact_discounted_solve(inst.mdp, "num", inst.discount)
    sol = value_iteration(inst.mdp, reward, inst.discount,
                          epsilon=1e-8 * scale)
    exact_values = np.array([float(v) for v in exact.values])
    err = float(np.abs(sol.values - exact_values).max()
                / max(1.0, float(np.abs(exact_values).max())))
    return err, TOLERANCES["vi"], f"{sol.iterations} sweeps"


def _check_pi(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    gain_exact, _ = _exact_gain(inst)
    sol = policy_iteration(inst.mdp, reward)
    return (_rel_err(sol.gain, gain_exact), TOLERANCES["pi"],
            f"{sol.iterations} improvements")


def _cut_graph_is_dag(mdp) -> bool:
    """Whether the union transition graph without edges into the start
    state and without self-loops is acyclic: every strongly connected
    component is a single state.  An oracle independent of the
    certificate's own topological sort."""
    union = sparse.coo_matrix(sum(mdp.transition))
    keep = ((union.row != union.col) & (union.col != mdp.start)
            & (union.data != 0))
    graph = sparse.csr_matrix(
        (union.data[keep], (union.row[keep], union.col[keep])),
        shape=union.shape)
    n_components, _ = csgraph.connected_components(
        graph, directed=True, connection="strong")
    return n_components == mdp.n_states


def _check_renewal(inst: QAInstance) -> Tuple[float, float, str]:
    mdp = inst.mdp
    _, policy = _exact_gain(inst)
    gain_exact, bias_exact = exact_gain_bias(mdp, policy, "num")
    pi_exact = exact_stationary(mdp.policy_matrix(policy),
                                start=mdp.start)
    cache = PolicyEvalCache(mdp)
    gain, bias = cache.evaluate(policy, mdp.combined_reward(inst.num))
    pi = cache.stationary(policy)
    bias_ref = np.array([float(v) for v in bias_exact])
    err = max(_rel_err(gain, float(gain_exact)),
              float(np.abs(bias - bias_ref).max())
              / max(1.0, float(np.abs(bias_ref).max())),
              float(np.abs(pi - np.array([float(v) for v in pi_exact]))
                    .max()))
    cert = cache.certificate()
    lu = cache.stats.lu_fallbacks
    if _cut_graph_is_dag(mdp):
        if cert is None or lu:
            return (float("inf"), TOLERANCES["renewal"],
                    f"DAG model fell back to LU ({lu} factorizations)")
        return (err, TOLERANCES["renewal"],
                f"renewal: {cert.n_levels} levels, "
                f"{cache.stats.substitutions} substitutions")
    if cert is not None or lu != 1:
        return (float("inf"), TOLERANCES["renewal"],
                f"cyclic model skipped the counted LU fallback "
                f"(lu_fallbacks={lu})")
    return err, TOLERANCES["renewal"], "LU fallback (cyclic)"


def _check_rvi(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    scale = max(1.0, inst.reward_scale)
    gain_exact, _ = _exact_gain(inst)
    sol = relative_value_iteration(inst.mdp, reward,
                                   epsilon=1e-9 * scale)
    return (_rel_err(sol.gain, gain_exact), TOLERANCES["rvi"],
            f"{sol.iterations} sweeps")


def _check_lp(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    gain_exact, _ = _exact_gain(inst)
    gain, _policy = lp_average_reward(inst.mdp, reward)
    return _rel_err(gain, gain_exact), TOLERANCES["lp"], ""


def _ratio_bracket(exact_value: float) -> Tuple[float, float]:
    return 0.0, 2.0 * abs(exact_value) + 1.0


def _check_ratio(inst: QAInstance, method: str) -> Tuple[float, float, str]:
    exact = exact_ratio(inst.mdp, inst.num, inst.den)
    lo, hi = _ratio_bracket(float(exact.value))
    sol = maximize_ratio(inst.mdp, inst.num, inst.den, lo=lo, hi=hi,
                         tol=1e-9, method=method)
    err = _rel_err(sol.value, float(exact.value))
    key = f"ratio-{method}"
    if method in ("dinkelbach", "pto") and sol.method != method:
        # A fall-back on a non-degenerate instance means the
        # denominator floor misclassified the problem's scale (for
        # PTO: the terminated system was wrongly deemed singular or
        # its start value fell below the degeneracy floor).
        return (float("inf"), TOLERANCES[key],
                f"fell back to {sol.method}")
    return err, TOLERANCES[key], f"method={sol.method}"


def _check_mc(inst: QAInstance) -> Tuple[float, float, str]:
    gain_exact, policy = _exact_gain(inst)
    batch = rollout_batch(inst.mdp, policy, steps=MC_STEPS,
                          n_traj=MC_TRAJECTORIES, seed=inst.seed)
    rates = batch.rates("num")
    mean = float(rates.mean())
    stderr = (float(rates.std(ddof=1)) / math.sqrt(len(rates))
              if len(rates) > 1 else 0.0)
    # Deterministic (e.g. periodic) chains have zero variance; the
    # residual error is then the cycle-truncation bias O(n/steps).
    r_pi = inst.mdp.combined_reward(inst.num)[
        policy, np.arange(inst.mdp.n_states)]
    truncation = inst.mdp.n_states * float(np.abs(r_pi).max()) / MC_STEPS
    tolerance = max(MC_SIGMA * stderr, truncation)
    err = abs(mean - gain_exact)
    z = err / stderr if stderr > 0 else float("nan")
    return err, tolerance, f"z={z:.2f}" if stderr > 0 else "deterministic"


def _check_meta_shift(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    base = policy_iteration(inst.mdp, reward).gain
    delta = 0.375 * max(1.0, inst.reward_scale)
    shifted = shift_reward(inst.mdp, "num", delta)
    gain = policy_iteration(shifted,
                            shifted.combined_reward(inst.num)).gain
    return (_rel_err(gain, base + delta), TOLERANCES["meta-shift"],
            f"delta={delta!r}")


def _check_meta_scale(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    base = policy_iteration(inst.mdp, reward).gain
    factor = 512.0  # a power of two: scaling the rewards is exact
    scaled = scale_reward(inst.mdp, "num", factor)
    gain = policy_iteration(scaled,
                            scaled.combined_reward(inst.num)).gain
    return (_rel_err(gain, factor * base), TOLERANCES["meta-scale"],
            f"factor={factor}")


def _check_meta_permute(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    base = policy_iteration(inst.mdp, reward).gain
    perm = random_permutation(inst.seed, inst.mdp.n_states)
    permuted = permute_mdp(inst.mdp, perm)
    gain = policy_iteration(permuted,
                            permuted.combined_reward(inst.num)).gain
    return _rel_err(gain, base), TOLERANCES["meta-permute"], ""


def _check_meta_dup(inst: QAInstance) -> Tuple[float, float, str]:
    reward = inst.mdp.combined_reward(inst.num)
    base = policy_iteration(inst.mdp, reward).gain
    duped = with_duplicate_action(inst.mdp, inst.mdp.actions[0],
                                  alias="qa-dup")
    gain = policy_iteration(duped, duped.combined_reward(inst.num)).gain
    return _rel_err(gain, base), TOLERANCES["meta-dup"], ""


_CHECK_FNS: Dict[str, Callable[[QAInstance], Tuple[float, float, str]]] = {
    "vi": _check_vi,
    "pi": _check_pi,
    "renewal": _check_renewal,
    "rvi": _check_rvi,
    "lp": _check_lp,
    "ratio-dinkelbach": lambda i: _check_ratio(i, "dinkelbach"),
    "ratio-bisection": lambda i: _check_ratio(i, "bisection"),
    "ratio-pto": lambda i: _check_ratio(i, "pto"),
    "mc": _check_mc,
    "meta-shift": _check_meta_shift,
    "meta-scale": _check_meta_scale,
    "meta-permute": _check_meta_permute,
    "meta-dup": _check_meta_dup,
}


def run_cell(cls: str, seed: int, check: str) -> ConformanceCell:
    """Run one conformance cell; never raises on solver failure (the
    failure becomes a failed cell with the exception in ``detail``)."""
    fn = _CHECK_FNS.get(check)
    if fn is None:
        raise ReproError(f"unknown conformance check {check!r}; known: "
                         f"{list(CHECKS)}")
    inst = make_instance(cls, seed)
    counter_add("qa/cells")
    with span(f"qa/cell/{check}"):
        try:
            error, tolerance, detail = fn(inst)
        except Exception as exc:  # a raising solver is a failing cell
            counter_add("qa/failures")
            return ConformanceCell(
                cls=cls, seed=seed, check=check, passed=False,
                error=float("inf"), tolerance=TOLERANCES.get(check, 0.0),
                detail=f"{type(exc).__name__}: {exc}")
    passed = error <= tolerance
    if not passed:
        counter_add("qa/failures")
    return ConformanceCell(cls=cls, seed=seed, check=check,
                           passed=bool(passed), error=float(error),
                           tolerance=float(tolerance), detail=detail)


def run_cell_payload(cls: str, seed: int, check: str) -> Dict:
    """Worker-process entry point: one cell as a JSON payload."""
    return run_cell(cls, seed, check).as_payload()


class ConformanceReport:
    """All cells of one conformance run, with matrix aggregation."""

    def __init__(self, cells: Sequence[ConformanceCell]) -> None:
        self.cells: List[ConformanceCell] = list(cells)

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> List[ConformanceCell]:
        return [cell for cell in self.cells if not cell.passed]

    def matrix(self) -> Dict[Tuple[str, str], ConformanceCell]:
        """Worst cell (by ``error / tolerance``) per (check, class)."""
        worst: Dict[Tuple[str, str], ConformanceCell] = {}
        for cell in self.cells:
            key = (cell.check, cell.cls)
            ratio = cell.error / cell.tolerance if cell.tolerance \
                else float("inf")
            incumbent = worst.get(key)
            if incumbent is None:
                worst[key] = cell
                continue
            inc_ratio = incumbent.error / incumbent.tolerance \
                if incumbent.tolerance else float("inf")
            if ratio > inc_ratio:
                worst[key] = cell
        return worst

    def format_matrix(self) -> str:
        """The per-(check, class) matrix as an aligned text table."""
        worst = self.matrix()
        classes = sorted({cls for _, cls in worst})
        checks = [c for c in CHECKS if any(k == c for k, _ in worst)]
        width = max(len(c) for c in ["check"] + list(checks))
        col_w = {cls: max(len(cls), 12) for cls in classes}
        header = "check".ljust(width) + "  " + "  ".join(
            cls.rjust(col_w[cls]) for cls in classes)
        lines = [header, "-" * len(header)]
        for check in checks:
            parts = [check.ljust(width)]
            for cls in classes:
                cell = worst.get((check, cls))
                if cell is None:
                    parts.append("-".rjust(col_w[cls]))
                elif cell.passed:
                    parts.append(f"ok {cell.error:.1e}".rjust(col_w[cls]))
                else:
                    parts.append(f"FAIL {cell.error:.1e}"
                                 .rjust(col_w[cls]))
            lines.append("  ".join(parts))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "all_passed": self.all_passed,
            "n_cells": len(self.cells),
            "n_failures": len(self.failures),
            "cells": [cell.as_payload() for cell in self.cells],
        }, indent=2, sort_keys=True)


ProgressFn = Optional[Callable[[ConformanceCell], None]]


def run_conformance(classes: Optional[Iterable[str]] = None,
                    checks: Optional[Iterable[str]] = None,
                    seeds: Optional[Iterable[int]] = None,
                    fast: bool = False,
                    workers: int = 1,
                    progress: ProgressFn = None) -> ConformanceReport:
    """Run the conformance matrix and return the report.

    Parameters
    ----------
    classes, checks, seeds:
        Subsets of :data:`~repro.qa.generators.INSTANCE_CLASSES`,
        :data:`CHECKS` and the seed list; defaults cover everything
        (``fast=True`` shrinks seeds to :data:`FAST_SEEDS`).
    workers:
        ``> 1`` fans cells out over worker processes via
        :func:`repro.runtime.parallel.run_cells`; results are
        identical to a serial run.
    progress:
        Optional callback per completed cell.
    """
    classes = tuple(classes) if classes is not None else INSTANCE_CLASSES
    checks = tuple(checks) if checks is not None else CHECKS
    if seeds is None:
        seeds = FAST_SEEDS if fast else FULL_SEEDS
    seeds = tuple(int(s) for s in seeds)
    for cls in classes:
        make_instance(cls, 0)  # validate class names upfront
    unknown = [c for c in checks if c not in _CHECK_FNS]
    if unknown:
        raise ReproError(f"unknown conformance checks {unknown}; known: "
                         f"{list(CHECKS)}")

    from repro.runtime.parallel import SolveTask, run_cells
    tasks = [SolveTask(kind="qa_cell", key=("qa", cls, seed, check),
                       params=(("cls", cls), ("seed", seed),
                               ("check", check)))
             for cls in classes for seed in seeds for check in checks]
    with span("qa/conformance"):
        payloads = run_cells(
            tasks, workers=workers,
            progress=(lambda task, payload:
                      progress(ConformanceCell(**payload)))
            if progress is not None else None)
    report = ConformanceReport([ConformanceCell(**p) for p in payloads])
    counter_add("qa/runs")
    return report
