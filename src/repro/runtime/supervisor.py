"""Supervised execution of the paper's long-running solves.

A :class:`SolverSupervisor` wraps the MDP solvers behind three
guarantees that a multi-hour sweep needs and the bare solvers do not
give:

- **bounded**: every solve runs under a shared
  :class:`~repro.runtime.budget.Budget` (wall-clock seconds and/or
  solver iterations), enforced cooperatively through the solvers'
  ``on_iter`` hooks, so a numerical stall raises
  :class:`~repro.errors.SolverBudgetExceededError` instead of hanging;
- **validated**: inputs are checked before solving (stochastic rows
  via the MDP's own validator, finite reward channels) and outputs
  after (finite gains/ratios, policy availability), so garbage raises
  a typed :class:`~repro.errors.SolverError` subclass instead of
  propagating NaNs into result tables;
- **recoverable**: each solve runs through the declarative fallback
  chains of :mod:`repro.runtime.fallbacks`, with per-stage diagnostics
  kept on the supervisor for post-mortem inspection.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    SolverBudgetExceededError,
    SolverDivergedError,
    SolverError,
    SolverInputError,
)
from repro.mdp.model import MDP
from repro.mdp.policy_iteration import AverageRewardSolution
from repro.mdp.ratio import RatioSolution
from repro.runtime.budget import Budget, BudgetClock
from repro.runtime.telemetry import counter_add, span
from repro.runtime.fallbacks import (
    AVERAGE_CHAIN,
    AverageRequest,
    RatioRequest,
    StageDiagnostics,
    ratio_chain_for,
    run_chain,
)


class SolverSupervisor:
    """Budgets, validation and fallback execution for MDP solves.

    Parameters
    ----------
    budget:
        Limits shared by all solves issued through this supervisor
        within one :meth:`clock` scope (each top-level call starts a
        fresh clock over the same declarative budget).
    ratio_chain, average_chain:
        Fallback chains as ``(name, stage)`` sequences.
        ``ratio_chain`` defaults to ``None``, meaning it is re-resolved
        per solve via :func:`repro.runtime.fallbacks.ratio_chain_for`
        (so the process-global ``--ratio-method`` selection takes
        effect even on supervisors built before the flag was applied);
        ``average_chain`` defaults to
        :data:`repro.runtime.fallbacks.AVERAGE_CHAIN`.
    validate_inputs, validate_outputs:
        Toggle the pre-/post-solve checks (both on by default; input
        validation re-runs the MDP's structural validator, which is
        linear in the number of transitions).
    deadline:
        Optional :class:`repro.core.deadline.Deadline`.  Each solve's
        effective wall-clock budget becomes ``min(budget.wall_clock,
        deadline.remaining())``, so the same supervisor instance can be
        handed down a request path and every nested solve sees only the
        time that is actually left; an already-expired deadline raises
        :class:`~repro.errors.SolveDeadlineError` before the solve
        starts.
    """

    def __init__(self, budget: Optional[Budget] = None,
                 ratio_chain: Optional[Sequence[Tuple]] = None,
                 average_chain: Optional[Sequence[Tuple]] = None,
                 validate_inputs: bool = True,
                 validate_outputs: bool = True,
                 deadline=None) -> None:
        self.budget = budget if budget is not None else Budget()
        self.ratio_chain = (None if ratio_chain is None
                            else tuple(ratio_chain))
        self.average_chain = (AVERAGE_CHAIN if average_chain is None
                              else tuple(average_chain))
        self.validate_inputs = validate_inputs
        self.validate_outputs = validate_outputs
        self.deadline = deadline
        #: Diagnostics of every stage attempted, across all solves.
        self.diagnostics: List[StageDiagnostics] = []
        #: Name of the stage that produced the last successful solve.
        self.last_stage: Optional[str] = None
        #: Name of the fallback-chain stage a budget/deadline abort
        #: cut off mid-flight (``None`` until a solve is cancelled).
        self.cancelled_stage: Optional[str] = None

    # -- validation ----------------------------------------------------

    def _check_mdp(self, mdp: MDP) -> None:
        if not self.validate_inputs:
            return
        # Re-run the structural validator (row-stochastic transitions,
        # every state has an action) -- callers may have built the MDP
        # with validate=False or mutated its arrays since construction.
        mdp._validate()
        for name, reward in mdp.rewards.items():
            if not np.all(np.isfinite(reward)):
                raise SolverInputError(
                    f"reward channel {name!r} contains non-finite values")

    def _check_policy(self, mdp: MDP, policy: np.ndarray,
                      label: str) -> None:
        if not self.validate_outputs:
            return
        if not mdp.valid_policy(policy):
            raise SolverError(
                f"{label} produced a policy selecting unavailable actions")

    # -- supervised solves ---------------------------------------------

    def solve_ratio(self, mdp: MDP, num: Mapping[str, float],
                    den: Mapping[str, float], lo: float, hi: float,
                    tol: float = 1e-7, max_iter: int = 80,
                    initial_policy: Optional[np.ndarray] = None,
                    method: Optional[str] = None) -> RatioSolution:
        """Maximize ``gain(num)/gain(den)`` through the fallback chain.

        ``method`` overrides the chain selection for this solve (it is
        ignored when the supervisor was constructed with an explicit
        ``ratio_chain``).
        """
        self._check_mdp(mdp)
        request = RatioRequest(mdp=mdp, num=num, den=den, lo=lo, hi=hi,
                               tol=tol, max_iter=max_iter,
                               initial_policy=initial_policy)
        chain = (self.ratio_chain if self.ratio_chain is not None
                 else ratio_chain_for(method))
        outcome = self._run(chain, request)
        solution: RatioSolution = outcome.result
        if self.validate_outputs and not np.isfinite(solution.value):
            raise SolverDivergedError(
                f"supervised ratio solve returned non-finite value "
                f"{solution.value!r}")
        self._check_policy(mdp, solution.policy,
                           f"ratio stage {outcome.stage!r}")
        return solution

    def solve_average(self, mdp: MDP, reward: np.ndarray,
                      initial_policy: Optional[np.ndarray] = None,
                      max_iter: int = 1000) -> AverageRewardSolution:
        """Maximize an average reward through the fallback chain."""
        self._check_mdp(mdp)
        reward = np.asarray(reward, dtype=float)
        if self.validate_inputs and not np.all(np.isfinite(reward)):
            raise SolverInputError(
                "combined reward array contains non-finite values")
        request = AverageRequest(mdp=mdp, reward=reward,
                                 initial_policy=initial_policy,
                                 max_iter=max_iter)
        outcome = self._run(self.average_chain, request)
        solution: AverageRewardSolution = outcome.result
        if self.validate_outputs and not np.isfinite(solution.gain):
            raise SolverDivergedError(
                f"supervised average-reward solve returned non-finite "
                f"gain {solution.gain!r}")
        self._check_policy(mdp, solution.policy,
                           f"average stage {outcome.stage!r}")
        return solution

    def analyze(self, config, model, mdp: Optional[MDP] = None):
        """Supervised version of :func:`repro.core.solve.analyze`.

        Routes the underlying ratio/average solves through this
        supervisor and validates the resulting utility and channel
        rates before returning the :class:`AttackAnalysis`.
        """
        from repro.core.solve import analyze as core_analyze
        analysis = core_analyze(config, model, mdp, supervisor=self)
        if self.validate_outputs:
            if not np.isfinite(analysis.utility):
                raise SolverDivergedError(
                    f"analysis produced non-finite utility "
                    f"{analysis.utility!r} for {model!r}")
            bad = {name: rate for name, rate in analysis.rates.items()
                   if not np.isfinite(rate)}
            if bad:
                raise SolverDivergedError(
                    f"analysis produced non-finite channel rates {bad!r}")
        return analysis

    # -- internals -----------------------------------------------------

    def _effective_budget(self) -> Budget:
        """The declarative budget narrowed by the deadline's remaining
        time (raises the typed deadline error when already expired)."""
        if self.deadline is None:
            return self.budget
        narrowed = self.deadline.budget(max_ticks=self.budget.max_ticks)
        wall = narrowed.wall_clock
        if self.budget.wall_clock is not None:
            wall = min(wall, self.budget.wall_clock)
        return Budget(wall_clock=wall, max_ticks=self.budget.max_ticks)

    def _run(self, chain, request):
        clock: Optional[BudgetClock] = None
        budget = self._effective_budget()
        if budget.wall_clock is not None or budget.max_ticks is not None:
            clock = budget.start()
        counter_add("supervisor/solves")
        try:
            with span("supervised-solve"):
                outcome = run_chain(chain, request, clock)
        except Exception as exc:
            failed = getattr(exc, "diagnostics", None)
            if failed:
                self.diagnostics.extend(failed)
                if isinstance(exc, SolverBudgetExceededError):
                    # Record which chain step the budget/deadline cut
                    # off -- post-mortems need the stage, not just the
                    # fact of the timeout.
                    self.cancelled_stage = failed[-1].stage
                    counter_add(
                        f"supervisor/cancelled/{failed[-1].stage}")
            raise
        self.diagnostics.extend(outcome.diagnostics)
        self.last_stage = outcome.stage
        return outcome
