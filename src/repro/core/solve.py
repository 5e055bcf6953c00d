"""Optimal-strategy solvers for the three incentive models.

Each solver builds (or accepts) the attack MDP for a configuration and
returns an :class:`AttackAnalysis` carrying the utility value, the
optimal policy and the exact per-channel rates under that policy.

- :func:`solve_relative_revenue` -- ``u_A1`` (Eq. 1), reproduced in
  Table 2; compare against Alice's power share ``alpha`` (Bitcoin's
  incentive-compatible value).
- :func:`solve_absolute_reward` -- ``u_A2`` (Eq. 2), reproduced in
  Table 3; compare against ``alpha`` (honest mining's per-step income).
- :func:`solve_orphan_rate` -- ``u_A3`` (Eq. 3), reproduced in
  Table 4; compare against 1 (a 51% attacker's value in Bitcoin).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.core.attack_mdp import build_attack_mdp
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import ReproError
from repro.mdp.model import MDP
from repro.mdp.policy import Policy
from repro.mdp.policy_iteration import policy_iteration
from repro.mdp.ratio import maximize_ratio
from repro.mdp.stationary import policy_gains
from repro.runtime.telemetry import counter_add, span


@dataclass
class AttackAnalysis:
    """Result of solving one attack configuration under one incentive
    model.

    Attributes
    ----------
    config:
        The analyzed configuration.
    model:
        The incentive model.
    utility:
        The optimal utility value (u_A1, u_A2 or u_A3).
    honest_utility:
        The utility of never attacking (the comparison baseline).
    policy:
        The optimal policy, keyed by state tuples.
    rates:
        Exact per-step rate of every reward channel under the optimal
        policy.
    solver:
        Provenance of the solve: ``{"method", "iterations",
        "transformed_solves"}`` (the ratio method or average-reward
        stage that produced the answer, and what it cost).  ``None``
        on analyses loaded from artifacts that predate this field;
        older artifacts may also carry an ``"engine"`` key, kept
        verbatim.
    """

    config: AttackConfig
    model: IncentiveModel
    utility: float
    honest_utility: float
    policy: Policy
    rates: Dict[str, float]
    solver: Optional[Dict[str, object]] = None

    @property
    def advantage(self) -> float:
        """Utility gained over the honest baseline."""
        return self.utility - self.honest_utility

    @property
    def profitable(self) -> bool:
        """Whether attacking beats the honest baseline (1e-6 slack)."""
        return self.advantage > 1e-6


def _prepare(config: AttackConfig, model: IncentiveModel,
             mdp: Optional[MDP]) -> tuple:
    wanted_wait = model.uses_wait
    if config.include_wait != wanted_wait:
        config = replace(config, include_wait=wanted_wait)
        mdp = None
    if mdp is None:
        mdp = build_attack_mdp(config)
    return config, mdp


def _ratio_solver_info(solution) -> Dict[str, object]:
    return {"method": solution.method,
            "iterations": solution.iterations,
            "transformed_solves": solution.transformed_solves}


def solve_relative_revenue(config: AttackConfig,
                           mdp: Optional[MDP] = None,
                           tol: float = 1e-7,
                           supervisor=None,
                           ratio_method: Optional[str] = None,
                           initial_policy: Optional[np.ndarray] = None
                           ) -> AttackAnalysis:
    """Maximize Alice's relative revenue u_A1 (Eq. 1).

    ``supervisor`` optionally routes the solve through a
    :class:`repro.runtime.supervisor.SolverSupervisor` (budgets,
    validation and the fallback chain).  ``ratio_method`` selects the
    ratio-objective method for this solve (``None`` defers to the
    process-global default); ``initial_policy`` warm-starts the first
    transformed solve (e.g. with the optimum of an adjacent sweep
    cell).
    """
    with span("solve/relative"):
        counter_add("solve/relative")
        config, mdp = _prepare(config, IncentiveModel.COMPLIANT_PROFIT,
                               mdp)
        num, den = IncentiveModel.COMPLIANT_PROFIT.utility_channels()
        if supervisor is not None:
            solution = supervisor.solve_ratio(
                mdp, num, den, lo=0.0, hi=1.0, tol=tol,
                initial_policy=initial_policy, method=ratio_method)
        else:
            solution = maximize_ratio(
                mdp, num, den, lo=0.0, hi=1.0, tol=tol,
                method=ratio_method, initial_policy=initial_policy)
        policy = Policy(mdp, solution.policy)
        rates = policy_gains(mdp, solution.policy)
    return AttackAnalysis(config=config,
                          model=IncentiveModel.COMPLIANT_PROFIT,
                          utility=solution.value,
                          honest_utility=config.alpha,
                          policy=policy, rates=rates,
                          solver=_ratio_solver_info(solution))


def solve_absolute_reward(config: AttackConfig,
                          mdp: Optional[MDP] = None,
                          supervisor=None,
                          initial_policy: Optional[np.ndarray] = None
                          ) -> AttackAnalysis:
    """Maximize Alice's absolute per-block reward u_A2 (Eq. 2).

    Each MDP step mines exactly one block, so ``t`` in Eq. 2 equals the
    step count and u_A2 is a plain average reward.
    """
    with span("solve/absolute"):
        counter_add("solve/absolute")
        config, mdp = _prepare(config, IncentiveModel.NONCOMPLIANT_PROFIT,
                               mdp)
        num, _den = IncentiveModel.NONCOMPLIANT_PROFIT.utility_channels()
        if supervisor is not None:
            solution = supervisor.solve_average(
                mdp, mdp.combined_reward(dict(num)),
                initial_policy=initial_policy)
            method = supervisor.last_stage or "policy-iteration"
        else:
            solution = policy_iteration(mdp,
                                        mdp.combined_reward(dict(num)),
                                        initial_policy=initial_policy)
            method = "policy-iteration"
        policy = Policy(mdp, solution.policy)
        rates = policy_gains(mdp, solution.policy)
    return AttackAnalysis(config=config,
                          model=IncentiveModel.NONCOMPLIANT_PROFIT,
                          utility=solution.gain,
                          honest_utility=config.alpha,
                          policy=policy, rates=rates,
                          solver={"method": method,
                                  "iterations": solution.iterations,
                                  "transformed_solves": 0})


def solve_orphan_rate(config: AttackConfig,
                      mdp: Optional[MDP] = None,
                      tol: float = 1e-6,
                      supervisor=None,
                      ratio_method: Optional[str] = None,
                      initial_policy: Optional[np.ndarray] = None
                      ) -> AttackAnalysis:
    """Maximize others' blocks orphaned per Alice block, u_A3 (Eq. 3)."""
    with span("solve/orphans"):
        counter_add("solve/orphans")
        config, mdp = _prepare(config, IncentiveModel.NON_PROFIT, mdp)
        num, den = IncentiveModel.NON_PROFIT.utility_channels()
        if supervisor is not None:
            solution = supervisor.solve_ratio(
                mdp, num, den, lo=0.0, hi=float(config.ad), tol=tol,
                initial_policy=initial_policy, method=ratio_method)
        else:
            solution = maximize_ratio(
                mdp, num, den, lo=0.0, hi=float(config.ad), tol=tol,
                method=ratio_method, initial_policy=initial_policy)
        policy = Policy(mdp, solution.policy)
        rates = policy_gains(mdp, solution.policy)
    return AttackAnalysis(config=config, model=IncentiveModel.NON_PROFIT,
                          utility=solution.value,
                          honest_utility=0.0,
                          policy=policy, rates=rates,
                          solver=_ratio_solver_info(solution))


def analyze(config: AttackConfig, model: IncentiveModel,
            mdp: Optional[MDP] = None, supervisor=None,
            ratio_method: Optional[str] = None,
            initial_policy: Optional[np.ndarray] = None
            ) -> AttackAnalysis:
    """Dispatch to the solver matching ``model``.

    Passing a :class:`repro.runtime.supervisor.SolverSupervisor` as
    ``supervisor`` runs the solve under budgets, input/output
    validation and the fallback chain.  ``ratio_method`` selects the
    ratio-objective method (ignored by the average-reward model);
    ``initial_policy`` warm-starts the solve.
    """
    if model is IncentiveModel.COMPLIANT_PROFIT:
        return solve_relative_revenue(config, mdp, supervisor=supervisor,
                                      ratio_method=ratio_method,
                                      initial_policy=initial_policy)
    if model is IncentiveModel.NONCOMPLIANT_PROFIT:
        return solve_absolute_reward(config, mdp, supervisor=supervisor,
                                     initial_policy=initial_policy)
    if model is IncentiveModel.NON_PROFIT:
        return solve_orphan_rate(config, mdp, supervisor=supervisor,
                                 ratio_method=ratio_method,
                                 initial_policy=initial_policy)
    raise ReproError(f"unknown incentive model {model!r}")


def utility_of_policy(mdp: MDP, policy: np.ndarray,
                      model: IncentiveModel) -> float:
    """Exactly evaluate a given policy's utility under ``model``."""
    num, den = model.utility_channels()
    gains = policy_gains(mdp, policy)
    num_rate = sum(w * gains[c] for c, w in num.items())
    if not den:
        return num_rate
    den_rate = sum(w * gains[c] for c, w in den.items())
    if den_rate <= 0:
        return 0.0
    return num_rate / den_rate
