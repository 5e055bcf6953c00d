"""Howard policy iteration for undiscounted average-reward MDPs.

This is the library's workhorse solver.  All of the paper's models are
*unichain*: every stationary policy drives the system back to the base
state (block races always resolve), so a policy's gain is
state-independent and can be computed exactly from one sparse linear
solve of the evaluation equations::

    h = r_pi - g * 1 + P_pi h,     h[ref] = 0

Improvement picks ``argmax_a r(s, a) + P(s, a) . h`` with ties broken in
favour of the incumbent action, which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.mdp.kernels import note_q_backups, q_backup_greedy
from repro.mdp.model import MDP
from repro.runtime.telemetry import counter_add, span

#: Improvement tolerance: an action must beat the incumbent by more than
#: this to trigger a policy change.
IMPROVE_TOL = 1e-11


@dataclass
class AverageRewardSolution:
    """Result of an average-reward solve.

    Attributes
    ----------
    gain:
        Optimal long-run average reward per step.
    bias:
        Bias (relative value) vector, normalized to 0 at the start state.
    policy:
        Optimal action index per state.
    iterations:
        Number of policy improvements (or value-iteration sweeps).
    """

    gain: float
    bias: np.ndarray
    policy: np.ndarray
    iterations: int


def evaluate_policy(mdp: MDP, policy: np.ndarray,
                    reward: np.ndarray) -> Tuple[float, np.ndarray]:
    """Exactly evaluate the gain and bias of ``policy`` for a
    precombined ``(A, N)`` reward array.

    Solves the (N+1)-dimensional linear system of the average-reward
    evaluation equations with the bias pinned to zero at the MDP's
    start state.  Assumes the policy is unichain.

    The solve runs through the MDP's
    :class:`~repro.mdp.kernels.PolicyEvalCache`: the per-policy
    preparation (renewal level split, or the LU fallback's
    factorization) depends only on the policy, so re-evaluating the
    same policy under a different (e.g. Dinkelbach-transformed) reward
    costs one substitution instead of a fresh preparation.
    """
    policy = np.asarray(policy, dtype=int)
    return mdp.eval_cache().evaluate(policy, reward)


def _default_policy(mdp: MDP) -> np.ndarray:
    """First available action in each state."""
    return np.asarray(mdp.available.argmax(axis=0), dtype=int)


def policy_iteration(mdp: MDP, reward: np.ndarray,
                     initial_policy: Optional[np.ndarray] = None,
                     max_iter: int = 1000,
                     on_iter: Optional[Callable[[int], None]] = None
                     ) -> AverageRewardSolution:
    """Solve an average-reward MDP exactly by Howard policy iteration.

    ``on_iter`` (if given) is called with the iteration number before
    each evaluation/improvement round; a budget supervisor can raise
    from it to abort a runaway solve (see :mod:`repro.runtime.budget`).
    """
    reward = np.asarray(reward, dtype=float)
    if initial_policy is None:
        policy = _default_policy(mdp)
    else:
        policy = np.asarray(initial_policy, dtype=int).copy()
        if not mdp.valid_policy(policy):
            raise SolverError("initial policy selects unavailable actions")
    states = np.arange(mdp.n_states)
    backups = 0
    iterations = 0
    try:
        with span("solve/average/policy-iteration"):
            for it in range(1, max_iter + 1):
                if on_iter is not None:
                    on_iter(it)
                iterations = it
                gain, bias = evaluate_policy(mdp, policy, reward)
                backups += 1
                q, best, greedy = q_backup_greedy(mdp, reward, bias)
                incumbent = q[policy, states]
                improvable = best > incumbent + IMPROVE_TOL
                if not improvable.any():
                    counter_add("solver/pi/solves")
                    return AverageRewardSolution(gain=gain, bias=bias,
                                                 policy=policy,
                                                 iterations=it)
                policy = policy.copy()
                policy[improvable] = greedy[improvable]
    finally:
        # One flush per solve instead of two bumps per improvement
        # round: merged totals are identical, the inner loop loses the
        # registry lookups.
        counter_add("solver/pi/iterations", iterations)
        note_q_backups(backups)
    raise SolverError(f"policy iteration did not converge in {max_iter} "
                      "improvements")
