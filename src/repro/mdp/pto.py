"""Probabilistic-termination (PTO) reduction for ratio objectives.

Bar-Zur, Eyal & Tamar ("Efficient MDP Analysis for Selfish-Mining in
Blockchains", AFT 2020) replace the ratio-of-gains objective

    maximize over policies    gain_num(policy) / gain_den(policy)

by a *probabilistically terminated* total-reward MDP: after a step
accruing denominator reward ``d`` the process survives with probability
``(1 - eps) ** (d / den_scale)``, so the expected accumulated
denominator before termination is the same ``den_scale / eps`` for
every non-degenerate policy and the terminated value of the transformed
reward ``num - rho * den`` has the sign of ``gain_num / gain_den - rho``
up to an ``O(eps)`` bias.

The key structural fact this module exploits: the terminated
evaluation system of a policy,

    (I - Gamma_pi P_pi) V = r_pi,

does **not** depend on ``rho`` -- only on the policy and ``eps``.  One
solve per policy therefore serves *both* reward channels (``V_num``,
``V_den``), and the PT value of the policy at any ``rho`` is the linear
combination ``V_num - rho * V_den``.  On a model with a structure
certificate (:func:`repro.mdp.kernels.structure_certificate`) that
solve is a back-substitution cut at the start state: ``V = a +
V_start c``, with ``V_start`` from one scalar equation; other models
fall back to a sparse LU of the system.

The outer loop is a Dinkelbach-style root finder on the PT optimal
value ``Phi(rho)`` (piecewise linear, convex, decreasing): run Howard
policy improvement on the terminated problem at fixed ``rho``, then
update ``rho <- V_num(start) / V_den(start)``.  Because evaluations
are cached per policy, an outer round whose optimal policy did not
change costs one cache hit and a single Q-backup -- **zero**
average-reward solves and zero new evaluations.  The small ``O(eps)``
bias only affects which policy wins near exact ties; the returned
value is de-biased by evaluating the final policy's exact channel
gains.

Counters: ``solver/ratio/pto/rounds`` (outer updates),
``solver/ratio/pto/transformed_solves`` (PT evaluations, each
solving both channels) and ``solver/ratio/pto/warm_start_hits``
(evaluations served from the per-solve policy cache).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sla

from repro.errors import SolverDivergedError, SolverError, SolverInputError
from repro.mdp.kernels import LevelSystem, note_q_backups, q_backup
from repro.mdp.model import MDP
from repro.mdp.ratio import DEN_FLOOR, RatioSolution
from repro.mdp.stationary import policy_gains
from repro.runtime.telemetry import counter_add, gauge_set, span

#: Termination probability per normalized unit of denominator reward.
#: Small enough that the O(eps) value bias cannot flip policy
#: preferences outside exact ties; large enough that the terminated
#: values (~ scale / eps) stay well inside float64 range.
PTO_TERMINATION = 2.0 ** -20

#: Relative improvement threshold of the inner PT policy iteration
#: (mirrors ``policy_iteration.IMPROVE_TOL``, but scaled by the PT
#: value magnitude, which is ~1/eps times the reward scale).
PT_IMPROVE_TOL = 1e-11

#: Inner Howard improvement rounds per outer ``rho`` update.
PT_MAX_INNER = 500


def _pt_continuation(r_den: np.ndarray, den_scale: float,
                     termination: float) -> np.ndarray:
    """Per-(action, state) survival probabilities
    ``(1 - eps) ** (den / den_scale)``, computed in log space so huge
    denominator entries underflow to 0 instead of raising."""
    exponent = np.clip(r_den, 0.0, None) / den_scale
    return np.exp(math.log1p(-termination) * exponent)


def solve_pto(mdp: MDP, num: Mapping[str, float],
              den: Mapping[str, float], lo: float, hi: float,
              tol: float = 1e-7, max_iter: int = 80,
              initial_policy: Optional[np.ndarray] = None,
              on_solve: Optional[Callable[[int], None]] = None,
              termination: float = PTO_TERMINATION
              ) -> Tuple[RatioSolution, float]:
    """Maximize ``gain(num) / gain(den)`` via the PTO reduction.

    Returns ``(solution, residual)`` where ``residual`` is the de-bias
    magnitude ``|value - rho_PT|`` (how far the exact ratio of the
    final policy sits from the terminated fixed point).  Raises a typed
    :class:`~repro.errors.SolverError` on degeneracy (a policy whose
    recurrent behaviour accrues no denominator makes the terminated
    evaluation system singular or its start value vanish) --
    :func:`repro.mdp.ratio.maximize_ratio` turns that into a bisection
    fallback exactly like Dinkelbach's.

    Parameters mirror :func:`repro.mdp.ratio.maximize_ratio`;
    ``termination`` is the PT stopping probability ``eps`` per
    normalized denominator unit.
    """
    if not 0.0 < termination < 1.0:
        raise SolverInputError(
            f"termination probability must lie in (0, 1), "
            f"got {termination!r}")
    r_num = np.asarray(mdp.combined_reward(dict(num)), dtype=float)
    r_den = np.asarray(mdp.combined_reward(dict(den)), dtype=float)
    avail = mdp.available
    den_scale = float(np.abs(r_den[avail]).max()) if avail.any() else 0.0
    if den_scale <= 0.0:
        raise SolverError(
            "PTO: the denominator channel is identically zero on every "
            "available (state, action) pair")
    if float(r_den[avail].min()) < -1e-12 * den_scale:
        raise SolverInputError(
            "PTO requires a nonnegative denominator reward (survival "
            "probabilities (1-eps)**(den/scale) exceed 1 otherwise); "
            f"min available den reward is {float(r_den[avail].min())!r}")

    gamma = _pt_continuation(r_den, den_scale, termination)
    # A non-degenerate policy accrues ~den_scale/eps denominator before
    # termination; the degeneracy floor on V_den(start) is the same
    # *relative* quantity Dinkelbach floors (g_den / max|r_den|).
    den_value_floor = DEN_FLOOR * den_scale / termination

    n = mdp.n_states
    rows = np.arange(n)
    kernel = mdp.kernel()
    cert = mdp.eval_cache().certificate()

    if initial_policy is not None:
        policy = np.asarray(initial_policy, dtype=int).copy()
        if not mdp.valid_policy(policy):
            raise SolverInputError(
                "initial policy selects unavailable actions")
    else:
        policy = np.asarray(mdp.available.argmax(axis=0), dtype=int)

    # Per-policy PT evaluations, keyed by the policy bytes.  The
    # evaluation is rho-independent, so a policy revisited at a new
    # rho is a pure cache hit -- this is where cross-iteration
    # warm-starting turns outer rounds nearly free.
    evaluations = {}
    pt_solves = 0

    def evaluate(pol: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal pt_solves
        key = pol.tobytes()
        hit = evaluations.get(key)
        if hit is not None:
            counter_add("solver/ratio/pto/warm_start_hits")
            return hit
        g_pi = gamma[pol, rows]
        try:
            if cert is not None:
                values = LevelSystem(kernel, cert, pol, g_pi).pinned(
                    np.column_stack([r_num[pol, rows], r_den[pol, rows]]))
                v_num, v_den = values[:, 0], values[:, 1]
            else:
                system = sparse.csc_matrix(
                    sparse.identity(n, format="csr")
                    - kernel.policy_matrix(pol).multiply(g_pi[:, None]))
                lu = sla.splu(system, permc_spec="COLAMD")
                v_num = lu.solve(r_num[pol, rows])
                v_den = lu.solve(r_den[pol, rows])
        except (RuntimeError, SolverError) as exc:
            # SuperLU raises on an exactly singular factor, the renewal
            # solve on a state or cycle that never terminates: the
            # policy has a recurrent class with zero denominator
            # (survival 1).
            raise SolverError(
                "PT evaluation system is singular -- the current "
                "policy accrues no denominator reward in some "
                f"recurrent class ({exc})") from exc
        if not (np.all(np.isfinite(v_num)) and np.all(np.isfinite(v_den))):
            raise SolverDivergedError(
                "PT evaluation produced non-finite terminated values")
        pt_solves += 1
        counter_add("solver/ratio/pto/transformed_solves")
        if on_solve is not None:
            on_solve(pt_solves)
        result = (v_num, v_den)
        evaluations[key] = result
        return result

    rho = float(lo)
    start = mdp.start
    rounds = 0
    backups = 0
    converged = False
    try:
        with span("solve/ratio/pto"):
            for rounds in range(1, max_iter + 1):
                counter_add("solver/ratio/pto/rounds")
                # Howard improvement on the terminated problem at fixed
                # rho.  Q(a, s) = w(a, s) + Gamma(a, s) * (P_a V)(s);
                # unavailable pairs inherit -inf from the kernel's
                # masked backup (gamma > 0 preserves the mask).
                for _ in range(PT_MAX_INNER):
                    v_num, v_den = evaluate(policy)
                    values = v_num - rho * v_den
                    backups += 1
                    pv = q_backup(mdp, _ZERO_REWARD(mdp), values)
                    q = (r_num - rho * r_den) + gamma * pv
                    incumbent = q[policy, rows]
                    best = q.max(axis=0)
                    improve_tol = PT_IMPROVE_TOL * max(
                        1.0, float(np.abs(values).max()))
                    improvable = best > incumbent + improve_tol
                    if not improvable.any():
                        break
                    greedy = q.argmax(axis=0)
                    policy = policy.copy()
                    policy[improvable] = greedy[improvable]
                else:
                    raise SolverError(
                        f"PT policy improvement did not converge in "
                        f"{PT_MAX_INNER} rounds at rho={rho!r}")
                v_start_num = float(v_num[start])
                v_start_den = float(v_den[start])
                if v_start_den <= den_value_floor:
                    raise SolverError(
                        "PTO hit a degenerate (zero-denominator) policy "
                        f"at rho={rho!r}: terminated denominator value "
                        f"{v_start_den!r} is below the floor "
                        f"{den_value_floor!r}")
                new_rho = v_start_num / v_start_den
                if not np.isfinite(new_rho):
                    raise SolverDivergedError(
                        f"PTO produced a non-finite ratio update at "
                        f"rho={rho!r}: {v_start_num!r} / {v_start_den!r}")
                if abs(new_rho - rho) <= tol * max(1.0, abs(new_rho)):
                    rho = new_rho
                    converged = True
                    break
                rho = new_rho
            if not converged:
                raise SolverError(
                    f"PTO did not converge in {max_iter} rounds "
                    f"(last rho={rho!r})")
    finally:
        note_q_backups(backups)

    # De-bias: the PT fixed point carries an O(eps) offset, but the
    # *policy* it selects is exact outside O(eps)-sized ties; report
    # that policy's exact average-reward ratio (one cached evaluation
    # via the shared PolicyEvalCache).
    gains = policy_gains(mdp, policy, set(num) | set(den))
    g_num = float(sum(w * gains[c] for c, w in num.items()))
    g_den = float(sum(w * gains[c] for c, w in den.items()))
    if not (np.isfinite(g_num) and np.isfinite(g_den)):
        raise SolverDivergedError(
            f"non-finite channel gains under the PTO policy: "
            f"gain_num={g_num!r}, gain_den={g_den!r}")
    if g_den <= DEN_FLOOR * den_scale:
        raise SolverError(
            "PTO converged to a policy with a degenerate average "
            f"denominator rate {g_den!r} (transient-only accumulation)")
    value = g_num / g_den
    residual = abs(value - rho)
    gauge_set("solver/ratio/pto/debias", residual)
    solution = RatioSolution(value=float(value), policy=policy,
                             gain_num=g_num, gain_den=g_den,
                             iterations=rounds, method="pto",
                             transformed_solves=pt_solves)
    return solution, residual


_ZERO_CACHE = {}


def _ZERO_REWARD(mdp: MDP) -> np.ndarray:
    """A shared all-zero ``(A, N)`` reward (the kernel backup computes
    ``reward + P @ V``; PTO needs the bare expectation ``P @ V``)."""
    zero = _ZERO_CACHE.get(id(mdp))
    if zero is None or zero.shape != (mdp.n_actions, mdp.n_states):
        zero = np.zeros((mdp.n_actions, mdp.n_states))
        _ZERO_CACHE.clear()  # one entry is enough; avoid unbounded growth
        _ZERO_CACHE[id(mdp)] = zero
    return zero
