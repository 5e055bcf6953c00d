"""Maximization of gain ratios over policies.

The paper's relative-revenue utility (Eq. 1) and orphan-rate utility
(Eq. 3) are ratios of long-run accumulation rates::

    maximize over policies    gain_num(policy) / gain_den(policy)

Following Sapirshtein et al., the transformed reward
``w(rho) = num - rho * den`` turns this into a family of standard
average-reward problems whose optimal gain ``f(rho)`` is non-increasing
in ``rho`` and crosses zero exactly at the optimal ratio.

Three methods are provided:

- **Dinkelbach iteration** (default): repeatedly set ``rho`` to the
  ratio of the current policy and re-solve; converges superlinearly
  when every encountered policy has a positive denominator rate.
- **Bisection**: robust fallback that also handles the degenerate case
  where some policies have zero denominator rate (e.g. the "always
  wait" policy of the non-profit-driven model, for which
  ``f(rho) = 0`` for all ``rho`` beyond the optimum); there the answer
  is the threshold ``sup { rho : f(rho) > 0 }``.
- **PTO** (:mod:`repro.mdp.pto`): the probabilistic-termination
  reduction of Bar-Zur, Eyal & Tamar -- the transformed problems
  become *terminated* total-reward problems whose policy evaluations
  are independent of ``rho``, so one evaluation per distinct policy
  serves every outer iteration.  Falls back to bisection on the same
  degeneracies as Dinkelbach (zero-denominator policies make the
  terminated system singular).

Every method threads the previous iterate's policy and bias vector
into the next transformed solve as a :class:`WarmStart`, so successive
solves start near their fixed point instead of from scratch (counter
``solver/ratio/warm_start_hits``).

The process-global default method resolves in a fixed order:
explicit :func:`set_ratio_method` wins over the
``REPRO_RATIO_METHOD`` environment variable, which wins over
``"dinkelbach"``.  ``maximize_ratio(method=None)`` resolves through
:func:`current_ratio_method`, which is how the ``--ratio-method`` CLI
flag reaches every solve, including in spawned sweep workers.

With ``strict=True`` the Dinkelbach and PTO methods raise a typed
:class:`~repro.errors.SolverError` on degeneracy or iteration
exhaustion instead of silently switching method -- this is what the
:class:`repro.runtime.supervisor.SolverSupervisor` fallback chain uses
to make each recovery step explicit and diagnosable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.errors import SolverDivergedError, SolverError, SolverInputError
from repro.mdp.model import MDP
from repro.mdp.policy_iteration import AverageRewardSolution, policy_iteration
from repro.mdp.stationary import policy_gains
from repro.runtime.telemetry import counter_add, gauge_set, span

#: A gain below this (relative to the reward scale of the transformed
#: problem) counts as "zero" when testing profitability.
GAIN_TOL = 1e-10

#: Denominator rates below this (relative to the denominator channel's
#: reward scale) abort Dinkelbach in favour of bisection.  Scaling both
#: objective channels by a common factor must not change which policies
#: count as degenerate, so the floor is applied to
#: ``g_den / max|r_den|``, not to ``g_den`` itself.
DEN_FLOOR = 1e-9

#: Recognized ratio-objective methods, in fallback-chain order.
RATIO_METHODS = ("dinkelbach", "bisection", "pto")

#: Environment variable naming the default ratio method (explicit
#: setter > env > built-in default).
RATIO_METHOD_ENV = "REPRO_RATIO_METHOD"

_ratio_method: Optional[str] = None


def set_ratio_method(method: Optional[str]) -> None:
    """Set the process-global default ratio method (``None`` resets to
    the environment/default resolution order)."""
    if method is not None and method not in RATIO_METHODS:
        raise SolverInputError(
            f"unknown ratio method {method!r}; expected one of "
            f"{RATIO_METHODS}")
    global _ratio_method
    _ratio_method = method


def current_ratio_method() -> str:
    """The ratio method ``maximize_ratio(method=None)`` will use:
    explicit :func:`set_ratio_method` > ``REPRO_RATIO_METHOD`` env >
    ``"dinkelbach"``."""
    if _ratio_method is not None:
        return _ratio_method
    env = os.environ.get(RATIO_METHOD_ENV, "").strip()
    if env:
        if env not in RATIO_METHODS:
            raise SolverInputError(
                f"{RATIO_METHOD_ENV}={env!r} names an unknown ratio "
                f"method; expected one of {RATIO_METHODS}")
        return env
    return "dinkelbach"


@dataclass
class WarmStart:
    """Starting point threaded between successive transformed solves.

    ``policy`` seeds policy iteration (``initial_policy=``); ``bias``
    seeds relative value iteration (``v0=``).  Solvers use whichever
    component they understand and ignore the other.
    """

    policy: np.ndarray
    bias: Optional[np.ndarray] = None


#: An average-reward solver usable by :func:`maximize_ratio`: takes the
#: MDP, a precombined reward array and an optional warm start.
AverageRewardSolver = Callable[[MDP, np.ndarray, Optional[WarmStart]],
                               AverageRewardSolution]


@dataclass
class RatioSolution:
    """Result of a ratio maximization.

    Attributes
    ----------
    value:
        The maximal ratio ``gain_num / gain_den``.
    policy:
        A policy achieving it.
    gain_num, gain_den:
        The two channel rates under that policy.
    iterations:
        Method rounds performed (transformed-MDP solves for
        Dinkelbach/bisection; outer ``rho`` updates for PTO).
    method:
        ``"dinkelbach"``, ``"bisection"`` or ``"pto"`` (which method
        produced the final answer).
    transformed_solves:
        Number of transformed-problem solves actually paid for:
        average-reward solves for Dinkelbach/bisection, terminated
        policy evaluations (one per distinct policy) for PTO.  This is
        the quantity the ``ratio-methods`` benchmark gates.
    """

    value: float
    policy: np.ndarray
    gain_num: float
    gain_den: float
    iterations: int
    method: str
    transformed_solves: int = 0


def _default_solver(mdp: MDP, reward: np.ndarray,
                    warm: Optional[WarmStart]) -> AverageRewardSolution:
    initial = None if warm is None else warm.policy
    return policy_iteration(mdp, reward, initial_policy=initial)


def _channel_gains(mdp: MDP, policy: np.ndarray,
                   num: Mapping[str, float],
                   den: Mapping[str, float],
                   rho: Optional[float] = None) -> tuple:
    gains = policy_gains(mdp, policy, set(num) | set(den))
    g_num = sum(w * gains[c] for c, w in num.items())
    g_den = sum(w * gains[c] for c, w in den.items())
    if not (np.isfinite(g_num) and np.isfinite(g_den)):
        where = "" if rho is None else f" at rho={rho!r}"
        raise SolverDivergedError(
            f"non-finite channel gains{where}: "
            f"gain_num={g_num!r}, gain_den={g_den!r}")
    return g_num, g_den


def _transformed(mdp: MDP, num: Mapping[str, float],
                 den: Mapping[str, float], rho: float) -> np.ndarray:
    weights = dict(num)
    for c, w in den.items():
        weights[c] = weights.get(c, 0.0) - rho * w
    return mdp.combined_reward(weights)


def _validate_inputs(num: Mapping[str, float], den: Mapping[str, float],
                     lo: float, hi: float, tol: float, max_iter: int,
                     method: str) -> None:
    if not num:
        raise SolverInputError("numerator channel mapping is empty")
    if not den:
        raise SolverInputError("denominator channel mapping is empty")
    if tol <= 0:
        raise SolverInputError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise SolverInputError(f"max_iter must be >= 1, got {max_iter!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SolverInputError(f"ratio bracket [{lo!r}, {hi!r}] must be "
                               "finite")
    if hi <= lo:
        raise SolverError("ratio bracket must satisfy lo < hi")
    if method not in RATIO_METHODS:
        raise SolverError(f"unknown method {method!r}")


def maximize_ratio(mdp: MDP, num: Mapping[str, float],
                   den: Mapping[str, float], lo: float, hi: float,
                   tol: float = 1e-7, max_iter: int = 80,
                   method: Optional[str] = None,
                   initial_policy: Optional[np.ndarray] = None,
                   strict: bool = False,
                   solver: Optional[AverageRewardSolver] = None,
                   on_solve: Optional[Callable[[int], None]] = None
                   ) -> RatioSolution:
    """Maximize ``gain(num) / gain(den)`` over stationary policies.

    Parameters
    ----------
    num, den:
        Channel-weight mappings defining numerator and denominator.
    lo, hi:
        Bracket known to contain the optimal ratio.
    tol:
        Absolute precision of the returned ratio.
    method:
        ``"dinkelbach"`` or ``"pto"`` (each with automatic bisection
        fallback unless ``strict``) or ``"bisection"``.  ``None``
        (default) resolves via :func:`current_ratio_method`.
    initial_policy:
        Optional warm start.
    strict:
        Dinkelbach/PTO only: raise :class:`~repro.errors.SolverError`
        when the iteration hits a zero-denominator policy or exhausts
        ``max_iter`` instead of silently falling back to bisection.
        Used by the supervised fallback chain, where each stage must
        fail loudly for the next stage to be tried deliberately.
    solver:
        Average-reward solver for the transformed problems; defaults
        to :func:`repro.mdp.policy_iteration.policy_iteration`.  The
        supervised fallback chain substitutes relative value iteration
        or the occupation-measure LP here.  (The PTO method performs
        its own terminated evaluations and does not use this.)
    on_solve:
        Called with the running transformed-solve count after each
        solve -- a budget supervisor's tick hook.
    """
    if method is None:
        method = current_ratio_method()
    _validate_inputs(num, den, lo, hi, tol, max_iter, method)
    if solver is None:
        solver = _default_solver
    solves = 0
    warm: Optional[WarmStart] = None
    if initial_policy is not None:
        warm = WarmStart(policy=np.asarray(initial_policy, dtype=int))

    # Reward scales make every tolerance below scale-equivariant:
    # multiplying num and/or den by a common factor changes neither
    # which policies count as degenerate nor the relative accuracy of
    # the accepted ratio (absolute GAIN_TOL/DEN_FLOOR would).
    num_scale = float(np.abs(mdp.combined_reward(num)).max())
    den_scale = float(np.abs(mdp.combined_reward(den)).max())
    den_floor = DEN_FLOOR * (den_scale if den_scale > 0 else 1.0)

    def run_solver(reward: np.ndarray,
                   warm: Optional[WarmStart]) -> AverageRewardSolution:
        nonlocal solves
        if warm is not None:
            counter_add("solver/ratio/warm_start_hits")
        solution = solver(mdp, reward, warm)
        solves += 1
        counter_add("solver/ratio/transformed_solves")
        if on_solve is not None:
            on_solve(solves)
        return solution

    def finish(solution: RatioSolution,
               residual: float) -> RatioSolution:
        counter_add("solver/ratio/solves")
        counter_add(f"solver/ratio/{solution.method}_wins")
        gauge_set("solver/ratio/value", solution.value)
        gauge_set("solver/ratio/final_residual", residual)
        return solution

    if method == "pto":
        from repro.mdp.pto import solve_pto  # deferred: pto imports us
        try:
            solution, residual = solve_pto(
                mdp, num, den, lo, hi, tol=tol, max_iter=max_iter,
                initial_policy=initial_policy, on_solve=on_solve)
            return finish(solution, residual)
        except SolverInputError:
            raise  # malformed problem; no method can recover
        except SolverError:
            if strict:
                raise
            # Degenerate (zero-denominator) policies make the
            # terminated evaluation singular -- the same cases that
            # abort Dinkelbach.  Recover with bisection.
            counter_add("solver/ratio/pto/fallbacks")
        # fall through to bisection

    if method == "dinkelbach":
        with span("solve/ratio/dinkelbach"):
            rho = lo
            best: Optional[RatioSolution] = None
            for _ in range(max_iter):
                counter_add("solver/ratio/dinkelbach_rounds")
                solution = run_solver(_transformed(mdp, num, den, rho),
                                      warm)
                warm = WarmStart(policy=solution.policy,
                                 bias=solution.bias)
                policy = solution.policy
                g_num, g_den = _channel_gains(mdp, policy, num, den,
                                              rho=rho)
                if g_den < den_floor:
                    if strict:
                        raise SolverError(
                            "Dinkelbach hit a degenerate "
                            "(zero-denominator) "
                            f"policy at rho={rho!r}: gain_num={g_num!r}, "
                            f"gain_den={g_den!r} "
                            f"(den_floor={den_floor!r})")
                    break  # degenerate policy; fall back to bisection
                new_rho = g_num / g_den
                best = RatioSolution(value=new_rho, policy=policy,
                                     gain_num=g_num, gain_den=g_den,
                                     iterations=solves,
                                     method="dinkelbach",
                                     transformed_solves=solves)
                # Scale-aware acceptance: the ratio step is measured
                # relative to the ratio's own magnitude and the
                # transformed-gain residual relative to the achieved
                # channel gains, so every reward scaling converges to
                # the same *relative* accuracy.
                gain_scale = max(abs(g_num), abs(g_den))
                if (new_rho <= rho + tol * max(1.0, abs(new_rho))
                        and abs(solution.gain)
                        <= max(GAIN_TOL, tol) * gain_scale):
                    return finish(best, abs(solution.gain))
                if new_rho <= rho:  # numerical stall; converged
                    return finish(best, abs(solution.gain))
                rho = new_rho
            else:
                if strict:
                    raise SolverError(
                        f"Dinkelbach did not converge in {max_iter} "
                        f"transformed solves (last rho={rho!r})")
                if best is not None:
                    return finish(best, abs(solution.gain))
            if strict and best is None:
                raise SolverError(
                    "Dinkelbach made no progress before degenerating at "
                    f"rho={rho!r}")
        # fall through to bisection

    # Bisection on the profitability threshold.
    with span("solve/ratio/bisection"):
        lo_b, hi_b = lo, hi
        best_warm = warm
        best_policy = None if warm is None else warm.policy
        last_gain = float("nan")
        for _ in range(max_iter):
            if hi_b - lo_b <= tol * max(1.0, abs(lo_b), abs(hi_b)):
                break
            counter_add("solver/ratio/bisection_rounds")
            mid = 0.5 * (lo_b + hi_b)
            solution = run_solver(_transformed(mdp, num, den, mid),
                                  best_warm)
            last_gain = abs(solution.gain)
            # Profitability is judged relative to the transformed
            # reward's scale: with both channels scaled by 1e-8, an
            # absolute threshold would classify every mid within ~1e-2
            # of the optimum as unprofitable and bias the bracket.
            w_scale = max(num_scale, abs(mid) * den_scale)
            if solution.gain > GAIN_TOL * max(w_scale, 1e-300):
                lo_b = mid
                best_policy = solution.policy
                best_warm = WarmStart(policy=solution.policy,
                                      bias=solution.bias)
            else:
                hi_b = mid
        if best_policy is None:
            solution = run_solver(_transformed(mdp, num, den, lo_b), None)
            best_policy = solution.policy
            last_gain = abs(solution.gain)
        g_num, g_den = _channel_gains(mdp, best_policy, num, den,
                                      rho=lo_b)
        value = g_num / g_den if g_den > den_floor else 0.5 * (lo_b + hi_b)
        if not np.isfinite(value):
            raise SolverDivergedError(
                f"ratio bisection produced non-finite value {value!r} "
                f"(gain_num={g_num!r}, gain_den={g_den!r})")
        return finish(RatioSolution(value=float(value), policy=best_policy,
                                    gain_num=g_num, gain_den=g_den,
                                    iterations=solves, method="bisection",
                                    transformed_solves=solves),
                      last_gain)
