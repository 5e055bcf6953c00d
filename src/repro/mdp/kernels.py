"""Stacked Bellman kernels and cross-solve policy-evaluation caching.

This module is the performance layer under every MDP solver in the
library.  Two observations drive it:

1. **The Q-backup is a single sparse matmul.**  All dynamic-programming
   solvers (discounted and relative value iteration, policy iteration,
   finite-horizon backward induction) repeat the same inner step::

       q[a] = reward[a] + discount * P_a . values     for every action a

   Stacking the per-action transition matrices once into one
   ``(A * N, N)`` CSR matrix turns the per-action Python loop into one
   ``stack @ values`` followed by a reshape, and lets the policy-induced
   matrix ``P_pi`` be extracted by fancy row slicing
   (``rows = policy * N + arange(N)``) instead of a
   ``diags(mask) @ P_a`` product per action.

2. **Attack MDPs need no factorization at all.**  Cut the start state
   (drop every transition *into* it) and drop self-loops: what is left
   of the union graph of every action's transitions is a DAG on the
   paper's attack MDPs.  :func:`structure_certificate` checks this
   once per transition structure and returns the DAG's topological
   levels.  Under a certified model every policy's chain is a renewal
   process that restarts at ``start``, and the average-reward
   evaluation system

   .. code-block:: text

       A = [ I - P_pi   1 ]        A [h; g] = [r_pi; 0]
           [ e_start^T  0 ]

   is solved by one level-by-level back-substitution with two
   right-hand sides: ``a`` (expected reward until the next visit to
   ``start``) and ``b`` (expected steps until then), each self-loop
   divided out in closed form by ``1 - p_ss``.  The gain is expected
   cycle reward over expected cycle length, ``g = a[start] /
   b[start]``, and the bias is ``h = a - g b`` (zero at ``start``).
   The stationary distribution is one forward pass over the same
   levels -- expected visits per cycle over cycle length.  A non-start
   state with ``1 - p_ss <= 0`` is absorbing, so the policy is
   multichain and the evaluation raises
   :class:`~repro.errors.SolverError`, as the LU does.

   At 30k states the arithmetic of a pass is small next to fixed
   per-call costs, so the certificate's Kahn loop runs on raw CSR
   arrays, a policy keeps one level-ordered CSR matrix (no per-level
   objects) whose level row ranges go straight to scipy's CSR matvec
   routine, and long reductions use :func:`dot` rather than a
   threaded BLAS ``ddot``.

   Models without a certificate (a cycle survives the start cut, as in
   the selfish-mining baselines and random test models) fall back to a
   sparse LU of ``A`` (COLAMD ordering): it depends only on the policy,
   so one factorization serves every transformed reward, and the
   stationary distribution is the transposed solve with right-hand
   side ``e_n`` (``A^T [y; c] = e_n`` forces ``c = 0`` because
   ``(I - P_pi) 1 = 0``, so ``y`` is the stationary distribution).

:class:`PolicyEvalCache` memoizes the per-policy preparation (the
level split or the LU) and its results, keyed by
``policy.tobytes()``, on behalf of
:func:`repro.mdp.policy_iteration.evaluate_policy` and
:func:`repro.mdp.stationary.policy_gains`; see ``docs/performance.md``
for the cache-key and invalidation rules.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse import linalg as sla

from repro.errors import MDPError, SolverError
from repro.runtime.telemetry import counter_add, span

#: Per-policy memo size for (reward -> gain/bias) results; Dinkelbach
#: revisits at most a handful of transformed rewards per policy.
EVAL_MEMO_SIZE = 8

#: Default number of policies kept per cache (LRU).
POLICY_CACHE_SIZE = 32


class BellmanKernel:
    """Precomputed ``(A * N, N)`` CSR stack of an MDP's transitions.

    The stack's row ``a * N + s`` is the transition row of action ``a``
    in state ``s``; it is built once per MDP (lazily, via
    ``MDP.kernel()``) and shared by every solver touching that MDP.
    """

    def __init__(self, mdp) -> None:
        self.n_states = mdp.n_states
        self.n_actions = mdp.n_actions
        self.stack = sparse.vstack(mdp.transition, format="csr")
        self.available = mdp.available
        self._all_available = bool(mdp.available.all())
        self._rows = np.arange(mdp.n_states)

    def q_values(self, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> np.ndarray:
        """Return the ``(A, N)`` action-value array
        ``q[a, s] = reward[a, s] + discount * P_a[s] . values`` with
        unavailable (state, action) pairs masked to ``-inf``.

        One stack matvec, then discount, reward add and mask in that
        order -- the operation order :mod:`repro.mdp._kernel_ref`
        reproduces loop by loop.
        """
        q = self.stack.dot(values).reshape(self.n_actions, self.n_states)
        if discount != 1.0:
            q *= discount
        q += reward
        if not self._all_available:
            q[~self.available] = -np.inf
        return q

    def policy_rows(self, policy: np.ndarray) -> np.ndarray:
        """Stack row indices selected by ``policy`` (one per state)."""
        policy = np.asarray(policy, dtype=np.intp)
        if policy.shape != (self.n_states,):
            raise MDPError("policy must assign one action per state")
        if policy.size and (policy.min() < 0
                            or policy.max() >= self.n_actions):
            raise MDPError("policy contains out-of-range action indices")
        return policy * self.n_states + self._rows

    def policy_matrix(self, policy: np.ndarray) -> sparse.csr_matrix:
        """The ``(N, N)`` transition matrix induced by ``policy``,
        extracted by row slicing of the stack."""
        return self.stack[self.policy_rows(policy)]


def q_backup(mdp, reward: np.ndarray, values: np.ndarray,
             discount: float = 1.0) -> np.ndarray:
    """Shared Q-backup used by every dynamic-programming solver.

    The ``kernel/q_backups`` telemetry counter is *not* bumped here:
    solvers accumulate their backup count locally and flush it once
    per solve via :func:`note_q_backups` (merged totals are identical
    to per-call counting, without a registry dict lookup in the inner
    loop).
    """
    return mdp.kernel().q_values(reward, values, discount=discount)


def q_backup_max(mdp, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Q-backup reduced to ``(q.max(axis=0), q.argmax(axis=0))`` -- the
    sweep shape of value-style iterations (VI, RVI, backward
    induction)."""
    q = mdp.kernel().q_values(reward, values, discount)
    return q.max(axis=0), np.asarray(q.argmax(axis=0), dtype=np.int64)


def q_backup_greedy(mdp, reward: np.ndarray, values: np.ndarray,
                    discount: float = 1.0
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q-backup returning ``(q, best, greedy_policy)`` -- the
    improvement shape of Howard policy iteration, which also needs the
    incumbent's action values."""
    q = mdp.kernel().q_values(reward, values, discount)
    return q, q.max(axis=0), np.asarray(q.argmax(axis=0), dtype=np.int64)


def q_backup_states(mdp, reward: np.ndarray, values: np.ndarray,
                    states: np.ndarray, discount: float = 1.0
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Q-backup over a *subset* of states: ``(best, policy)`` arrays of
    length ``len(states)``, bit-identical to slicing
    :func:`q_backup_max`'s result at ``states`` (the stack is
    row-sliced at every (action, state) pair of the subset, then the
    same dot/discount/add/mask sequence runs).  No solver calls it; it
    stays because the ``perfbench`` layer trace still wraps it by name
    as one of the ``mdp.kernels.backup`` entry points."""
    kernel = mdp.kernel()
    states = np.asarray(states, dtype=np.int64)
    rows = (np.arange(kernel.n_actions, dtype=np.int64)[:, None]
            * kernel.n_states + states).ravel()
    q = kernel.stack[rows].dot(values).reshape(kernel.n_actions,
                                               states.size)
    if discount != 1.0:
        q *= discount
    q += reward[:, states]
    if not kernel._all_available:
        q[~kernel.available[:, states]] = -np.inf
    return q.max(axis=0), np.asarray(q.argmax(axis=0), dtype=np.int64)


def note_q_backups(count: int) -> None:
    """Flush a solver's locally-accumulated backup count into the
    ``kernel/q_backups`` counter once per solve.  Counters stay
    worker-merge-safe and value-identical to the historical per-call
    bumps."""
    if count:
        counter_add("kernel/q_backups", count)


def greedy_policy_from_q(q: np.ndarray) -> np.ndarray:
    """Greedy action indices of a masked ``(A, N)`` Q array (first
    maximizer on ties, the ``np.argmax`` tie-break)."""
    return np.asarray(q.argmax(axis=0), dtype=int)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D arrays, summed by numpy's own einsum
    loop instead of BLAS ``ddot``.  A threaded OpenBLAS ``ddot`` on a
    30k-element vector can stall for milliseconds per call (see
    ``docs/performance.md``); ``tests/mdp/test_no_blas_dot.py`` keeps
    BLAS dots out of the solver and model modules."""
    return float(np.einsum("i,i->", a, b))


class StructureCertificate(NamedTuple):
    """Topological levels of an MDP's start-cut union graph.

    The graph has an edge ``s -> t`` when some action moves ``s`` to
    ``t`` with ``t != s`` and ``t != start``.  ``order`` lists the
    states level by level: level 0 holds the states with no such edge,
    and every edge leaves a state for a strictly lower level.  Level
    ``k`` occupies ``order[bounds[k]:bounds[k + 1]]``; ``rank`` is the
    inverse permutation (a state's position in ``order``).

    The Bellman stack is kept split the same way: ``cut`` holds the
    graph's edges with their probabilities (columns relabeled to
    positions), and ``loop`` / ``to_start`` the self-loop and
    into-start probability of every stack row.
    """

    start: int
    order: np.ndarray
    rank: np.ndarray
    bounds: np.ndarray
    cut: sparse.csr_matrix
    loop: np.ndarray
    to_start: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.bounds) - 1


def structure_certificate(kernel: BellmanKernel,
                          start: int) -> Optional[StructureCertificate]:
    """The :class:`StructureCertificate` of ``kernel``'s transition
    structure, or ``None`` when a cycle survives the start cut.

    Timed as the ``kernel/structure`` span; the outcome is counted as
    ``kernel/structure/dag`` or ``kernel/structure/cyclic``.
    """
    n = kernel.n_states
    with span("kernel/structure"):
        stack = kernel.stack
        n_rows = stack.shape[0]
        row_of = np.repeat(np.arange(n_rows), np.diff(stack.indptr))
        dst = stack.indices
        into_start = dst == start
        loop = (dst == row_of % n) & ~into_start
        edge = ~(into_start | loop) & (stack.data != 0)
        levels = _topological_levels(row_of[edge] % n, dst[edge], n)
        if levels is None:
            counter_add("kernel/structure/cyclic")
            return None
        counter_add("kernel/structure/dag")
        order = np.concatenate(levels)
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        bounds = np.zeros(len(levels) + 1, dtype=np.intp)
        np.cumsum([level.size for level in levels], out=bounds[1:])
        indptr = np.zeros_like(stack.indptr)
        np.cumsum(np.bincount(row_of[edge], minlength=n_rows),
                  out=indptr[1:])
        cut = sparse.csr_matrix(
            (stack.data[edge], rank[dst[edge]], indptr),
            shape=stack.shape)

        def row_sums(mask: np.ndarray) -> np.ndarray:
            # (An empty weighted bincount comes back as int64.)
            return np.bincount(row_of[mask], stack.data[mask],
                               minlength=n_rows).astype(float)

        return StructureCertificate(int(start), order, rank, bounds, cut,
                                    row_sums(loop), row_sums(into_start))


def _topological_levels(src: np.ndarray, dst: np.ndarray,
                        n: int) -> Optional[list]:
    """Kahn's algorithm on the reversed graph of the edges
    ``src -> dst``, one vectorized step per level on raw CSR arrays:
    level 0 is the states without successors, and every level is
    sorted.  ``None`` when a cycle leaves states unplaced."""
    # preds[indptr[t]:indptr[t + 1]] are the predecessors of t
    # (duplicate edges merged).
    matrix = sparse.csr_matrix(
        (np.ones(src.size, dtype=bool), (dst, src)), shape=(n, n))
    indptr, preds = matrix.indptr, matrix.indices
    remaining = np.bincount(preds, minlength=n)
    frontier = np.flatnonzero(remaining == 0)
    levels = []
    while frontier.size:
        levels.append(frontier)
        # Concatenate the frontier's predecessor ranges: entry j of
        # range i sits at starts[i] + j.
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        shift = np.repeat(starts + counts - np.cumsum(counts), counts)
        parents, hits = np.unique(preds[shift + np.arange(shift.size)],
                                  return_counts=True)
        remaining[parents] -= hits
        frontier = parents[remaining[parents] == 0]
    if sum(level.size for level in levels) < n:
        return None
    return levels


class LevelSystem:
    """One policy's transition matrix in certificate order, split for
    renewal solves: the start column (``to_start``), the self-loops
    (through ``divisor = 1 - p_ss``) and the remaining transitions,
    which only lead to lower levels.  Rows may be scaled first
    (``row_scale``; PTO's survival probabilities).  The start row's
    divisor is 1: its self-loop is part of the start column.

    The remaining transitions are kept as one level-ordered CSR matrix
    (and its transpose, built on the first forward pass); the passes
    walk slices of its arrays, so preparing a policy builds no
    per-level objects.  Preparation is timed as the
    ``kernel/renewal/prepare`` span, every pass as
    ``kernel/renewal/pass``.

    Raises :class:`~repro.errors.SolverError` when a non-start state
    keeps all its mass (``divisor <= 0``): the policy is multichain.
    """

    __slots__ = ("cert", "pos_start", "to_start", "divisor", "_off",
                 "_off_t")

    def __init__(self, kernel: BellmanKernel, cert: StructureCertificate,
                 policy: np.ndarray,
                 row_scale: Optional[np.ndarray] = None) -> None:
        with span("kernel/renewal/prepare"):
            self.cert = cert
            self.pos_start = int(cert.rank[cert.start])
            rows = kernel.policy_rows(policy)[cert.order]
            off = cert.cut[rows]
            loop = cert.loop[rows]
            self.to_start = cert.to_start[rows]
            if row_scale is not None:
                scale = row_scale[cert.order]
                off.data *= np.repeat(scale, np.diff(off.indptr))
                loop *= scale
                self.to_start *= scale
            self.divisor = 1.0 - loop
            self.divisor[self.pos_start] = 1.0
            if not (self.divisor > 0.0).all():
                state = int(cert.order[np.argmin(self.divisor > 0.0)])
                raise SolverError(
                    f"policy evaluation failed: state {state} is "
                    "absorbing under the evaluated policy (1 - p_ss <= "
                    "0); the policy is multichain")
            self._off = off
            self._off_t: Optional[sparse.csr_matrix] = None

    def back(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``x = (rhs + off @ x) / divisor`` level by level from
        level 0 up (``rhs`` and ``x`` in certificate order)."""
        levels = zip(self.cert.bounds[:-1].tolist(),
                     self.cert.bounds[1:].tolist())
        with span("kernel/renewal/pass"):
            return _substitute(rhs, self.divisor, self._off, levels)

    def forward(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``x = (rhs + off.T @ x) / divisor`` from the top level
        down (the transposed system: expected visits per cycle)."""
        if self._off_t is None:
            with span("kernel/renewal/prepare"):
                self._off_t = self._off.T.tocsr()
        bounds = self.cert.bounds.tolist()
        levels = zip(bounds[-2::-1], bounds[:0:-1])
        with span("kernel/renewal/pass"):
            return _substitute(rhs, self.divisor, self._off_t, levels)

    def pinned(self, rewards: np.ndarray) -> np.ndarray:
        """Solve ``(I - M) V = rewards`` for the (row-scaled) policy
        matrix ``M``, every cycle of which passes ``start``; ``rewards``
        is ``(N, m)`` in state order.  Cut at start, ``V = a +
        V[start] c`` with ``c`` solving for the start column as the
        right-hand side, and ``V[start] = a[start] / (1 - c[start])``.
        """
        order = self.cert.order
        x = self.back(np.column_stack([rewards[order], self.to_start]))
        keep_mass = 1.0 - x[self.pos_start, -1]
        if not keep_mass > 0.0:
            raise SolverError(
                "evaluation system is singular: the policy returns to "
                "the start state with probability 1 and never stops")
        v_start = x[self.pos_start, :-1] / keep_mass
        values = x[:, :-1] + np.outer(x[:, -1], v_start)
        return values[self.cert.rank]


def _substitute(rhs: np.ndarray, divisor: np.ndarray,
                matrix: sparse.csr_matrix, levels: Iterable) -> np.ndarray:
    """Solve ``x = (rhs + matrix @ x) / divisor`` visiting the row
    ranges ``levels`` (``(lo, hi)`` pairs) in order; the rows of each
    range only read ranges visited before it, so unfilled ``x`` is
    never read.

    Each range is one call of scipy's CSR matvec kernel -- the routine
    behind ``block @ x`` -- on slices of ``matrix``'s arrays, written
    straight into ``x``: the same arithmetic in the same order as a
    product with a per-level CSR block, without building one."""
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n = matrix.shape[1]
    x = np.zeros(rhs.shape)
    flat = x.ravel()
    # (N, m) views: a 1-D right-hand side is one column.
    columns = x.reshape(len(x), -1)
    rhs = rhs.reshape(len(rhs), -1)
    divisor = divisor[:, None]
    width = columns.shape[1]
    for lo, hi in levels:
        block = columns[lo:hi]
        _sparsetools.csr_matvecs(hi - lo, n, width, indptr[lo:hi + 1],
                                 indices, data, flat, block.ravel())
        block += rhs[lo:hi]
        block /= divisor[lo:hi]
    return x


@dataclass
class EvalCacheStats:
    """Hit/miss counters of a :class:`PolicyEvalCache`.

    ``factorizations`` counts per-policy preparations -- the expensive
    operation the cache exists to avoid: a level split on a certified
    model, a sparse LU factorization otherwise.  ``lu_fallbacks``
    counts the preparations that were LU factorizations, and
    ``substitutions`` the renewal solves (one back- or forward pass
    over the levels each).
    """

    policy_hits: int = 0
    policy_misses: int = 0
    eval_hits: int = 0
    eval_misses: int = 0
    gain_hits: int = 0
    gain_misses: int = 0
    stationary_hits: int = 0
    stationary_misses: int = 0
    factorizations: int = 0
    lu_fallbacks: int = 0
    substitutions: int = 0

    def bump(self, name: str, value: int = 1) -> None:
        """Increment one counter, mirroring it into the telemetry
        registry (``eval_cache/<name>``) so traces always agree with
        the stats object."""
        setattr(self, name, getattr(self, name) + value)
        counter_add(f"eval_cache/{name}", value)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _PolicyStructure:
    """Reward-independent artifacts of one policy: its renewal level
    system (certified models) or evaluation-system LU factorization
    (the fallback), and the stationary distribution.  Shareable between
    MDPs that differ only in reward channels."""

    __slots__ = ("policy", "kernel", "cert", "start", "_system", "_lu",
                 "_p_pi", "_pi")

    def __init__(self, policy: np.ndarray, kernel: BellmanKernel,
                 cert: Optional[StructureCertificate], start: int) -> None:
        self.policy = policy
        self.kernel = kernel
        self.cert = cert
        self.start = start
        self._system: Optional[LevelSystem] = None
        self._lu = None
        self._p_pi: Optional[sparse.csr_matrix] = None
        self._pi: Optional[np.ndarray] = None

    @property
    def p_pi(self) -> sparse.csr_matrix:
        """The policy-induced transition matrix (built on first use)."""
        if self._p_pi is None:
            self._p_pi = self.kernel.policy_matrix(self.policy)
        return self._p_pi

    def system(self, stats: EvalCacheStats) -> LevelSystem:
        if self._system is None:
            self._system = LevelSystem(self.kernel, self.cert,
                                       self.policy)
            stats.bump("factorizations")
        return self._system

    def lu(self, stats: EvalCacheStats):
        if self._lu is None:
            n = self.p_pi.shape[0]
            eye = sparse.identity(n, format="csr")
            ones = sparse.csr_matrix(np.ones((n, 1)))
            pin = sparse.csr_matrix(
                (np.ones(1), (np.zeros(1, dtype=int),
                              np.array([self.start]))), shape=(1, n))
            top = sparse.hstack([eye - self.p_pi, ones], format="csr")
            bottom = sparse.hstack([pin, sparse.csr_matrix((1, 1))],
                                   format="csr")
            system = sparse.vstack([top, bottom], format="csc")
            try:
                # COLAMD ordering factors the 30k-state evaluation
                # systems ~1.7x faster than SuperLU's default.
                self._lu = sla.splu(system, permc_spec="COLAMD")
            except Exception as exc:
                raise SolverError(
                    f"policy evaluation failed: {exc}") from exc
            stats.bump("factorizations")
            stats.bump("lu_fallbacks")
        return self._lu

    def gain_bias(self, r_pi: np.ndarray,
                  stats: EvalCacheStats) -> Tuple[float, np.ndarray]:
        if self.cert is not None:
            system = self.system(stats)
            rhs = np.column_stack([r_pi[self.cert.order],
                                   np.ones(r_pi.size)])
            x = system.back(rhs)
            stats.bump("substitutions")
            cycle_reward, cycle_length = x[system.pos_start]
            gain = cycle_reward / cycle_length
            bias = x[:, 0] - gain * x[:, 1]
            bias[system.pos_start] = 0.0
            bias = bias[self.cert.rank]
        else:
            n = r_pi.size
            solution = self.lu(stats).solve(np.concatenate([r_pi, [0.0]]))
            gain, bias = solution[n], solution[:n]
        if not (np.isfinite(gain) and np.all(np.isfinite(bias))):
            raise SolverError(
                "policy evaluation produced non-finite values; the policy "
                "is likely multichain (start state unreachable)")
        return float(gain), bias

    def stationary(self, stats: EvalCacheStats) -> np.ndarray:
        if self._pi is None:
            stats.bump("stationary_misses")
            n = self.kernel.n_states
            if self.cert is not None:
                system = self.system(stats)
                rhs = np.zeros(n)
                rhs[system.pos_start] = 1.0
                visits = system.forward(rhs)
                stats.bump("substitutions")
                candidate = visits[self.cert.rank]
            else:
                rhs = np.zeros(n + 1)
                rhs[n] = 1.0
                candidate = self.lu(stats).solve(rhs, trans="T")[:n]
            # Verify the residual of the normalized solution: an LU of
            # a (near-)singular evaluation system -- a multichain
            # policy -- can return finite garbage that `isfinite`
            # alone would accept.
            from repro.mdp.stationary import _check_stationary_residual
            self._pi = _check_stationary_residual(
                candidate, self.p_pi,
                f"policy stationary (start={self.start})")
        else:
            stats.bump("stationary_hits")
        return self._pi


class _PolicyEntry:
    """Cache record for one policy: shared structure plus the
    reward-dependent memos (channel gains, transformed-reward
    evaluations)."""

    __slots__ = ("structure", "gains", "evals")

    def __init__(self, structure: _PolicyStructure) -> None:
        self.structure = structure
        self.gains: Dict[str, float] = {}
        self.evals: "OrderedDict[bytes, Tuple[float, np.ndarray]]" = \
            OrderedDict()


class PolicyEvalCache:
    """Per-MDP memoization of policy evaluations, keyed by
    ``policy.tobytes()``.

    Cached once per transition structure: the
    :class:`StructureCertificate` (or ``None``), which picks every
    policy's evaluation path.

    Cached per policy:

    - the policy's renewal level system on a certified model, else the
      LU factorization of the average-reward evaluation system --
      *reward-independent*;
    - the stationary distribution (one forward pass over the levels,
      or one transposed triangular solve on the factorization) --
      *reward-independent*;
    - per-channel gains ``pi . r_pi`` and (gain, bias) pairs per
      transformed reward -- *reward-dependent*, dropped by
      :meth:`invalidate_rewards`.

    The reward-dependent memos key transformed rewards by a digest of
    the combined ``(A, N)`` array, which is what makes Dinkelbach's
    re-evaluation of the incumbent policy at the converged ``rho`` (and
    the final ``policy_gains`` reporting pass) hit instead of
    re-preparing.
    """

    def __init__(self, mdp, max_policies: int = POLICY_CACHE_SIZE) -> None:
        # The MDP owns its cache (``MDP.eval_cache``); a weak reference
        # back keeps the pair out of a reference cycle, so an MDP that
        # drops out of the build cache is freed at once rather than at
        # the next full garbage collection.
        self._mdp_ref = weakref.ref(mdp)
        self._max = int(max_policies)
        self._entries: "OrderedDict[bytes, _PolicyEntry]" = OrderedDict()
        # One-slot holder shared with every structure view, so the
        # certificate is computed once whichever cache asks first.
        self._cert: list = []
        self.stats = EvalCacheStats()

    @property
    def _mdp(self):
        mdp = self._mdp_ref()
        if mdp is None:
            raise MDPError("the MDP of this evaluation cache was freed")
        return mdp

    def certificate(self) -> Optional[StructureCertificate]:
        """The MDP's structure certificate (computed on first use)."""
        if not self._cert:
            self._cert.append(structure_certificate(self._mdp.kernel(),
                                                    self._mdp.start))
        return self._cert[0]

    # -- entry management ---------------------------------------------

    def _entry(self, policy: np.ndarray) -> _PolicyEntry:
        policy = np.asarray(policy, dtype=int)
        key = policy.tobytes()
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.bump("policy_hits")
            self._entries.move_to_end(key)
            return entry
        self.stats.bump("policy_misses")
        kernel = self._mdp.kernel()
        kernel.policy_rows(policy)  # validate before caching
        entry = _PolicyEntry(_PolicyStructure(
            policy.copy(), kernel, self.certificate(), self._mdp.start))
        self._entries[key] = entry
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    # -- evaluations --------------------------------------------------

    def evaluate(self, policy: np.ndarray,
                 reward: np.ndarray) -> Tuple[float, np.ndarray]:
        """Gain and bias of ``policy`` under a precombined ``(A, N)``
        reward array (the cached engine behind
        :func:`repro.mdp.policy_iteration.evaluate_policy`)."""
        entry = self._entry(policy)
        reward = np.asarray(reward, dtype=float)
        memo_key = reward.tobytes()
        hit = entry.evals.get(memo_key)
        if hit is not None:
            self.stats.bump("eval_hits")
            entry.evals.move_to_end(memo_key)
            gain, bias = hit
            return gain, bias.copy()
        self.stats.bump("eval_misses")
        r_pi = reward[entry.structure.policy,
                      np.arange(self._mdp.n_states)]
        gain, bias = entry.structure.gain_bias(r_pi, self.stats)
        entry.evals[memo_key] = (gain, bias)
        while len(entry.evals) > EVAL_MEMO_SIZE:
            entry.evals.popitem(last=False)
        return gain, bias.copy()

    def stationary(self, policy: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy-induced chain."""
        return self._entry(policy).structure.stationary(self.stats)

    def channel_gains(self, policy: np.ndarray,
                      channels: Optional[Iterable[str]] = None
                      ) -> Dict[str, float]:
        """Long-run per-step rate of each reward channel under
        ``policy`` (the cached engine behind
        :func:`repro.mdp.stationary.policy_gains`)."""
        entry = self._entry(policy)
        names = list(channels) if channels is not None \
            else self._mdp.channels
        missing = [n for n in names if n not in entry.gains]
        if missing:
            self.stats.bump("gain_misses", len(missing))
            pi = entry.structure.stationary(self.stats)
            states = np.arange(self._mdp.n_states)
            rows = entry.structure.policy, states
            for name in missing:
                r_pi = self._mdp.channel_reward(name)[rows]
                entry.gains[name] = dot(pi, r_pi)
        self.stats.bump("gain_hits", len(names) - len(missing))
        return {name: entry.gains[name] for name in names}

    # -- invalidation -------------------------------------------------

    def invalidate_rewards(self) -> None:
        """Drop every reward-dependent memo (channel gains and
        transformed-reward evaluations) while keeping the expensive
        reward-independent structure (level systems, LU
        factorizations, stationary distributions).

        Call this if an MDP's reward channels are replaced in place;
        the reward-channel rebuild path of
        :func:`repro.core.attack_mdp.build_attack_mdp` uses
        :meth:`structure_view` instead, which achieves the same on a
        fresh MDP instance without mutating the source cache.
        """
        for entry in self._entries.values():
            entry.gains.clear()
            entry.evals.clear()

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()

    def structure_view(self, mdp) -> "PolicyEvalCache":
        """A new cache for ``mdp`` (same transition structure,
        different reward channels) that shares this cache's structure
        certificate and per-policy structure artifacts but starts with
        empty reward memos."""
        view = PolicyEvalCache(mdp, max_policies=self._max)
        view._cert = self._cert
        for key, entry in self._entries.items():
            view._entries[key] = _PolicyEntry(entry.structure)
        return view
