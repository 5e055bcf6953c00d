"""Monte-Carlo rollouts of a fixed policy on an MDP.

Used to cross-validate the exact solvers: sampling the induced Markov
chain and averaging each reward channel must agree with the stationary
gains within sampling error.  Two samplers share one set of
per-state sampling tables (:class:`PolicyTables`, row-sliced off the
stacked Bellman kernel):

- :func:`rollout` -- the serial reference sampler, one trajectory,
  one Python-level step at a time.
- :func:`rollout_batch` -- the high-throughput engine: ``B``
  independent trajectories advance simultaneously with vectorized
  numpy gather/compare ops, consuming per-trajectory uniform streams
  in chunks.  With the default ``"cdf"`` method a batched trajectory
  is *bit-identical* to a serial one driven by the same generator;
  the ``"alias"`` method trades that equivalence for O(1) draws per
  step (Walker/Vose alias tables).

Memory is O(``n_traj * n_states``) regardless of step count: only
visit counts are accumulated, never trajectories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.mdp.kernels import dot
from repro.mdp.model import MDP
from repro.runtime.telemetry import counter_add, gauge_set, span

#: Steps advanced per uniform-draw chunk in :func:`rollout_batch`.
#: Chunking only batches the random draws and the visit-count
#: scatter; it never changes the sampled trajectories.
DEFAULT_CHUNK = 4096

#: Sampling methods understood by :func:`rollout_batch`.
METHODS = ("cdf", "alias")


class PolicyTables:
    """Padded per-state sampling tables of a policy-induced chain.

    Rows come from :meth:`repro.mdp.kernels.BellmanKernel.policy_matrix`
    (the same fancy row slicing every solver uses), so probabilities
    are taken as-is from the validated MDP -- rows already sum to one
    and are *not* renormalized here.

    Attributes
    ----------
    cols:
        ``(N, K)`` successor state ids, zero-padded past ``nnz[s]``.
    cum:
        ``(N, K)`` inclusive cumulative probabilities; padding slots
        hold ``2.0`` so vectorized ``cum <= u`` counts only real
        entries.  The first ``nnz[s]`` entries of row ``s`` are
        float-identical to ``np.cumsum`` of the CSR row data.
    probs:
        ``(N, K)`` raw probabilities (padding 0), kept for alias-table
        construction and statistical tests.
    nnz:
        ``(N,)`` number of real successors per state.
    """

    def __init__(self, mdp: MDP, policy: np.ndarray) -> None:
        policy = np.asarray(policy, dtype=int)
        if not mdp.valid_policy(policy):
            raise SimulationError("policy selects unavailable actions")
        p_pi = mdp.kernel().policy_matrix(policy)
        n = mdp.n_states
        nnz = np.diff(p_pi.indptr)
        if (nnz == 0).any():
            s = int(np.flatnonzero(nnz == 0)[0])
            raise SimulationError(
                f"state {mdp.state_keys[s]!r} has no outgoing "
                "transitions under the policy")
        k = int(nnz.max())
        mask = np.arange(k)[None, :] < nnz[:, None]
        cols = np.zeros((n, k), dtype=np.intp)
        probs = np.zeros((n, k), dtype=float)
        cols[mask] = p_pi.indices
        probs[mask] = p_pi.data
        cum = np.cumsum(probs, axis=1)
        cum[~mask] = 2.0
        # Batched draws use a variant whose *last real* slot is also
        # capped to the sentinel: counting entries <= u then can never
        # exceed nnz - 1, so the per-step clamp disappears.  (The
        # count stays equal to the serial sampler's clamped
        # searchsorted because cum is nondecreasing: the last real
        # entry is <= u only when every earlier one is.)
        capped = cum.copy()
        capped[np.arange(n), nnz - 1] = 2.0
        self.policy = policy
        self.n_states = n
        self.width = k
        self.nnz = nnz
        self.cols = cols
        self.probs = probs
        self.cum = cum
        self.cum_capped = capped
        self._alias: Optional[tuple] = None
        # Per-state reward of each channel under the policy (what the
        # visit counts are dotted with).
        states = np.arange(n)
        self.channel_rewards: Dict[str, np.ndarray] = {
            name: mdp.rewards[name][policy, states]
            for name in mdp.channels}

    # -- alias tables (built on first use) ----------------------------

    def alias_tables(self):
        """Walker/Vose alias tables: ``(accept_prob, accept_col,
        alias_col)``, each ``(N, K)``.

        A draw takes one uniform: ``x = u * K`` selects slot
        ``j = floor(x)`` and reuses the fractional part ``x - j``
        (independent of ``j`` and itself uniform) as the
        accept/redirect coin.
        """
        if self._alias is None:
            n, k = self.probs.shape
            accept = np.ones((n, k), dtype=float)
            alias_slot = np.tile(np.arange(k, dtype=np.intp), (n, 1))
            scaled = self.probs * k
            for s in range(n):
                # Classic two-stack construction; zero-probability
                # padding slots enter `small` and always redirect.
                row = scaled[s].copy()
                small: List[int] = [i for i in range(k) if row[i] < 1.0]
                large: List[int] = [i for i in range(k) if row[i] >= 1.0]
                while small and large:
                    lo = small.pop()
                    hi = large.pop()
                    accept[s, lo] = row[lo]
                    alias_slot[s, lo] = hi
                    row[hi] -= 1.0 - row[lo]
                    (small if row[hi] < 1.0 else large).append(hi)
                for i in large + small:
                    accept[s, i] = 1.0
            rows = np.arange(n)[:, None]
            self._alias = (accept, self.cols.copy(),
                           self.cols[rows, alias_slot])
        return self._alias

    # -- worker shipping ----------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Everything needed to reconstruct these tables without the
        MDP, as plain arrays.

        Building tables is cheap; building *alias* tables is the O(N*K)
        Python loop above.  A parent process that will fan a rollout
        out to worker processes builds once, ships this dict through
        the task payload, and every worker rehydrates via
        :meth:`from_state` -- skipping both the model rebuild and the
        alias construction.  Alias tables are included only when
        already built (call :meth:`alias_tables` first to force them).
        """
        state = {
            "policy": self.policy,
            "n_states": self.n_states,
            "width": self.width,
            "nnz": self.nnz,
            "cols": self.cols,
            "probs": self.probs,
            "cum": self.cum,
            "cum_capped": self.cum_capped,
            "alias": self._alias,
            "channel_rewards": dict(self.channel_rewards),
        }
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "PolicyTables":
        """Rehydrate tables shipped by :meth:`state_dict` (bypasses
        ``__init__`` -- no MDP, no validation, no rebuild)."""
        tables = cls.__new__(cls)
        tables.policy = state["policy"]
        tables.n_states = state["n_states"]
        tables.width = state["width"]
        tables.nnz = state["nnz"]
        tables.cols = state["cols"]
        tables.probs = state["probs"]
        tables.cum = state["cum"]
        tables.cum_capped = state["cum_capped"]
        tables._alias = state["alias"]
        tables.channel_rewards = dict(state["channel_rewards"])
        return tables


def build_policy_tables(mdp: MDP, policy: np.ndarray) -> PolicyTables:
    """Build (or reuse via caller-side caching) the sampling tables of
    ``policy`` on ``mdp``."""
    return PolicyTables(mdp, policy)


def advance_states(tables: PolicyTables, states: np.ndarray,
                   uniforms: np.ndarray, method: str = "cdf"
                   ) -> np.ndarray:
    """Advance a vector of states by one transition each.

    ``uniforms`` supplies one draw per trajectory.  ``"cdf"``
    reproduces the serial sampler exactly (count of cumulative
    probabilities ``<= u``, clamped to the last real successor);
    ``"alias"`` does an O(1) alias-table draw per trajectory.
    """
    if method == "cdf":
        j = (tables.cum_capped[states] <= uniforms[:, None]).sum(axis=1)
        return tables.cols[states, j]
    if method == "alias":
        accept, accept_col, alias_col = tables.alias_tables()
        x = uniforms * tables.width
        j = x.astype(np.intp)
        frac = x - j
        take = frac < accept[states, j]
        return np.where(take, accept_col[states, j], alias_col[states, j])
    raise SimulationError(
        f"unknown sampling method {method!r}; expected one of {METHODS}")


@dataclass
class RolloutResult:
    """Accumulated channel totals from a rollout.

    Attributes
    ----------
    steps:
        Number of transitions sampled.
    totals:
        Channel name -> accumulated reward.
    visits:
        Pre-transition state occupancy counts: ``visits[s]`` is the
        number of steps that *started* in ``s`` (the start state is
        counted at step 0; the final post-transition state is not).
        This is the occupancy the reward dot-product needs, since
        rewards accrue per (state, action) pair at departure.
    """

    steps: int
    totals: Dict[str, float]
    visits: np.ndarray = field(repr=False)

    def rate(self, channel: str) -> float:
        """Average per-step rate of a channel."""
        return self.totals[channel] / self.steps

    def ratio(self, num: str, den: str) -> float:
        """Ratio of two channel totals."""
        if self.totals[den] == 0:
            raise SimulationError(f"channel {den!r} accumulated zero")
        return self.totals[num] / self.totals[den]


@dataclass
class BatchRolloutResult:
    """Accumulated per-trajectory channel totals from a batched
    rollout.

    Attributes
    ----------
    steps:
        Transitions sampled *per trajectory*.
    n_traj:
        Number of independent trajectories.
    totals:
        Channel name -> ``(n_traj,)`` accumulated reward per
        trajectory.
    visits:
        ``(n_traj, N)`` pre-transition occupancy counts (same
        semantics as :attr:`RolloutResult.visits`, per trajectory).
    """

    steps: int
    n_traj: int
    totals: Dict[str, np.ndarray]
    visits: np.ndarray = field(repr=False)

    @property
    def total_steps(self) -> int:
        """Total transitions sampled across all trajectories."""
        return self.steps * self.n_traj

    def rates(self, channel: str) -> np.ndarray:
        """Per-trajectory per-step rates of a channel."""
        return self.totals[channel] / self.steps

    def rate(self, channel: str) -> float:
        """Pooled per-step rate of a channel over all trajectories."""
        return float(self.totals[channel].sum()) / self.total_steps

    def trajectory(self, b: int) -> RolloutResult:
        """The ``b``-th trajectory repackaged as a serial result."""
        totals = {name: float(vals[b]) for name, vals in
                  self.totals.items()}
        return RolloutResult(steps=self.steps, totals=totals,
                             visits=self.visits[b])


def _spawn_rngs(n_traj: int, seed) -> List[np.random.Generator]:
    """One independent child generator per trajectory."""
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n_traj)]


def _channel_total(visits: np.ndarray, r_pi: np.ndarray) -> float:
    """Channel total of one trajectory: visit counts dotted with the
    per-state policy rewards.  Serial and batched results both route
    through this exact reduction (a float64 :func:`~repro.mdp.kernels.dot`,
    which avoids BLAS; the cast is exact for any realistic step
    count), which is what keeps them bit-identical given identical
    visit counts."""
    return dot(visits.astype(np.float64), r_pi)


def rollout(mdp: MDP, policy: np.ndarray, steps: int,
            rng: Optional[np.random.Generator] = None,
            start: Optional[int] = None,
            tables: Optional[PolicyTables] = None) -> RolloutResult:
    """Sample ``steps`` transitions following ``policy`` (serial
    reference sampler).

    Rewards are accrued as the *expected* per-(state, action) channel
    rewards (the randomness sampled is the state trajectory), which is
    unbiased for long-run rates and lowers variance.  Rows of a
    validated MDP already sum to one, so the sampling tables use the
    CSR probabilities as-is (no per-row renormalization).
    """
    if rng is None:
        rng = np.random.default_rng()
    if steps <= 0:
        raise SimulationError(f"steps must be positive, got {steps!r}")
    if tables is None:
        tables = PolicyTables(mdp, policy)
    state = mdp.start if start is None else int(start)

    # Unpack the padded tables into per-state (cols, cum) pairs once;
    # the per-step loop then only touches small 1-D arrays.
    rows = [(tables.cols[s, :tables.nnz[s]],
             tables.cum[s, :tables.nnz[s]])
            for s in range(tables.n_states)]

    visits = np.zeros(mdp.n_states, dtype=np.int64)
    uniforms = rng.random(steps)
    started = time.monotonic()
    with span("sim/rollout"):
        for i in range(steps):
            visits[state] += 1
            cols, cum = rows[state]
            if len(cols) == 1:
                state = int(cols[0])
            else:
                j = int(np.searchsorted(cum, uniforms[i], side="right"))
                state = int(cols[min(j, len(cols) - 1)])
    _note_steps(steps, time.monotonic() - started)
    totals = {name: _channel_total(visits, tables.channel_rewards[name])
              for name in mdp.channels}
    return RolloutResult(steps=steps, totals=totals, visits=visits)


def _note_steps(total_steps: int, elapsed: float) -> None:
    """Record sampler throughput telemetry (no-op when tracing is
    disabled; called once per rollout, never per step)."""
    counter_add("sim/rollout_steps", total_steps)
    if elapsed > 0:
        gauge_set("sim/steps_per_s", total_steps / elapsed)


def _advance_cdf(tables: PolicyTables, states: np.ndarray,
                 uniforms: np.ndarray, history: np.ndarray,
                 m: int) -> np.ndarray:
    """``"cdf"`` chunk advance: flat ``np.take`` gathers into
    preallocated buffers (per-step Python overhead bounds throughput,
    so the loop avoids every avoidable allocation)."""
    n_traj = states.shape[0]
    k = tables.width
    cum = tables.cum_capped
    cols_flat = tables.cols.reshape(-1)
    rows = np.empty((n_traj, k), dtype=float)
    below = np.empty((n_traj, k), dtype=bool)
    j = np.empty(n_traj, dtype=np.intp)
    idx = np.empty(n_traj, dtype=np.intp)
    for i in range(m):
        history[i] = states
        np.take(cum, states, axis=0, out=rows)
        np.less_equal(rows, uniforms[i].reshape(n_traj, 1), out=below)
        below.sum(axis=1, dtype=np.intp, out=j)
        np.multiply(states, k, out=idx)
        np.add(idx, j, out=idx)
        np.take(cols_flat, idx, out=states)
    return states


def _advance_alias(tables: PolicyTables, states: np.ndarray,
                   uniforms: np.ndarray, history: np.ndarray,
                   m: int) -> np.ndarray:
    """``"alias"`` chunk advance: one uniform per step, its integer
    part picks the slot and its fractional part is the accept coin."""
    accept, accept_col, alias_col = tables.alias_tables()
    for i in range(m):
        history[i] = states
        x = uniforms[i] * tables.width
        j = x.astype(np.intp)
        frac = x - j
        take = frac < accept[states, j]
        states = np.where(take, accept_col[states, j],
                          alias_col[states, j])
    return np.asarray(states, dtype=np.intp)


def _advance_chunk(tables: PolicyTables, states: np.ndarray,
                   uniforms: np.ndarray, history: np.ndarray,
                   m: int, method: str) -> np.ndarray:
    """Advance all trajectories ``m`` steps, recording pre-transition
    states; returns the (possibly replaced) state buffer.

    Chunking affects speed only, never the trajectories: both samplers
    draw the same states as repeated :func:`advance_states` calls
    given the same uniforms.
    """
    if method == "cdf":
        return _advance_cdf(tables, states, uniforms, history, m)
    if method == "alias":
        return _advance_alias(tables, states, uniforms, history, m)
    raise SimulationError(
        f"unknown sampling method {method!r}; expected one of {METHODS}")


def _sample_visits(tables: PolicyTables, steps: int,
                   rngs: Sequence[np.random.Generator], first: int,
                   chunk: int, method: str, pooled: bool) -> np.ndarray:
    """Run the chunked batch sampler and return visit counts:
    ``(n_traj, N)`` per trajectory, or ``(N,)`` summed over
    trajectories when ``pooled`` (O(N) memory however long the run).
    """
    n = tables.n_states
    n_traj = len(rngs)
    states = np.full(n_traj, first, dtype=np.intp)
    size = n if pooled else n_traj * n
    visits_flat = np.zeros(size, dtype=np.int64)
    offsets = np.arange(n_traj, dtype=np.intp) * n

    done = 0
    uniforms = np.empty((chunk, n_traj), dtype=float)
    history = np.empty((chunk, n_traj), dtype=np.intp)
    while done < steps:
        m = min(chunk, steps - done)
        for b, gen in enumerate(rngs):
            uniforms[:m, b] = gen.random(m)
        states = _advance_chunk(tables, states, uniforms, history, m,
                                method)
        if pooled:
            flat = history[:m].reshape(-1)
        else:
            flat = (history[:m] + offsets[None, :]).reshape(-1)
        if 50 * m * n_traj >= size:
            # Dense chunk: one bincount over the whole table.
            visits_flat += np.bincount(flat, minlength=size)
        else:
            # Sparse chunk: scattering the samples one by one beats
            # allocating and summing a histogram of the full table.
            np.add.at(visits_flat, flat, 1)
        done += m
    return visits_flat if pooled else visits_flat.reshape(n_traj, n)


def _batch_args(mdp: MDP, policy: np.ndarray, steps: int, n_traj: int,
                seed, rngs, start, chunk: int, method: str,
                tables: Optional[PolicyTables]):
    """Shared argument validation of the batched entry points."""
    if steps <= 0:
        raise SimulationError(f"steps must be positive, got {steps!r}")
    if chunk <= 0:
        raise SimulationError(f"chunk must be positive, got {chunk!r}")
    if method not in METHODS:
        raise SimulationError(
            f"unknown sampling method {method!r}; expected one of "
            f"{METHODS}")
    if rngs is not None:
        n_traj = len(rngs)
    if n_traj <= 0:
        raise SimulationError(f"n_traj must be positive, got {n_traj!r}")
    if rngs is None:
        rngs = _spawn_rngs(n_traj, seed)
    if tables is None:
        tables = PolicyTables(mdp, policy)
    first = mdp.start if start is None else int(start)
    return rngs, tables, first


def rollout_batch(mdp: MDP, policy: np.ndarray, steps: int,
                  n_traj: int = 32, seed=0,
                  rngs: Optional[Sequence[np.random.Generator]] = None,
                  start: Optional[int] = None,
                  chunk: int = DEFAULT_CHUNK, method: str = "cdf",
                  tables: Optional[PolicyTables] = None
                  ) -> BatchRolloutResult:
    """Sample ``n_traj`` independent ``steps``-long trajectories
    simultaneously, keeping per-trajectory channel totals.

    Every trajectory owns a generator (``rngs``, or children spawned
    from ``seed``) and consumes one uniform per step from it -- the
    same stream a serial :func:`rollout` with that generator would
    consume, so with ``method="cdf"`` trajectory ``b`` is
    bit-identical to ``rollout(..., rng=rngs[b])``.  Uniform draws,
    transitions and visit-count scatters all happen in chunks of
    ``chunk`` steps with vectorized numpy ops; chunk size affects
    speed only, never the sampled states.

    Memory is O(``n_traj * n_states``); for throughput runs that only
    need pooled rates, :func:`rollout_pooled` drops that to
    O(``n_states``).
    """
    rngs, tables, first = _batch_args(mdp, policy, steps, n_traj, seed,
                                      rngs, start, chunk, method, tables)
    started = time.monotonic()
    with span("sim/rollout-batch"):
        visits = _sample_visits(tables, steps, rngs, first, chunk,
                                method, pooled=False)
    _note_steps(steps * len(rngs), time.monotonic() - started)
    n_traj = len(rngs)
    # One cast for the whole matrix; each row dot is then the same
    # reduction `_channel_total` makes for the serial sampler.
    visits_f = visits.astype(np.float64)
    totals = {name: np.array([dot(visits_f[b], r_pi)
                              for b in range(n_traj)])
              for name, r_pi in tables.channel_rewards.items()}
    return BatchRolloutResult(steps=steps, n_traj=n_traj, totals=totals,
                              visits=visits)


def rollout_pooled(mdp: MDP, policy: np.ndarray, steps: int,
                   n_traj: int = 32, seed=0,
                   rngs: Optional[Sequence[np.random.Generator]] = None,
                   start: Optional[int] = None,
                   chunk: int = DEFAULT_CHUNK, method: str = "cdf",
                   tables: Optional[PolicyTables] = None
                   ) -> RolloutResult:
    """Like :func:`rollout_batch` but pooling all trajectories into
    one :class:`RolloutResult` (``steps * n_traj`` total transitions).

    Trajectories are sampled identically to :func:`rollout_batch`
    (same seeds => same visit counts); only per-trajectory totals are
    dropped, so memory stays O(``n_states``) and very large batches
    (thousands of trajectories) become practical for pure-throughput
    work.
    """
    rngs, tables, first = _batch_args(mdp, policy, steps, n_traj, seed,
                                      rngs, start, chunk, method, tables)
    started = time.monotonic()
    with span("sim/rollout-pooled"):
        visits = _sample_visits(tables, steps, rngs, first, chunk,
                                method, pooled=True)
    _note_steps(steps * len(rngs), time.monotonic() - started)
    totals = {name: _channel_total(visits, r_pi)
              for name, r_pi in tables.channel_rewards.items()}
    return RolloutResult(steps=steps * len(rngs), totals=totals,
                         visits=visits)
