"""Pluggable compute backends for the Bellman/rollout hot loops.

The library's two inner loops -- the stacked-CSR Q-backup behind every
dynamic-programming solver (:mod:`repro.mdp.kernels`) and the batched
trajectory advance behind the Monte-Carlo engines
(:mod:`repro.mdp.simulate`) -- dispatch through a process-global
*backend* selected here:

``numpy``
    The default: the vectorized scipy/numpy implementations that have
    carried every committed baseline.  Always available.
``numba``
    JIT-compiles the loop kernels of :mod:`repro.mdp._kernel_ref` with
    ``numba.njit`` (``fastmath`` off).  Optional: when numba is missing
    or compilation fails, selection *degrades to numpy with a
    warning* -- a sweep never crashes because an accelerator is absent.
``reference``
    The same loop kernels, uncompiled.  Orders of magnitude slower;
    exists so the differential test suite can prove the compiled code
    path bit-identical to numpy on any machine, numba installed or not.

Every backend is **bit-identical** to every other by construction (see
:mod:`repro.mdp._kernel_ref` for the op-ordering argument); switching
backends changes wall time, never results.

Selection order (first match wins):

1. an explicit :func:`set_backend` call (the CLI's ``--backend`` flag,
   or a :class:`repro.runtime.parallel.SolveTask` carrying a backend
   into a worker process);
2. the ``REPRO_BACKEND`` environment variable (how parent processes
   reach spawned workers);
3. the ``numpy`` default.

Telemetry: ``backend/select/<name>`` counts explicit selections,
``backend/fallback`` counts degradations to numpy (with a
``backend/fallback/<reason>`` detail), and the numba backend sets the
``backend/numba/compile_s`` gauge after its one-time JIT compilation.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Optional

import numpy as np
from scipy import sparse

from repro.errors import ReproError
from repro.runtime.telemetry import counter_add, gauge_set

#: Environment variable consulted when no explicit backend is set.
BACKEND_ENV = "REPRO_BACKEND"

#: Names accepted by :func:`set_backend` / ``--backend``.
BACKEND_NAMES = ("numpy", "numba", "reference")


class BackendWarning(UserWarning):
    """Warned when a requested backend degrades to the numpy default
    (numba missing, JIT failure, unknown ``REPRO_BACKEND`` value)."""


class NumpyBackend:
    """The default vectorized scipy/numpy implementations."""

    name = "numpy"
    compiled = False

    # -- Bellman kernels ----------------------------------------------

    def q_backup(self, kernel, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> np.ndarray:
        q = kernel.stack.dot(values).reshape(kernel.n_actions,
                                             kernel.n_states)
        if discount != 1.0:
            q *= discount
        q += reward
        if not kernel._all_available:
            q[~kernel.available] = -np.inf
        return q

    def q_backup_max(self, kernel, reward: np.ndarray,
                     values: np.ndarray, discount: float = 1.0):
        q = self.q_backup(kernel, reward, values, discount)
        return q.max(axis=0), np.asarray(q.argmax(axis=0),
                                         dtype=np.int64)

    def q_backup_greedy(self, kernel, reward: np.ndarray,
                        values: np.ndarray, discount: float = 1.0):
        q = self.q_backup(kernel, reward, values, discount)
        return q, q.max(axis=0), np.asarray(q.argmax(axis=0),
                                            dtype=np.int64)

    def q_backup_states(self, kernel, reward: np.ndarray,
                        values: np.ndarray, states: np.ndarray,
                        discount: float = 1.0):
        """Subset backup over ``states`` only: row-slice the stack at
        every (action, state) pair of the subset, then the same
        dot/discount/add/mask sequence as the full backup --
        bit-identical to slicing its result."""
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
        return q.max(axis=0), np.asarray(q.argmax(axis=0),
                                         dtype=np.int64)

    def policy_matrix(self, kernel, rows: np.ndarray):
        return kernel.stack[rows]

    # -- rollout advances ---------------------------------------------

    def advance_chunk_cdf(self, tables, states: np.ndarray,
                          uniforms: np.ndarray, history: np.ndarray,
                          m: int) -> np.ndarray:
        """Vectorized chunk advance: flat ``np.take`` gathers into
        preallocated buffers (per-step Python overhead bounds
        throughput, so the loop avoids every avoidable allocation)."""
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
            np.less_equal(rows, uniforms[i].reshape(n_traj, 1),
                          out=below)
            below.sum(axis=1, dtype=np.intp, out=j)
            np.multiply(states, k, out=idx)
            np.add(idx, j, out=idx)
            np.take(cols_flat, idx, out=states)
        return states

    def advance_chunk_alias(self, tables, states: np.ndarray,
                            uniforms: np.ndarray, history: np.ndarray,
                            m: int) -> np.ndarray:
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


class LoopBackend:
    """Backend over the loop kernels of :mod:`repro.mdp._kernel_ref`
    -- either jitted (``numba``) or uncompiled (``reference``)."""

    def __init__(self, name: str, kernels: Dict[str, Callable],
                 compiled: bool) -> None:
        self.name = name
        self.compiled = compiled
        self._k = kernels

    def q_backup(self, kernel, reward: np.ndarray, values: np.ndarray,
                 discount: float = 1.0) -> np.ndarray:
        stack = kernel.stack
        return self._k["q_values"](stack.indptr, stack.indices,
                                   stack.data, reward, values,
                                   float(discount), kernel.available)

    def q_backup_max(self, kernel, reward: np.ndarray,
                     values: np.ndarray, discount: float = 1.0):
        stack = kernel.stack
        return self._k["q_backup_max"](stack.indptr, stack.indices,
                                       stack.data, reward, values,
                                       float(discount),
                                       kernel.available)

    def q_backup_greedy(self, kernel, reward: np.ndarray,
                        values: np.ndarray, discount: float = 1.0):
        stack = kernel.stack
        return self._k["q_backup_greedy"](stack.indptr, stack.indices,
                                          stack.data, reward, values,
                                          float(discount),
                                          kernel.available)

    def q_backup_states(self, kernel, reward: np.ndarray,
                        values: np.ndarray, states: np.ndarray,
                        discount: float = 1.0):
        stack = kernel.stack
        return self._k["q_backup_states"](
            stack.indptr, stack.indices, stack.data, reward, values,
            np.asarray(states, dtype=np.int64), float(discount),
            kernel.available)

    def policy_matrix(self, kernel, rows: np.ndarray):
        stack = kernel.stack
        indptr, indices, data = self._k["extract_rows"](
            stack.indptr, stack.indices, stack.data,
            np.asarray(rows, dtype=np.int64))
        return sparse.csr_matrix(
            (data, indices, indptr),
            shape=(len(rows), kernel.n_states))

    def advance_chunk_cdf(self, tables, states: np.ndarray,
                          uniforms: np.ndarray, history: np.ndarray,
                          m: int) -> np.ndarray:
        self._k["advance_cdf"](tables.cum_capped, tables.cols, states,
                               uniforms, history, m)
        return states

    def advance_chunk_alias(self, tables, states: np.ndarray,
                            uniforms: np.ndarray, history: np.ndarray,
                            m: int) -> np.ndarray:
        accept, accept_col, alias_col = tables.alias_tables()
        self._k["advance_alias"](accept, accept_col, alias_col, states,
                                 uniforms, history, m)
        return states


#: The resolved backend, or ``None`` before first use / after
#: :func:`reset_backend`.  Module-global so the hot-path lookup is one
#: load+test, like the telemetry tracer.
_ACTIVE = None

#: The last *requested* name (which may differ from ``_ACTIVE.name``
#: after a fallback); re-requesting it is a no-op so per-task
#: re-selection in worker processes neither re-warns nor re-counts.
_REQUESTED: Optional[str] = None


def _numpy_backend() -> NumpyBackend:
    return NumpyBackend()


def reference_backend() -> LoopBackend:
    """The uncompiled twin of the numba backend (for tests and for
    proving bit-identity without numba)."""
    from repro.mdp import _kernel_ref as ref
    kernels = {name: getattr(ref, name) for name in ref.KERNEL_NAMES}
    return LoopBackend("reference", kernels, compiled=False)


def _numba_backend() -> LoopBackend:
    """Build the jitted backend; raises
    :class:`repro.mdp._numba_backend.BackendUnavailable` when it
    cannot."""
    from repro.mdp import _numba_backend as nb
    kernels = nb.load_kernels()
    gauge_set("backend/numba/compile_s", nb.compile_seconds())
    return LoopBackend("numba", kernels, compiled=True)


def _fallback(requested: str, reason: str):
    warnings.warn(
        f"backend {requested!r} unavailable ({reason}); falling back "
        "to the numpy backend (results are identical, only slower)",
        BackendWarning, stacklevel=3)
    counter_add("backend/fallback")
    counter_add(f"backend/fallback/{requested}")
    return _numpy_backend()


def _build(name: str):
    """Construct the named backend, degrading to numpy on an
    unavailable accelerator (never on an unknown name)."""
    if name == "numpy":
        return _numpy_backend()
    if name == "reference":
        return reference_backend()
    if name == "numba":
        from repro.mdp._numba_backend import BackendUnavailable
        try:
            return _numba_backend()
        except BackendUnavailable as exc:
            return _fallback("numba", str(exc))
    raise ReproError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")


def set_backend(name: str):
    """Select the process-global backend by name and return it.

    ``"numba"`` degrades to numpy with a :class:`BackendWarning` when
    numba is missing or JIT compilation fails; an unknown name raises
    :class:`~repro.errors.ReproError`.  Selecting the already-active
    backend is a cheap no-op.
    """
    global _ACTIVE, _REQUESTED
    if _ACTIVE is not None and name in (_REQUESTED, _ACTIVE.name):
        return _ACTIVE
    backend = _build(name)
    _ACTIVE = backend
    _REQUESTED = name
    counter_add(f"backend/select/{backend.name}")
    return backend


def active():
    """The active backend, resolving ``REPRO_BACKEND`` (then the numpy
    default) on first use.

    Lazy resolution is deliberately silent telemetry-wise: it fires
    once per process lifetime, so counting it would make merged
    worker counters depend on worker count.  Only explicit
    :func:`set_backend` calls count a ``backend/select/*``.
    """
    global _ACTIVE, _REQUESTED
    if _ACTIVE is None:
        name = os.environ.get(BACKEND_ENV, "numpy")
        if name not in BACKEND_NAMES:
            _ACTIVE = _fallback(name, f"unknown {BACKEND_ENV} value")
        else:
            _ACTIVE = _build(name)
        _REQUESTED = name
    return _ACTIVE


def current_backend_name() -> str:
    """Name of the backend the next kernel call will use."""
    return active().name


def reset_backend() -> None:
    """Forget the selection; the next :func:`active` re-resolves from
    the environment.  Intended for tests."""
    global _ACTIVE, _REQUESTED
    _ACTIVE = None
    _REQUESTED = None


def available_backends() -> Dict[str, bool]:
    """Name -> availability (without warnings or fallbacks)."""
    from repro.mdp._numba_backend import numba_available
    return {"numpy": True, "numba": numba_available(),
            "reference": True}


def use_backend(name: str):
    """Context manager: run a block under the named backend, restoring
    the previous selection (including "unresolved") on exit."""
    import contextlib

    @contextlib.contextmanager
    def _cm():
        global _ACTIVE, _REQUESTED
        previous = _ACTIVE, _REQUESTED
        set_backend(name)
        try:
            yield _ACTIVE
        finally:
            _ACTIVE, _REQUESTED = previous
    return _cm()
