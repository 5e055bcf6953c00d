"""Stationary distributions and exact per-channel policy evaluation.

Once a solver has produced an optimal policy, the long-run rate of any
reward channel under that policy equals ``pi . r_pi`` where ``pi`` is
the stationary distribution of the induced Markov chain.  This is how
the library reports, e.g., the orphan rate of a revenue-optimal policy,
and how ratio utilities are evaluated exactly.
"""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sla

from repro.errors import SolverError
from repro.mdp.model import MDP

#: Acceptance threshold on the verified residual
#: ``max |pi (P - I)|`` of a normalized stationary solution.  A
#: singular or near-singular system can pass ``isfinite`` with garbage
#: values; it cannot pass the residual.
STATIONARY_RESIDUAL_TOL = 1e-8


def _check_stationary_residual(pi: np.ndarray, p: sparse.csr_matrix,
                               context: str) -> np.ndarray:
    """Clip, normalize and verify a candidate stationary vector.

    Returns the normalized distribution; raises
    :class:`~repro.errors.SolverError` with diagnostics when the
    residual ``max |pi (P - I)|`` of the *normalized* vector exceeds
    :data:`STATIONARY_RESIDUAL_TOL` (the solution solved some system,
    but not the stationary one -- the singular/reducible failure mode).
    """
    if not np.all(np.isfinite(pi)):
        raise SolverError(
            f"{context}: stationary solve produced non-finite values")
    # Clip tiny negative round-off and renormalize.
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(
            f"{context}: stationary distribution has zero mass")
    pi = pi / total
    residual = float(np.abs(pi @ p - pi).max())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise SolverError(
            f"{context}: stationary residual max|pi(P-I)| = "
            f"{residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL:.0e} "
            f"(n={p.shape[0]}, mass before normalization={total!r}); "
            "the chain is likely multichain/reducible")
    return pi


def _solve_stationary_unique(p: sparse.csr_matrix) -> np.ndarray:
    """Solve ``pi (P - I) = 0, sum(pi) = 1`` assuming a unique closed
    recurrent class, verifying the result."""
    n = p.shape[0]
    # Build (P^T - I) with its last row replaced by the normalization
    # constraint directly in CSR (a LIL round-trip is ~100x slower on
    # the 30k-state setting-2 models).
    a = (sparse.csr_matrix(p).T - sparse.identity(n, format="csr")).tocsr()
    top = a[:n - 1, :]
    ones_row = sparse.csr_matrix(np.ones((1, n)))
    system = sparse.vstack([top, ones_row], format="csc")
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    with warnings.catch_warnings():
        # scipy reports a singular system as MatrixRankWarning while
        # still returning (often finite) garbage; promote it.
        warnings.simplefilter("error", sla.MatrixRankWarning)
        try:
            pi = sla.spsolve(system, rhs)
        except sla.MatrixRankWarning as exc:
            raise SolverError(
                "stationary system is singular (multichain/reducible "
                f"chain, n={n}): {exc}") from exc
        except SolverError:
            raise
        except Exception as exc:
            raise SolverError(f"stationary solve failed: {exc}") from exc
    return _check_stationary_residual(pi, p, "stationary solve")


def _restrict_to_start_class(p: sparse.csr_matrix,
                             start: int) -> np.ndarray:
    """Stationary distribution of the unique closed recurrent class
    reachable from ``start``, embedded with zero mass elsewhere.

    Raises :class:`~repro.errors.SolverError` when several closed
    classes are reachable (the long-run distribution then depends on
    the sample path, not just the start state).
    """
    n = p.shape[0]
    reachable = np.zeros(n, dtype=bool)
    order = csgraph.breadth_first_order(p, start, directed=True,
                                        return_predecessors=False)
    reachable[order] = True
    idx = np.flatnonzero(reachable)
    sub = p[idx][:, idx]
    n_comp, labels = csgraph.connected_components(sub, directed=True,
                                                  connection="strong")
    # A component is closed iff no edge leaves it.
    leaves = np.zeros(n_comp, dtype=bool)
    coo = sub.tocoo()
    cross = labels[coo.row] != labels[coo.col]
    leaves[np.unique(labels[coo.row[cross]])] = True
    closed = np.flatnonzero(~leaves)
    if len(closed) != 1:
        raise SolverError(
            f"start state {start} reaches {len(closed)} closed "
            "recurrent classes; the stationary distribution is not "
            "determined by the start state (use "
            "repro.mdp.absorbing for path-dependent questions)")
    members = idx[labels == closed[0]]
    sub_closed = p[members][:, members]
    pi_closed = _solve_stationary_unique(sub_closed)
    pi = np.zeros(n)
    pi[members] = pi_closed
    return pi


def stationary_distribution(p: sparse.csr_matrix,
                            start: Optional[int] = None) -> np.ndarray:
    """Return the stationary distribution of a row-stochastic matrix.

    Solves ``pi (P - I) = 0`` with the normalization ``sum(pi) = 1`` by
    replacing one column of the transposed system, then *verifies* the
    residual ``max |pi (P - I)|`` of the normalized solution: a
    singular system (multichain/reducible ``P``) raises
    :class:`~repro.errors.SolverError` instead of returning finite
    garbage.

    Parameters
    ----------
    p:
        Row-stochastic ``(N, N)`` sparse matrix.
    start:
        Optional start state.  For a unichain matrix the distribution
        does not depend on it and the fast global solve is used.  For a
        multichain matrix the global system is singular; with ``start``
        given, the solve is retried restricted to the unique closed
        recurrent class reachable from ``start`` (transient states get
        zero mass).  If several closed classes are reachable -- or
        ``start`` is omitted on a multichain matrix -- a
        :class:`~repro.errors.SolverError` is raised.
    """
    p = sparse.csr_matrix(p)
    try:
        return _solve_stationary_unique(p)
    except SolverError:
        if start is None:
            raise
        return _restrict_to_start_class(p, int(start))


def policy_gains(mdp: MDP, policy: np.ndarray,
                 channels: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """Exactly evaluate the per-step rate of each reward channel under
    ``policy`` via the stationary distribution.

    The stationary distribution is taken with respect to the MDP's
    ``start`` state: the reported rates are those of the recurrent
    class the start state reaches.  Policies whose induced chain makes
    the start state unreachable (multichain policies) raise
    :class:`~repro.errors.SolverError` rather than returning rates of
    an arbitrary class.

    Runs through the MDP's
    :class:`~repro.mdp.kernels.PolicyEvalCache`: the stationary
    distribution is one forward pass over the policy's cached renewal
    levels (or one transposed solve on its LU fallback), and
    per-channel gains are memoized so a ratio solve's repeated queries
    near convergence stop re-solving.
    """
    policy = np.asarray(policy, dtype=int)
    return mdp.eval_cache().channel_gains(policy, channels)
