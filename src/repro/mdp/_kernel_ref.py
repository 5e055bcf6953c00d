"""Loop oracle for the numpy kernels.

Plain Python loops over raw CSR arrays, one scalar operation at a time,
restating the vectorized Bellman backup of
:class:`repro.mdp.kernels.BellmanKernel` and the rollout samplers of
:mod:`repro.mdp.simulate`.  Nothing in the library calls them: the
differential tests substitute them for the numpy kernels and require
byte-for-byte equal results on every qa instance class.

Equality holds by construction, not luck: each loop performs the same
floating-point operations in the same order as its numpy twin.

- ``q_values`` / ``q_backup_max`` / ``q_backup_greedy`` accumulate each
  CSR row dot-product left to right -- exactly the order scipy's
  ``csr_matvec`` uses -- then apply ``discount`` and add the reward in
  the same sequence as ``q *= discount; q += reward``.
- ``argmax`` resolves ties to the first maximizer, like
  ``np.argmax(axis=0)``.  Values are assumed NaN-free (the solvers
  mask unavailable pairs to ``-inf``, never NaN).
- ``advance_cdf`` counts cumulative entries ``<= u``; because the
  capped cumulative rows are nondecreasing it may stop at the first
  entry ``> u`` without changing the count.
- ``advance_alias`` reproduces the vectorized draw scalar for scalar:
  ``x = u * K``, slot ``floor(x)``, accept coin ``x - floor(x)``.
"""

from __future__ import annotations

import numpy as np


def q_values(indptr, indices, data, reward, values, discount,
             available):
    """The ``(A, N)`` action-value array of one Bellman backup.

    ``q[a, s] = reward[a, s] + discount * P_a[s] . values`` with
    unavailable pairs masked to ``-inf``; row ``a * N + s`` of the CSR
    stack is the transition row of ``(s, a)``.
    """
    n_actions, n_states = reward.shape
    q = np.empty((n_actions, n_states))
    for a in range(n_actions):
        base = a * n_states
        for s in range(n_states):
            if not available[a, s]:
                q[a, s] = -np.inf
                continue
            acc = 0.0
            for jj in range(indptr[base + s], indptr[base + s + 1]):
                acc += data[jj] * values[indices[jj]]
            if discount != 1.0:
                acc *= discount
            q[a, s] = acc + reward[a, s]
    return q


def q_backup_max(indptr, indices, data, reward, values, discount,
                 available):
    """Fused backup + column max + first-maximizer argmax.

    Returns ``(best, policy)`` equal bit-for-bit to
    ``(q.max(axis=0), q.argmax(axis=0))`` of :func:`q_values`, without
    materializing the ``(A, N)`` intermediate.
    """
    n_actions, n_states = reward.shape
    best = np.empty(n_states)
    policy = np.zeros(n_states, dtype=np.int64)
    for s in range(n_states):
        top = -np.inf
        top_a = 0
        for a in range(n_actions):
            if available[a, s]:
                acc = 0.0
                row = a * n_states + s
                for jj in range(indptr[row], indptr[row + 1]):
                    acc += data[jj] * values[indices[jj]]
                if discount != 1.0:
                    acc *= discount
                v = acc + reward[a, s]
            else:
                v = -np.inf
            if v > top:
                top = v
                top_a = a
        best[s] = top
        policy[s] = top_a
    return best, policy


def q_backup_greedy(indptr, indices, data, reward, values, discount,
                    available):
    """Fused backup returning ``(q, best, policy)`` in one pass.

    The full ``(A, N)`` array is materialized (policy iteration needs
    the incumbent's action values) but max and argmax ride along for
    free instead of costing two extra passes.
    """
    n_actions, n_states = reward.shape
    q = np.empty((n_actions, n_states))
    best = np.empty(n_states)
    policy = np.zeros(n_states, dtype=np.int64)
    for s in range(n_states):
        top = -np.inf
        top_a = 0
        for a in range(n_actions):
            if available[a, s]:
                acc = 0.0
                row = a * n_states + s
                for jj in range(indptr[row], indptr[row + 1]):
                    acc += data[jj] * values[indices[jj]]
                if discount != 1.0:
                    acc *= discount
                v = acc + reward[a, s]
            else:
                v = -np.inf
            q[a, s] = v
            if v > top:
                top = v
                top_a = a
        best[s] = top
        policy[s] = top_a
    return q, best, policy


def q_backup_states(indptr, indices, data, reward, values, states,
                    discount, available):
    """Subset variant of :func:`q_backup_max`: fused backup + max +
    first-maximizer argmax over the given ``states`` only.

    Returns ``(best, policy)`` arrays of length ``len(states)``, equal
    bit-for-bit to ``q_backup_max(...)`` sliced at ``states`` -- same
    left-to-right row accumulation, same discount-then-reward order,
    same tie-break.
    """
    n_actions, n_states = reward.shape
    k = states.shape[0]
    best = np.empty(k)
    policy = np.zeros(k, dtype=np.int64)
    for i in range(k):
        s = states[i]
        top = -np.inf
        top_a = 0
        for a in range(n_actions):
            if available[a, s]:
                acc = 0.0
                row = a * n_states + s
                for jj in range(indptr[row], indptr[row + 1]):
                    acc += data[jj] * values[indices[jj]]
                if discount != 1.0:
                    acc *= discount
                v = acc + reward[a, s]
            else:
                v = -np.inf
            if v > top:
                top = v
                top_a = a
        best[i] = top
        policy[i] = top_a
    return best, policy


def extract_rows(indptr, indices, data, rows):
    """Row-sliced CSR arrays: ``(out_indptr, out_indices, out_data)``
    of ``stack[rows]``, copying each selected row's slice verbatim
    (data values, index order and dtypes all preserved)."""
    n_rows = rows.shape[0]
    out_indptr = np.zeros(n_rows + 1, dtype=indptr.dtype)
    total = 0
    for i in range(n_rows):
        total += indptr[rows[i] + 1] - indptr[rows[i]]
        out_indptr[i + 1] = total
    out_indices = np.empty(total, dtype=indices.dtype)
    out_data = np.empty(total, dtype=data.dtype)
    pos = 0
    for i in range(n_rows):
        for jj in range(indptr[rows[i]], indptr[rows[i] + 1]):
            out_indices[pos] = indices[jj]
            out_data[pos] = data[jj]
            pos += 1
    return out_indptr, out_indices, out_data


def advance_cdf(cum_capped, cols, states, uniforms, history, m):
    """Advance all trajectories ``m`` steps in place (``"cdf"`` draw),
    recording pre-transition states in ``history``.

    The successor slot is the count of capped cumulative entries
    ``<= u`` -- identical to the vectorized
    ``(cum_capped[states] <= u).sum(axis=1)``; the rows are
    nondecreasing, so the scan stops at the first entry ``> u``.
    """
    n_traj = states.shape[0]
    width = cum_capped.shape[1]
    for i in range(m):
        for b in range(n_traj):
            s = states[b]
            history[i, b] = s
            u = uniforms[i, b]
            j = 0
            while j < width and cum_capped[s, j] <= u:
                j += 1
            states[b] = cols[s, j]


def advance_alias(accept, accept_col, alias_col, states, uniforms,
                  history, m):
    """Advance all trajectories ``m`` steps in place (``"alias"``
    draw), recording pre-transition states in ``history``.

    One uniform per step: ``x = u * K`` picks slot ``floor(x)`` and
    reuses the fractional part as the accept/redirect coin -- the same
    scalar expressions as the vectorized
    :func:`repro.mdp.simulate.advance_states`.
    """
    n_traj = states.shape[0]
    width = accept.shape[1]
    for i in range(m):
        for b in range(n_traj):
            s = states[b]
            history[i, b] = s
            x = uniforms[i, b] * width
            j = int(x)
            frac = x - j
            if frac < accept[s, j]:
                states[b] = accept_col[s, j]
            else:
                states[b] = alias_col[s, j]
