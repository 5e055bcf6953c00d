"""Bit-identity of the asynchronous (subset) backup path.

Prioritized and asynchronous schemes back up a *subset* of states per
step through :func:`repro.mdp.kernels.q_backup_states`.  However the
order of the subsets is chosen, the loop oracle of
:mod:`repro.mdp._kernel_ref` (the ``loop_kernels`` fixture) must
reproduce the numpy kernels byte for byte, as must the average-reward
solvers that converge on the same chain.
"""

import numpy as np

from repro.mdp import kernels
from repro.mdp.average_reward import relative_value_iteration

from tests.mdp.helpers import random_unichain_mdp


def _async_sweeps(mdp, reward, n_sweeps=25):
    """Gauss-Seidel style sweeps over rotating state blocks, each one
    a subset backup re-pinned at the start state."""
    values = np.zeros(mdp.n_states)
    blocks = np.array_split(np.arange(mdp.n_states), 3)
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    for sweep in range(n_sweeps):
        for block in blocks[sweep % 3:] + blocks[:sweep % 3]:
            best, greedy = kernels.q_backup_states(mdp, reward, values,
                                                   block)
            values[block] = best
            policy[block] = greedy
            values -= values[mdp.start]
    return values, policy


def test_reference_backend_is_bit_identical(loop_kernels):
    rng = np.random.default_rng(7)
    mdp = random_unichain_mdp(rng, n_states=9, n_actions=2)
    reward = mdp.combined_reward({"r": 1.0, "s": 0.25})
    v_np, pol_np = _async_sweeps(mdp, reward)
    sol_np = relative_value_iteration(mdp, reward, epsilon=1e-9)
    mdp.eval_cache().clear()
    with loop_kernels():
        v_ref, pol_ref = _async_sweeps(mdp, reward)
        sol_ref = relative_value_iteration(mdp, reward, epsilon=1e-9)
    assert np.array_equal(v_np, v_ref)
    assert np.array_equal(pol_np, pol_ref)
    assert sol_np.gain == sol_ref.gain
    assert sol_np.iterations == sol_ref.iterations
    assert np.array_equal(sol_np.policy, sol_ref.policy)
    assert np.array_equal(sol_np.bias, sol_ref.bias)
