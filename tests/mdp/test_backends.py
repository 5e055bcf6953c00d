"""Differential tests: the numpy kernels against their loop oracle.

The load-bearing property is *bit-identity*: the plain-loop kernels of
:mod:`repro.mdp._kernel_ref`, substituted for the numpy ones by the
``loop_kernels`` fixture, must produce byte-for-byte the arrays the
numpy kernels produce, on every instance class the qa generators
cover.  The ``reference`` parameter names that oracle.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.mdp import _kernel_ref, kernels, simulate
from repro.mdp.average_reward import relative_value_iteration
from repro.mdp.policy_iteration import policy_iteration
from repro.mdp.simulate import (
    PolicyTables,
    advance_states,
    rollout,
    rollout_batch,
)
from repro.mdp.value_iteration import value_iteration
from repro.qa.generators import INSTANCE_CLASSES, make_instance
from repro.runtime.telemetry import Tracer, use_tracer

#: The oracle each differential test compares numpy against.
ORACLES = ["reference"]


def _instance(cls, seed=3):
    inst = make_instance(cls, seed)
    reward = inst.mdp.combined_reward({"num": 1.0, "den": 0.25})
    return inst.mdp, reward


# -- bit-identity of the Bellman kernels -------------------------------


@pytest.mark.parametrize("other", ORACLES)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_q_backup_bit_identical(cls, other, loop_kernels):
    mdp, reward = _instance(cls)
    values = np.random.default_rng(0).normal(size=mdp.n_states)
    kernel = mdp.kernel()
    for discount in (1.0, 0.93):
        q0 = kernel.q_values(reward, values, discount=discount)
        with loop_kernels():
            q1 = kernel.q_values(reward, values, discount=discount)
        assert np.array_equal(q0, q1)
        assert q1.dtype == q0.dtype


@pytest.mark.parametrize("other", ORACLES)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_fused_backups_bit_identical(cls, other):
    mdp, reward = _instance(cls)
    rng = np.random.default_rng(1)
    values = rng.normal(size=mdp.n_states)
    states = rng.choice(mdp.n_states, size=max(1, mdp.n_states // 2),
                        replace=False)
    b0, g0 = kernels.q_backup_max(mdp, reward, values)
    q0, qb0, qg0 = kernels.q_backup_greedy(mdp, reward, values)
    s0, sg0 = kernels.q_backup_states(mdp, reward, values, states)
    stack = mdp.kernel().stack
    csr = (stack.indptr, stack.indices, stack.data)
    b1, g1 = _kernel_ref.q_backup_max(*csr, reward, values, 1.0,
                                      mdp.available)
    q1, qb1, qg1 = _kernel_ref.q_backup_greedy(*csr, reward, values, 1.0,
                                               mdp.available)
    s1, sg1 = _kernel_ref.q_backup_states(
        *csr, reward, values, np.asarray(states, dtype=np.int64), 1.0,
        mdp.available)
    assert np.array_equal(b0, b1)
    assert np.array_equal(g0, g1)  # argmax tie-break included
    assert np.array_equal(q0, q1)
    assert np.array_equal(qb0, qb1)
    assert np.array_equal(qg0, qg1)
    # The subset backup is the full backup sliced at ``states``.
    assert np.array_equal(s0, s1)
    assert np.array_equal(sg0, sg1)
    assert np.array_equal(s0, b0[states])
    assert np.array_equal(sg0, g0[states])


@pytest.mark.parametrize("other", ORACLES)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_policy_matrix_bit_identical(cls, other, loop_kernels):
    mdp, reward = _instance(cls)
    solution = policy_iteration(mdp, reward)
    kernel = mdp.kernel()
    p0 = kernel.policy_matrix(solution.policy)
    with loop_kernels():
        p1 = kernel.policy_matrix(solution.policy)
    assert p0.shape == p1.shape
    assert np.array_equal(p0.indptr, p1.indptr)
    assert np.array_equal(p0.indices, p1.indices)
    assert np.array_equal(p0.data, p1.data)


@pytest.mark.parametrize("other", ORACLES)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_solvers_bit_identical_across_backends(cls, other, loop_kernels):
    mdp, reward = _instance(cls)
    pi0 = policy_iteration(mdp, reward)
    vi0 = value_iteration(mdp, reward, discount=0.9)
    rvi0 = relative_value_iteration(mdp, reward, epsilon=1e-6)
    mdp.eval_cache().clear()
    with loop_kernels():
        pi1 = policy_iteration(mdp, reward)
        vi1 = value_iteration(mdp, reward, discount=0.9)
        rvi1 = relative_value_iteration(mdp, reward, epsilon=1e-6)
    assert pi0.gain == pi1.gain
    assert np.array_equal(pi0.policy, pi1.policy)
    assert np.array_equal(pi0.bias, pi1.bias)
    assert np.array_equal(vi0.values, vi1.values)
    assert np.array_equal(vi0.policy, vi1.policy)
    assert rvi0.gain == rvi1.gain
    assert np.array_equal(rvi0.policy, rvi1.policy)


# -- bit-identity of the rollout kernels -------------------------------


@pytest.mark.parametrize("method", ("cdf", "alias"))
@pytest.mark.parametrize("other", ORACLES)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_rollouts_bit_identical(cls, other, method, loop_kernels):
    mdp, reward = _instance(cls, seed=5)
    policy = policy_iteration(mdp, reward).policy
    r0 = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=11,
                       method=method, chunk=64)
    with loop_kernels():
        r1 = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=11,
                           method=method, chunk=64)
    assert np.array_equal(r0.visits, r1.visits)
    for name in r0.totals:
        assert np.array_equal(r0.totals[name], r1.totals[name])


@pytest.mark.parametrize("other", ORACLES)
def test_batched_cdf_still_matches_serial(other, loop_kernels):
    """The per-trajectory serial-equality contract holds on the loop
    sampler too: batched trajectory b == serial rollout with
    rngs[b]."""
    mdp, reward = _instance("unichain", seed=2)
    policy = policy_iteration(mdp, reward).policy
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(7).spawn(3)]
    with loop_kernels():
        batch = rollout_batch(mdp, policy, steps=400, rngs=rngs,
                              chunk=37)
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(7).spawn(3)]
    serial = [rollout(mdp, policy, 400, rng=rng) for rng in rngs]
    for b, one in enumerate(serial):
        assert np.array_equal(batch.visits[b], one.visits)
        for name, total in one.totals.items():
            assert batch.totals[name][b] == total


@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_cdf_boundary_draws_bit_identical(cls, loop_kernels):
    """A uniform equal to a cumulative boundary counts that entry
    (``<= u``) in the numpy sampler, its loop oracle and
    :func:`advance_states` alike.  Random draws almost never tie, so
    this walk forces a tie in every state with two or more
    successors."""
    mdp, reward = _instance(cls, seed=5)
    policy = policy_iteration(mdp, reward).policy
    tables = PolicyTables(mdp, policy)
    states = np.arange(mdp.n_states, dtype=np.intp)
    history = np.empty((1, states.size), dtype=np.intp)
    ties = 0
    for _ in range(20):
        first = tables.cum_capped[states, 0]
        uniforms = np.where(first < 1.0, first, 0.5)[None, :]
        ties += int((first < 1.0).sum())
        expected = advance_states(tables, states, uniforms[0])
        numpy_next = simulate._advance_chunk(tables, states.copy(),
                                             uniforms, history, 1, "cdf")
        with loop_kernels():
            loop_next = simulate._advance_chunk(
                tables, states.copy(), uniforms, history, 1, "cdf")
        assert np.array_equal(numpy_next, expected)
        assert np.array_equal(loop_next, expected)
        states = expected
    # Only a deterministic chain (the periodic ring) has nothing to tie.
    assert ties > 0 or tables.width == 1


# -- table shipping ----------------------------------------------------


def test_policy_tables_state_roundtrip():
    mdp, reward = _instance("periodic", seed=1)
    policy = policy_iteration(mdp, reward).policy
    tables = PolicyTables(mdp, policy)
    tables.alias_tables()
    clone = PolicyTables.from_state(tables.state_dict())
    r0 = rollout_batch(mdp, policy, steps=300, n_traj=3, seed=2,
                       tables=tables, method="alias")
    r1 = rollout_batch(mdp, policy, steps=300, n_traj=3, seed=2,
                       tables=clone, method="alias")
    assert np.array_equal(r0.visits, r1.visits)
    # The alias tables travelled prebuilt (identical objects, no
    # rebuild on the clone).
    assert clone._alias is not None
    assert all(np.array_equal(a, b) for a, b in
               zip(tables.alias_tables(), clone.alias_tables()))


# -- counter hoisting --------------------------------------------------


def test_q_backup_counter_is_flushed_once_per_solve():
    """The hoisted counter is value-identical to per-sweep counting:
    one backup per improvement round / sweep."""
    mdp, reward = _instance("unichain")
    with use_tracer(Tracer()) as tracer:
        solution = policy_iteration(mdp, reward)
    assert tracer.counters["kernel/q_backups"] == solution.iterations
    with use_tracer(Tracer()) as tracer:
        rvi = relative_value_iteration(mdp, reward, epsilon=1e-6)
    assert tracer.counters["kernel/q_backups"] == rvi.iterations


def test_q_backup_counter_flushes_on_abort():
    """A non-convergent solve still reports the backups it spent."""
    mdp, reward = _instance("unichain")
    with use_tracer(Tracer()) as tracer:
        with pytest.raises(SolverError):
            value_iteration(mdp, reward, discount=0.999999,
                            epsilon=1e-12, max_iter=3)
    assert tracer.counters["kernel/q_backups"] == 3
