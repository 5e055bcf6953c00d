"""Tests for the pluggable compute backends.

The load-bearing property is *bit-identity*: every backend must
produce byte-for-byte the arrays the numpy default produces, on every
instance class the qa generators cover.  The differential tests below
run the uncompiled ``reference`` twin of the numba kernels (and the
jitted ``numba`` backend itself when numba is installed), so the
compiled code path is proven correct on machines without numba.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ReproError, SolverError
from repro.mdp import backends
from repro.mdp._numba_backend import numba_available
from repro.mdp.average_reward import relative_value_iteration
from repro.mdp.policy_iteration import policy_iteration
from repro.mdp.simulate import PolicyTables, rollout, rollout_batch
from repro.mdp.value_iteration import value_iteration
from repro.qa.generators import INSTANCE_CLASSES, make_instance
from repro.runtime.telemetry import Tracer, use_tracer

#: Backends that must be bit-identical to numpy on this machine.
DIFF_BACKENDS = ["reference"] + (["numba"] if numba_available() else [])


@pytest.fixture(autouse=True)
def _clean_backend():
    backends.reset_backend()
    yield
    backends.reset_backend()


def _instance(cls, seed=3):
    inst = make_instance(cls, seed)
    reward = inst.mdp.combined_reward({"num": 1.0, "den": 0.25})
    return inst.mdp, reward


# -- selection ---------------------------------------------------------


def test_numpy_is_the_default():
    assert backends.current_backend_name() == "numpy"
    assert not backends.active().compiled


def test_set_backend_returns_the_active_backend():
    backend = backends.set_backend("reference")
    assert backend is backends.active()
    assert backends.current_backend_name() == "reference"


def test_unknown_backend_raises():
    with pytest.raises(ReproError, match="unknown backend"):
        backends.set_backend("cuda")


def test_env_var_resolution(monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, "reference")
    backends.reset_backend()
    assert backends.current_backend_name() == "reference"


def test_explicit_selection_beats_env(monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, "reference")
    backends.reset_backend()
    backends.set_backend("numpy")
    assert backends.current_backend_name() == "numpy"


def test_unknown_env_value_degrades_with_warning(monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, "gpu")
    backends.reset_backend()
    with pytest.warns(backends.BackendWarning, match="unknown"):
        assert backends.current_backend_name() == "numpy"


def test_available_backends_report():
    report = backends.available_backends()
    assert report["numpy"] is True
    assert report["reference"] is True
    assert isinstance(report["numba"], bool)


def test_use_backend_restores_previous_selection():
    backends.set_backend("numpy")
    with backends.use_backend("reference"):
        assert backends.current_backend_name() == "reference"
    assert backends.current_backend_name() == "numpy"


@pytest.mark.skipif(numba_available(), reason="requires numba absent")
def test_numba_fallback_warns_once_and_degrades():
    with pytest.warns(backends.BackendWarning, match="falling back"):
        backend = backends.set_backend("numba")
    assert backend.name == "numpy"
    # Re-requesting the fallen-back name is a silent no-op (workers
    # re-select per task; they must not re-warn per cell).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert backends.set_backend("numba").name == "numpy"


@pytest.mark.skipif(numba_available(), reason="requires numba absent")
def test_numba_fallback_counts():
    with use_tracer(Tracer()) as tracer:
        with pytest.warns(backends.BackendWarning):
            backends.set_backend("numba")
    assert tracer.counters["backend/fallback"] == 1
    assert tracer.counters["backend/fallback/numba"] == 1


# -- bit-identity of the Bellman kernels -------------------------------


@pytest.mark.parametrize("other", DIFF_BACKENDS)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_q_backup_bit_identical(cls, other):
    mdp, reward = _instance(cls)
    values = np.random.default_rng(0).normal(size=mdp.n_states)
    kernel = mdp.kernel()
    for discount in (1.0, 0.93):
        with backends.use_backend("numpy"):
            q0 = kernel.q_values(reward, values, discount=discount)
        with backends.use_backend(other):
            q1 = kernel.q_values(reward, values, discount=discount)
        assert np.array_equal(q0, q1)
        assert q1.dtype == q0.dtype


@pytest.mark.parametrize("other", DIFF_BACKENDS)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_fused_backups_bit_identical(cls, other):
    mdp, reward = _instance(cls)
    rng = np.random.default_rng(1)
    values = rng.normal(size=mdp.n_states)
    states = rng.choice(mdp.n_states, size=max(1, mdp.n_states // 2),
                        replace=False)
    kernel = mdp.kernel()
    with backends.use_backend("numpy"):
        b0, g0 = backends.active().q_backup_max(kernel, reward, values)
        q0, qb0, qg0 = backends.active().q_backup_greedy(
            kernel, reward, values)
        s0, sg0 = backends.active().q_backup_states(
            kernel, reward, values, states)
    with backends.use_backend(other):
        b1, g1 = backends.active().q_backup_max(kernel, reward, values)
        q1, qb1, qg1 = backends.active().q_backup_greedy(
            kernel, reward, values)
        s1, sg1 = backends.active().q_backup_states(
            kernel, reward, values, states)
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


@pytest.mark.parametrize("other", DIFF_BACKENDS)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_policy_matrix_bit_identical(cls, other):
    mdp, reward = _instance(cls)
    solution = policy_iteration(mdp, reward)
    kernel = mdp.kernel()
    with backends.use_backend("numpy"):
        p0 = kernel.policy_matrix(solution.policy)
    with backends.use_backend(other):
        p1 = kernel.policy_matrix(solution.policy)
    assert p0.shape == p1.shape
    assert np.array_equal(p0.indptr, p1.indptr)
    assert np.array_equal(p0.indices, p1.indices)
    assert np.array_equal(p0.data, p1.data)


@pytest.mark.parametrize("other", DIFF_BACKENDS)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_solvers_bit_identical_across_backends(cls, other):
    mdp, reward = _instance(cls)
    with backends.use_backend("numpy"):
        pi0 = policy_iteration(mdp, reward)
        vi0 = value_iteration(mdp, reward, discount=0.9)
        rvi0 = relative_value_iteration(mdp, reward, epsilon=1e-6)
    mdp.eval_cache().clear()
    with backends.use_backend(other):
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
@pytest.mark.parametrize("other", DIFF_BACKENDS)
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_rollouts_bit_identical(cls, other, method):
    mdp, reward = _instance(cls, seed=5)
    policy = policy_iteration(mdp, reward).policy
    with backends.use_backend("numpy"):
        r0 = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=11,
                           method=method, chunk=64)
    with backends.use_backend(other):
        r1 = rollout_batch(mdp, policy, steps=500, n_traj=4, seed=11,
                           method=method, chunk=64)
    assert np.array_equal(r0.visits, r1.visits)
    for name in r0.totals:
        assert np.array_equal(r0.totals[name], r1.totals[name])


@pytest.mark.parametrize("other", DIFF_BACKENDS)
def test_batched_cdf_still_matches_serial(other):
    """The per-trajectory serial-equality contract survives backend
    dispatch: batched trajectory b == serial rollout with rngs[b]."""
    mdp, reward = _instance("unichain", seed=2)
    policy = policy_iteration(mdp, reward).policy
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(7).spawn(3)]
    with backends.use_backend(other):
        batch = rollout_batch(mdp, policy, steps=400, rngs=rngs,
                              chunk=37)
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(7).spawn(3)]
    serial = [rollout(mdp, policy, 400, rng=rng) for rng in rngs]
    for b, one in enumerate(serial):
        assert np.array_equal(batch.visits[b], one.visits)
        for name, total in one.totals.items():
            assert batch.totals[name][b] == total


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
    assert tracer.counters["backend/numpy/q_backups"] == \
        solution.iterations
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
