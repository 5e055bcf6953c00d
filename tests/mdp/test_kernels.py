"""Tests for the stacked Bellman kernel and the policy-eval cache."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import MDPError
from repro.mdp.builder import MDPBuilder
from repro.mdp.kernels import (
    PolicyEvalCache,
    greedy_policy_from_q,
    q_backup,
)
from tests.mdp.helpers import random_unichain_mdp, two_state_chain

from repro.mdp.model import MDP


def reference_q(mdp: MDP, reward: np.ndarray, values: np.ndarray,
                discount: float = 1.0) -> np.ndarray:
    """Per-action reference backup the stacked kernel must reproduce."""
    q = np.empty((mdp.n_actions, mdp.n_states))
    for a in range(mdp.n_actions):
        q[a] = reward[a] + discount * (mdp.transition[a] @ values)
    q[~mdp.available] = -np.inf
    return q


def partial_availability_mdp() -> MDP:
    """State 1 only offers action ``a0``."""
    b = MDPBuilder(actions=["a0", "a1"], channels=["r"])
    b.add(0, "a0", 1, 1.0, r=1.0)
    b.add(0, "a1", 0, 1.0, r=0.5)
    b.add(1, "a0", 0, 1.0)
    return b.build(start=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("discount", [1.0, 0.9])
def test_q_backup_matches_per_action_reference(seed, discount):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=7, n_actions=3)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    values = rng.normal(size=mdp.n_states)
    got = q_backup(mdp, reward, values, discount=discount)
    np.testing.assert_allclose(
        got, reference_q(mdp, reward, values, discount), atol=1e-14)


def test_q_backup_masks_unavailable_actions():
    mdp = partial_availability_mdp()
    reward = np.ones((2, 2))
    q = q_backup(mdp, reward, np.zeros(2))
    assert q[1, 1] == -np.inf
    assert np.isfinite(q[0]).all()
    np.testing.assert_allclose(q, reference_q(mdp, reward, np.zeros(2)))


def test_greedy_policy_respects_mask():
    mdp = partial_availability_mdp()
    # a1 pays more where available; state 1 must fall back to a0.
    reward = np.array([[0.0, 0.0], [1.0, 1.0]])
    policy = greedy_policy_from_q(q_backup(mdp, reward, np.zeros(2)))
    assert policy.tolist() == [1, 0]


@pytest.mark.parametrize("seed", [3, 4])
def test_policy_matrix_matches_row_selection(seed):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=6, n_actions=3)
    policy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
    p_pi = mdp.kernel().policy_matrix(policy).toarray()
    for s in range(mdp.n_states):
        row = mdp.transition[policy[s]][s].toarray().ravel()
        np.testing.assert_allclose(p_pi[s], row, atol=1e-15)


def test_policy_rows_validates_input():
    mdp = two_state_chain()
    kernel = mdp.kernel()
    with pytest.raises(MDPError):
        kernel.policy_rows(np.zeros(3, dtype=int))
    with pytest.raises(MDPError):
        kernel.policy_rows(np.array([0, 5]))


def test_kernel_is_built_once_and_shared():
    mdp = two_state_chain()
    assert mdp.kernel() is mdp.kernel()
    assert isinstance(mdp.kernel().stack, sparse.csr_matrix)
    assert mdp.kernel().stack.shape == (mdp.n_actions * mdp.n_states,
                                        mdp.n_states)


def dense_gain_bias(mdp: MDP, policy: np.ndarray, reward: np.ndarray):
    """Dense reference solve of the average-reward evaluation system."""
    n = mdp.n_states
    p_pi = np.vstack([mdp.transition[policy[s]][s].toarray().ravel()
                      for s in range(n)])
    r_pi = reward[policy, np.arange(n)]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = np.eye(n) - p_pi
    system[:n, n] = 1.0
    system[n, mdp.start] = 1.0
    solution = np.linalg.solve(system, np.concatenate([r_pi, [0.0]]))
    return solution[n], solution[:n]


@pytest.mark.parametrize("seed", [5, 6])
def test_evaluate_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    mdp = random_unichain_mdp(rng, n_states=6, n_actions=2)
    policy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    gain, bias = mdp.eval_cache().evaluate(policy, reward)
    ref_gain, ref_bias = dense_gain_bias(mdp, policy, reward)
    assert gain == pytest.approx(ref_gain, abs=1e-10)
    np.testing.assert_allclose(bias, ref_bias, atol=1e-9)


def test_eval_cache_hits_and_single_factorization():
    rng = np.random.default_rng(7)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))

    first = cache.evaluate(policy, reward)
    assert cache.stats.factorizations == 1
    assert cache.stats.eval_misses == 1

    second = cache.evaluate(policy, reward)
    assert cache.stats.eval_hits == 1
    assert cache.stats.factorizations == 1
    assert second[0] == first[0]
    np.testing.assert_array_equal(second[1], first[1])

    # A different transformed reward reuses the same factorization.
    cache.evaluate(policy, reward + 1.0)
    assert cache.stats.factorizations == 1
    assert cache.stats.eval_misses == 2


def test_stationary_cached_per_policy():
    rng = np.random.default_rng(8)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    pi = cache.stationary(policy)
    assert cache.stats.stationary_misses == 1
    assert pi.sum() == pytest.approx(1.0)
    again = cache.stationary(policy)
    assert cache.stats.stationary_hits == 1
    assert again is pi


def test_channel_gains_match_stationary_rates():
    rng = np.random.default_rng(9)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.ones(mdp.n_states, dtype=int)
    gains = cache.channel_gains(policy, ["r", "s"])
    pi = cache.stationary(policy)
    states = np.arange(mdp.n_states)
    for name in ("r", "s"):
        expected = pi.dot(mdp.rewards[name][policy, states])
        assert gains[name] == pytest.approx(expected, abs=1e-12)
    misses = cache.stats.gain_misses
    cache.channel_gains(policy, ["r", "s"])
    assert cache.stats.gain_misses == misses
    assert cache.stats.gain_hits >= 2


def test_invalidate_rewards_keeps_factorizations():
    rng = np.random.default_rng(10)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    cache.evaluate(policy, reward)
    cache.channel_gains(policy)
    factorizations = cache.stats.factorizations

    cache.invalidate_rewards()
    cache.evaluate(policy, reward)
    cache.channel_gains(policy)
    # Reward memos were dropped (fresh misses) but the LU survived.
    assert cache.stats.eval_misses == 2
    assert cache.stats.factorizations == factorizations


def test_policy_cache_lru_eviction():
    rng = np.random.default_rng(11)
    mdp = random_unichain_mdp(rng)
    cache = PolicyEvalCache(mdp, max_policies=2)
    for a in range(3):
        policy = np.full(mdp.n_states, a % mdp.n_actions, dtype=int)
        policy[0] = a % mdp.n_actions
        policy[-1] = (a + 1) % mdp.n_actions
        policy[a % mdp.n_states] = 0
        cache.stationary(policy)
    assert len(cache) <= 2


def test_structure_view_shares_factorizations():
    rng = np.random.default_rng(12)
    mdp = random_unichain_mdp(rng)
    policy = np.zeros(mdp.n_states, dtype=int)
    reward = rng.normal(size=(mdp.n_actions, mdp.n_states))
    mdp.eval_cache().evaluate(policy, reward)
    assert mdp.eval_cache().stats.factorizations == 1

    view = mdp.eval_cache().structure_view(mdp)
    gain, _bias = view.evaluate(policy, reward)
    # Same structure: no second factorization; fresh reward memos.
    assert view.stats.factorizations == 0
    assert view.stats.eval_misses == 1
    ref_gain, _ = dense_gain_bias(mdp, policy, reward)
    assert gain == pytest.approx(ref_gain, abs=1e-10)


# -- renewal evaluation on certified models ---------------------------

def lu_reference(mdp: MDP, policy: np.ndarray, reward: np.ndarray):
    """Gain, bias and stationary distribution from a sparse LU of the
    average-reward evaluation system (the fallback path's method)."""
    from scipy.sparse import linalg as sla
    n = mdp.n_states
    p_pi = mdp.policy_matrix(policy)
    top = sparse.hstack([sparse.identity(n) - p_pi, np.ones((n, 1))])
    pin = sparse.csr_matrix(([1.0], ([0], [mdp.start])), shape=(1, n + 1))
    lu = sla.splu(sparse.vstack([top, pin], format="csc"))
    r_pi = reward[policy, np.arange(n)]
    solution = lu.solve(np.concatenate([r_pi, [0.0]]))
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    pi = lu.solve(unit, trans="T")[:n]
    return solution[n], solution[:n], pi / pi.sum()


def absorbing_mdp() -> MDP:
    """Action ``stay`` makes state 1 absorbing; ``back`` returns."""
    b = MDPBuilder(actions=["stay", "back"], channels=["r"])
    b.add(0, "stay", 1, 1.0, r=1.0)
    b.add(0, "back", 1, 1.0, r=1.0)
    b.add(1, "stay", 1, 1.0, r=2.0)
    b.add(1, "back", 0, 1.0)
    return b.build(start=0)


def test_absorbing_non_start_state_raises_solver_error():
    from repro.errors import SolverError
    mdp = absorbing_mdp()
    cache = mdp.eval_cache()
    assert cache.certificate() is not None
    reward = mdp.combined_reward({"r": 1.0})
    with pytest.raises(SolverError, match="absorbing"):
        cache.evaluate(np.array([0, 0]), reward)
    with pytest.raises(SolverError, match="absorbing"):
        cache.stationary(np.array([0, 0]))
    gain, bias = cache.evaluate(np.array([0, 1]), reward)
    assert gain == 0.5
    assert bias.tolist() == [0.0, -0.5]
    assert cache.stats.lu_fallbacks == 0


def test_deterministic_ring_gets_exact_gain():
    rewards = [1.0, 0.0, 0.5, 0.25, 0.25]
    n = len(rewards)
    b = MDPBuilder(actions=["next"], channels=["r"])
    for s, r in enumerate(rewards):
        b.add(s, "next", (s + 1) % n, 1.0, r=r)
    mdp = b.build(start=0)
    cache = mdp.eval_cache()
    cert = cache.certificate()
    assert cert is not None and cert.n_levels == n
    policy = np.zeros(n, dtype=int)
    gain, bias = cache.evaluate(policy, mdp.combined_reward({"r": 1.0}))
    assert gain == sum(rewards) / n
    # h(s) = sum of (r_k - g) from s to the end of the ring.
    expected = [0.0] + [sum(r - gain for r in rewards[s:])
                        for s in range(1, n)]
    np.testing.assert_allclose(bias, expected, atol=1e-15)
    np.testing.assert_array_equal(cache.stationary(policy),
                                  np.full(n, 1.0 / n))
    assert cache.stats.lu_fallbacks == 0
    assert cache.stats.substitutions == 2


def test_cyclic_model_counts_the_lu_fallback():
    rng = np.random.default_rng(13)
    mdp = random_unichain_mdp(rng)
    cache = mdp.eval_cache()
    assert cache.certificate() is None
    policy = np.zeros(mdp.n_states, dtype=int)
    cache.evaluate(policy, mdp.combined_reward({"r": 1.0}))
    cache.stationary(policy)
    assert cache.stats.factorizations == cache.stats.lu_fallbacks == 1
    assert cache.stats.substitutions == 0


def _attack_cells():
    from repro.core.config import AttackConfig
    cells = [AttackConfig.from_ratio(alpha, ratio, setting=1)
             for alpha, ratio in ((0.10, (1, 1)), (0.25, (2, 3)),
                                  (0.40, (1, 1)))]
    cells.append(AttackConfig.from_ratio(0.25, (1, 1), setting=2, ad=4))
    return cells


@pytest.mark.parametrize("config", _attack_cells(),
                         ids=lambda c: f"s{c.setting}-ad{c.ad}-"
                                       f"{c.alpha:g}")
def test_renewal_matches_lu_on_attack_cells(config):
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.solve import solve_relative_revenue
    mdp = build_attack_mdp(config, cache=False)
    solution = solve_relative_revenue(config, mdp=mdp)
    # The default solve answers by Dinkelbach over renewal evaluation
    # only: no silent fallback, no LU on the MDP's own cache.
    assert solution.solver["method"] == "dinkelbach"
    assert mdp.eval_cache().stats.lu_fallbacks == 0
    optimal = solution.policy.action_indices
    first = np.asarray(mdp.available.argmax(axis=0), dtype=int)
    reward = mdp.combined_reward({"alice": 1.0, "others": -0.3})
    cache = PolicyEvalCache(mdp)
    assert cache.certificate() is not None
    for policy in (optimal, first):
        gain, bias = cache.evaluate(policy, reward)
        pi = cache.stationary(policy)
        ref_gain, ref_bias, ref_pi = lu_reference(mdp, policy, reward)
        assert abs(gain - ref_gain) <= 1e-12 * max(1.0, abs(ref_gain))
        assert np.abs(bias - ref_bias).max() <= \
            1e-12 * max(1.0, np.abs(ref_bias).max())
        assert np.abs(pi - ref_pi).max() <= 1e-12 * ref_pi.max()
    assert cache.stats.lu_fallbacks == 0


def test_pt_values_match_direct_solve():
    """PTO's start-cut solve of ``(I - Gamma P) V = r`` equals a sparse
    direct solve of the same system."""
    from scipy.sparse import linalg as sla
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.config import AttackConfig
    from repro.mdp.kernels import LevelSystem
    mdp = build_attack_mdp(AttackConfig.from_ratio(0.25, (2, 3)),
                           cache=False)
    n = mdp.n_states
    rng = np.random.default_rng(14)
    policy = np.asarray(mdp.available.argmax(axis=0), dtype=int)
    gamma = 1.0 - rng.uniform(0.0, 0.1, size=n)
    rewards = rng.normal(size=(n, 2))
    system = LevelSystem(mdp.kernel(), mdp.eval_cache().certificate(),
                         policy, gamma)
    values = system.pinned(rewards)
    matrix = sparse.identity(n) - mdp.policy_matrix(policy).multiply(
        gamma[:, None])
    direct = sla.spsolve(sparse.csc_matrix(matrix), rewards)
    np.testing.assert_allclose(values, direct, rtol=1e-12, atol=1e-12)


def test_structure_view_shares_the_certificate():
    """Two reward variants of one transition structure compute the
    structure certificate once, whichever is solved first."""
    from dataclasses import replace
    from repro.core.attack_mdp import build_attack_mdp, \
        clear_attack_mdp_cache
    from repro.core.config import AttackConfig
    from repro.core.solve import solve_relative_revenue
    from repro.runtime import telemetry
    config = AttackConfig.from_ratio(0.25, (1, 1), setting=1)
    variant_config = replace(config, rds=2.0)
    clear_attack_mdp_cache()
    tracer = telemetry.enable_tracing()
    try:
        base = build_attack_mdp(config)
        variant = build_attack_mdp(variant_config)
        solve_relative_revenue(variant_config, mdp=variant)
        solve_relative_revenue(config, mdp=base)
    finally:
        telemetry.disable_tracing()
        clear_attack_mdp_cache()
    assert tracer.counters["kernel/structure/dag"] == 1
    assert "kernel/structure/cyclic" not in tracer.counters
    assert variant.eval_cache().certificate() is \
        base.eval_cache().certificate()
    assert sum(1 for e in tracer.events if e.get("type") == "span"
               and e["name"] == "kernel/structure") == 1


def test_mdp_is_freed_without_the_cycle_collector():
    """The eval cache refers back to its MDP weakly, so an MDP dropped
    from every other reference is freed at once, cache included."""
    import gc
    import weakref
    mdp = random_unichain_mdp(np.random.default_rng(15))
    cache = mdp.eval_cache()
    policy = np.zeros(mdp.n_states, dtype=int)
    cache.evaluate(policy, mdp.combined_reward({"r": 1.0}))
    alive = weakref.ref(mdp)
    gc.disable()
    try:
        del mdp
        assert alive() is None
        with pytest.raises(MDPError, match="freed"):
            cache.channel_gains(policy)
    finally:
        gc.enable()
