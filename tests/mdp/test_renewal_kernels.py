"""Renewal kernels against plain references: the certificate's Kahn
levels against a set-based Kahn loop, and the level passes against
``spsolve`` on the systems they stand for."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import linalg as sla

from repro.mdp.kernels import LevelSystem, _topological_levels
from repro.qa.generators import make_instance

REL_TOL = 1e-12


def reference_levels(src, dst, n):
    """Kahn's algorithm one level at a time on Python sets: a state
    joins the next level once all its successors are placed."""
    successors = [set() for _ in range(n)]
    for s, t in zip(src, dst):
        successors[s].add(t)
    placed = set()
    levels = []
    level = [s for s in range(n) if not successors[s]]
    while level:
        levels.append(level)
        placed.update(level)
        level = [s for s in range(n)
                 if s not in placed and successors[s] <= placed]
    return levels if len(placed) == n else None


def check_levels(src, dst, n):
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    levels = _topological_levels(src, dst, n)
    expected = reference_levels(src.tolist(), dst.tolist(), n)
    if expected is None:
        assert levels is None
    else:
        assert [level.tolist() for level in levels] == expected
    return levels


@st.composite
def dags(draw):
    """Edges from higher to lower rank under a random ranking, some of
    them repeated; states no edge touches stay isolated."""
    n = draw(st.integers(1, 14))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n))
    edges = [(a, b) if rank[a] > rank[b] else (b, a)
             for a, b in pairs if a != b]
    repeats = draw(st.lists(st.sampled_from(edges), max_size=n)) \
        if edges else []
    edges += repeats
    return n, [a for a, _ in edges], [b for _, b in edges]


@given(dags())
@settings(max_examples=150, deadline=None)
def test_levels_match_reference_on_random_dags(case):
    n, src, dst = case
    assert check_levels(src, dst, n) is not None


@given(dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_cycle_returns_none(case, data):
    n, src, dst = case
    if n < 2:
        return
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
    # a -> b and b -> a close a cycle whatever the DAG holds.
    assert check_levels(src + [a, b], dst + [b, a], n) is None


def test_edge_free_graph_is_one_level():
    levels = check_levels([], [], 5)
    assert [level.tolist() for level in levels] == [[0, 1, 2, 3, 4]]


def test_duplicate_edges_and_isolated_states():
    # 3 -> 1 twice, 1 -> 0; states 2 and 4 are isolated.
    levels = check_levels([3, 3, 1], [1, 1, 0], 5)
    assert [level.tolist() for level in levels] == [[0, 2, 4], [1], [3]]


def test_self_contained_cycle_among_isolated_states():
    assert check_levels([1, 2, 3], [2, 3, 1], 6) is None


def _cases():
    """(name, mdp) pairs: the setting-2 ``ad = 4`` cell and
    ``renewal-dag`` generator instances."""
    from repro.core.attack_mdp import build_attack_mdp
    from repro.core.config import AttackConfig
    config = AttackConfig.from_ratio(0.25, (1, 1), setting=2, ad=4)
    yield "setting2-ad4", build_attack_mdp(config, cache=False)
    for seed in range(4):
        yield f"renewal-dag-{seed}", make_instance("renewal-dag",
                                                   seed).mdp


CASES = list(_cases())


def _policies(mdp, rng):
    first = np.asarray(mdp.available.argmax(axis=0), dtype=int)
    policies = [first]
    for _ in range(2):
        choice = rng.random(mdp.available.shape) * mdp.available
        policies.append(np.asarray(choice.argmax(axis=0), dtype=int))
    return policies


def _close(actual, expected):
    scale = max(1.0, float(np.abs(expected).max()))
    assert float(np.abs(actual - expected).max()) <= REL_TOL * scale


@pytest.mark.parametrize("name,mdp", CASES, ids=[c[0] for c in CASES])
def test_passes_match_spsolve(name, mdp):
    """``back`` solves ``(diag(divisor) - off) x = rhs`` and
    ``forward`` the transposed system; ``pinned`` solves ``(I - M) V =
    r`` for the row-scaled policy matrix."""
    rng = np.random.default_rng(21)
    n = mdp.n_states
    kernel = mdp.kernel()
    cert = mdp.eval_cache().certificate()
    assert cert is not None
    for policy in _policies(mdp, rng):
        gamma = 1.0 - rng.uniform(0.0, 0.1, size=n)
        for row_scale in (None, gamma):
            system = LevelSystem(kernel, cert, policy, row_scale)
            matrix = sparse.csc_matrix(
                sparse.diags(system.divisor) - system._off)
            rhs = rng.normal(size=(n, 2))
            _close(system.back(rhs), sla.spsolve(matrix, rhs))
            unit = np.zeros(n)
            unit[system.pos_start] = 1.0
            _close(system.forward(unit),
                   sla.spsolve(sparse.csc_matrix(matrix.T), unit))
            if row_scale is None:
                continue
            rewards = rng.normal(size=(n, 2))
            direct = sla.spsolve(
                sparse.csc_matrix(sparse.identity(n)
                                  - mdp.policy_matrix(policy).multiply(
                                      gamma[:, None])), rewards)
            _close(system.pinned(rewards), direct)
