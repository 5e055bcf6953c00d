"""Fixtures shared by the MDP tests."""

import contextlib

import numpy as np
import pytest
from scipy import sparse

from repro.mdp import _kernel_ref, kernels, simulate
from repro.mdp.kernels import BellmanKernel


def _q_values(kernel, reward, values, discount=1.0):
    stack = kernel.stack
    return _kernel_ref.q_values(stack.indptr, stack.indices, stack.data,
                                reward, values, float(discount),
                                kernel.available)


def _policy_matrix(kernel, policy):
    stack = kernel.stack
    rows = kernel.policy_rows(policy)
    indptr, indices, data = _kernel_ref.extract_rows(
        stack.indptr, stack.indices, stack.data,
        np.asarray(rows, dtype=np.int64))
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(len(rows), kernel.n_states))


def _q_backup_states(mdp, reward, values, states, discount=1.0):
    stack = mdp.kernel().stack
    return _kernel_ref.q_backup_states(
        stack.indptr, stack.indices, stack.data, reward, values,
        np.asarray(states, dtype=np.int64), float(discount),
        mdp.available)


def _advance_cdf(tables, states, uniforms, history, m):
    _kernel_ref.advance_cdf(tables.cum_capped, tables.cols, states,
                            uniforms, history, m)
    return states


def _advance_alias(tables, states, uniforms, history, m):
    accept, accept_col, alias_col = tables.alias_tables()
    _kernel_ref.advance_alias(accept, accept_col, alias_col, states,
                              uniforms, history, m)
    return states


@pytest.fixture
def loop_kernels(monkeypatch):
    """Context manager running its block on the loop oracle of
    :mod:`repro.mdp._kernel_ref` instead of the numpy kernels: the
    Bellman backup and policy-matrix extraction of
    :class:`~repro.mdp.kernels.BellmanKernel`, the subset backup, and
    both rollout samplers."""
    @contextlib.contextmanager
    def substituted():
        with monkeypatch.context() as patch:
            patch.setattr(BellmanKernel, "q_values", _q_values)
            patch.setattr(BellmanKernel, "policy_matrix", _policy_matrix)
            patch.setattr(kernels, "q_backup_states", _q_backup_states)
            patch.setattr(simulate, "_advance_cdf", _advance_cdf)
            patch.setattr(simulate, "_advance_alias", _advance_alias)
            yield
    return substituted
