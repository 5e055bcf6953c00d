"""Differential conformance tests (``-m conformance`` selects these).

Satellite property suite: every float solver is cross-checked against
the exact rational reference on seeded random instances, plus the
metamorphic invariants.  The full matrix lives behind ``repro qa``;
here a representative sample runs under pytest so CI exercises the
same code path.
"""

import numpy as np
import pytest

from repro.mdp.linear_programming import lp_average_reward
from repro.mdp.policy_iteration import policy_iteration
from repro.qa.conformance import (
    CHECKS,
    ConformanceCell,
    ConformanceReport,
    run_cell,
    run_conformance,
)
from repro.qa.exact import exact_policy_iteration
from repro.qa.generators import (
    make_instance,
    permute_mdp,
    random_permutation,
    with_duplicate_action,
)

pytestmark = pytest.mark.conformance


@pytest.mark.parametrize("seed", range(4))
def test_lp_vs_policy_iteration_vs_exact(seed):
    """The LP, Howard policy iteration and the exact reference must
    agree on the optimal gain of a random unichain MDP."""
    inst = make_instance("unichain", seed)
    reward = inst.mdp.combined_reward(inst.num)
    gain_exact = float(exact_policy_iteration(inst.mdp, "num").gain)
    gain_pi = policy_iteration(inst.mdp, reward).gain
    gain_lp, _ = lp_average_reward(inst.mdp, reward)
    assert gain_pi == pytest.approx(gain_exact, rel=1e-9, abs=1e-12)
    assert gain_lp == pytest.approx(gain_exact, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_action_metamorphic(seed):
    inst = make_instance("unichain", seed)
    duped = with_duplicate_action(inst.mdp, inst.mdp.actions[0])
    gain_exact = float(exact_policy_iteration(inst.mdp, "num").gain)
    gain = policy_iteration(duped, duped.combined_reward(inst.num)).gain
    assert gain == pytest.approx(gain_exact, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_permutation_metamorphic(seed):
    inst = make_instance("unichain", seed)
    perm = random_permutation(seed, inst.mdp.n_states)
    permuted = permute_mdp(inst.mdp, perm)
    gain_exact = float(exact_policy_iteration(inst.mdp, "num").gain)
    gain = policy_iteration(permuted,
                            permuted.combined_reward(inst.num)).gain
    assert gain == pytest.approx(gain_exact, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_passes_on_unichain(check):
    cell = run_cell("unichain", 0, check)
    assert cell.passed, (cell.error, cell.tolerance, cell.detail)


@pytest.mark.parametrize(
    "cls", ["periodic", "near-degenerate", "wide-scale"])
def test_hard_classes_pass_core_checks(cls):
    for check in ("pi", "rvi", "ratio-dinkelbach"):
        cell = run_cell(cls, 1, check)
        assert cell.passed, (check, cell.error, cell.detail)


def test_run_cell_unknown_check_rejected():
    from repro.errors import ReproError
    with pytest.raises(ReproError, match="unknown"):
        run_cell("unichain", 0, "no-such-check")


def test_solver_exception_becomes_failed_cell(monkeypatch):
    """A raising solver must produce a failing cell with diagnostics,
    never crash the runner."""
    from repro.qa import conformance

    def boom(_inst):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(conformance._CHECK_FNS, "pi", boom)
    cell = run_cell("unichain", 0, "pi")
    assert not cell.passed
    assert cell.error == float("inf")
    assert "injected fault" in cell.detail


def test_report_matrix_and_json():
    report = run_conformance(classes=["unichain"], checks=["pi", "lp"],
                             seeds=[0])
    assert report.all_passed
    text = report.format_matrix()
    assert "unichain" in text and "pi" in text and "ok" in text
    payload = report.to_json()
    assert '"all_passed": true' in payload
    assert '"n_cells": 2' in payload


def test_report_flags_failures():
    good = ConformanceCell(cls="unichain", seed=0, check="pi",
                           passed=True, error=0.0, tolerance=1e-9)
    bad = ConformanceCell(cls="unichain", seed=1, check="pi",
                          passed=False, error=1.0, tolerance=1e-9)
    report = ConformanceReport([good, bad])
    assert not report.all_passed
    assert report.failures == [bad]
    assert "FAIL" in report.format_matrix()


def test_parallel_matches_serial():
    kwargs = dict(classes=["unichain", "periodic"],
                  checks=["pi", "lp"], seeds=[0])
    serial = run_conformance(**kwargs)
    parallel = run_conformance(workers=2, **kwargs)
    as_key = lambda r: {(c.cls, c.seed, c.check): (c.passed, c.error)
                        for c in r.cells}
    assert as_key(serial) == as_key(parallel)


def test_mc_statistical_check():
    cell = run_cell("unichain", 0, "mc")
    assert cell.passed
    assert cell.tolerance > 0


def test_dinkelbach_fallback_is_a_failure(monkeypatch):
    """If the ratio solver silently switched method, the conformance
    cell must flag it (that misclassification was satellite bug c)."""
    import repro.qa.conformance as conf
    real = conf.maximize_ratio

    def degraded(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.method = "bisection"
        return sol

    monkeypatch.setattr(conf, "maximize_ratio", degraded)
    cell = run_cell("unichain", 0, "ratio-dinkelbach")
    assert not cell.passed
    assert "fell back" in cell.detail
    assert np.isinf(cell.error)


def test_renewal_check_takes_the_certified_path_on_dag_classes():
    for cls in ("renewal-dag", "periodic"):
        cell = run_cell(cls, 0, "renewal")
        assert cell.passed, (cls, cell.error, cell.detail)
        assert cell.detail.startswith("renewal:"), cell.detail


def test_renewal_check_shows_the_lu_fallback_on_cyclic_classes():
    cell = run_cell("unichain", 0, "renewal")
    assert cell.passed, (cell.error, cell.detail)
    assert cell.detail == "LU fallback (cyclic)"


def test_renewal_silent_fallback_is_a_failure(monkeypatch):
    """A DAG model evaluated by LU (the certificate lost) must fail the
    renewal cell rather than pass on the fallback's accuracy."""
    from repro.mdp import kernels
    monkeypatch.setattr(kernels, "structure_certificate",
                        lambda kernel, start: None)
    cell = run_cell("renewal-dag", 0, "renewal")
    assert not cell.passed
    assert "fell back to LU" in cell.detail
    assert np.isinf(cell.error)
