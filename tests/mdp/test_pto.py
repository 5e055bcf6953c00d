"""Tests for the probabilistically-terminated (PTO) ratio method and
the process-global ratio-method default."""

import contextlib

import numpy as np
import pytest

from repro.errors import SolverError, SolverInputError
from repro.mdp.builder import MDPBuilder
from repro.mdp.pto import solve_pto
from repro.mdp.ratio import (
    RATIO_METHOD_ENV,
    RATIO_METHODS,
    current_ratio_method,
    maximize_ratio,
    set_ratio_method,
)
from repro.qa.exact import exact_ratio
from repro.qa.generators import INSTANCE_CLASSES, make_instance


def renewal_mdp():
    b = MDPBuilder(actions=["short", "long"], channels=["num", "den"])
    b.add(0, "short", 0, 1.0, num=1.0, den=1.0)
    b.add(0, "long", 0, 1.0, num=3.0, den=2.0)
    return b.build(start=0)


def always_wait_mdp():
    """``idle`` earns num = den = 0: its PT survival probability is 1,
    so the terminated evaluation system of the idle policy is exactly
    singular."""
    b = MDPBuilder(actions=["attack", "idle"], channels=["num", "den"])
    b.add(0, "attack", 0, 1.0, num=1.0, den=2.0)
    b.add(0, "idle", 0, 1.0)
    return b.build(start=0)


def tiny_denominator_mdp():
    b = MDPBuilder(actions=["a", "b"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=1.0, den=1e-10)
    b.add(0, "b", 0, 1.0, num=3.0, den=2e-10)
    return b.build(start=0)


def test_solve_pto_direct():
    mdp = renewal_mdp()
    sol, residual = solve_pto(mdp, {"num": 1.0}, {"den": 1.0},
                              lo=0.0, hi=5.0, tol=1e-9)
    assert sol.method == "pto"
    assert sol.value == pytest.approx(1.5, abs=1e-7)
    assert mdp.actions[sol.policy[0]] == "long"
    assert sol.iterations >= 1
    assert sol.transformed_solves >= 1
    assert residual <= 1e-7


def test_pto_reuses_factorizations_across_rounds():
    """The PT evaluation system is rho-independent, so the number of
    LU factorizations is bounded by the number of *distinct* policies
    visited, not by the number of outer rounds."""
    mdp = renewal_mdp()
    solves = []
    sol, _ = solve_pto(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                       tol=1e-9, on_solve=solves.append)
    # Two actions from one state: at most two distinct policies exist.
    assert sol.transformed_solves <= 2
    assert len(solves) == sol.transformed_solves
    assert sol.iterations >= 2  # ...but the outer loop ran more rounds.


def test_pto_records_transformed_solves_in_solution():
    mdp = renewal_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                         tol=1e-9, method="pto")
    assert sol.method == "pto"
    assert sol.transformed_solves >= 1
    dink = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                          tol=1e-9, method="dinkelbach")
    assert dink.transformed_solves >= 1


def test_pto_strict_degenerate_policy_raises():
    """Warm-started on the zero-denominator policy, the terminated
    system is exactly singular; strict PTO must say so."""
    mdp = always_wait_mdp()
    idle = np.array([mdp.action_index("idle")])
    with pytest.raises(SolverError, match="singular"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=10.0,
                       method="pto", initial_policy=idle, strict=True)


def test_pto_falls_back_on_degeneracy():
    """Non-strict PTO falls through to the classical methods and still
    answers 0.5."""
    mdp = always_wait_mdp()
    idle = np.array([mdp.action_index("idle")])
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=10.0,
                         method="pto", initial_policy=idle)
    assert sol.method in ("dinkelbach", "bisection")
    assert sol.value == pytest.approx(0.5, abs=1e-5)


def test_pto_rejects_negative_denominator():
    """PT survival probabilities (1-eps)**(den/scale) only make sense
    for nonnegative denominator rewards; a negative one is an input
    error (not recoverable by falling back)."""
    b = MDPBuilder(actions=["a", "b"], channels=["num", "den"])
    b.add(0, "a", 0, 1.0, num=1.0, den=1.0)
    b.add(0, "b", 0, 1.0, num=1.0, den=-0.5)
    mdp = b.build(start=0)
    with pytest.raises(SolverInputError, match="nonnegative"):
        maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=10.0,
                       method="pto")


def test_pto_termination_validation():
    mdp = renewal_mdp()
    with pytest.raises(SolverInputError, match="termination"):
        solve_pto(mdp, {"num": 1.0}, {"den": 1.0}, lo=0.0, hi=5.0,
                  termination=1.5)


def test_pto_small_scale_denominator():
    """The denominator normalization is scale-relative: 1e-10-scale
    den channels are legitimate, not degenerate."""
    mdp = tiny_denominator_mdp()
    sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                         lo=0.0, hi=5e10, tol=1e-9, method="pto",
                         strict=True)
    assert sol.method == "pto"
    assert sol.value == pytest.approx(1.5e10, rel=1e-9)
    assert mdp.actions[sol.policy[0]] == "b"


# -- the process-global method default ---------------------------------


def test_set_ratio_method_controls_default():
    mdp = renewal_mdp()
    try:
        set_ratio_method("pto")
        assert current_ratio_method() == "pto"
        sol = maximize_ratio(mdp, {"num": 1.0}, {"den": 1.0},
                             lo=0.0, hi=5.0)
        assert sol.method == "pto"
    finally:
        set_ratio_method(None)
    assert current_ratio_method() == "dinkelbach"


def test_env_var_sets_default_and_explicit_set_wins(monkeypatch):
    monkeypatch.setenv(RATIO_METHOD_ENV, "bisection")
    try:
        assert current_ratio_method() == "bisection"
        set_ratio_method("pto")
        assert current_ratio_method() == "pto"
    finally:
        set_ratio_method(None)
    monkeypatch.setenv(RATIO_METHOD_ENV, "newton")
    with pytest.raises(SolverInputError, match="unknown ratio method"):
        current_ratio_method()


def test_set_ratio_method_rejects_unknown():
    with pytest.raises(SolverInputError):
        set_ratio_method("newton")
    assert "pto" in RATIO_METHODS


# -- warm-start identity (pinned regression) ---------------------------


@pytest.mark.parametrize("method", ["dinkelbach", "bisection", "pto"])
def test_warm_start_is_value_identical_to_cold(method):
    """Warm-starting from the cold solve's own optimal policy must
    reproduce the cold answer bit for bit (both report the exact gains
    of the same final policy)."""
    inst = make_instance("unichain", 0)
    exact = float(exact_ratio(inst.mdp, inst.num, inst.den).value)
    hi = 2.0 * abs(exact) + 1.0
    cold = maximize_ratio(inst.mdp, inst.num, inst.den, lo=-hi, hi=hi,
                          tol=1e-9, method=method)
    warm = maximize_ratio(inst.mdp, inst.num, inst.den, lo=-hi, hi=hi,
                          tol=1e-9, method=method,
                          initial_policy=cold.policy)
    assert (warm.policy == cold.policy).all()
    assert warm.value == cold.value


# -- differential conformance ------------------------------------------


@pytest.mark.parametrize("kernels", ["numpy", "reference"])
@pytest.mark.parametrize("cls", INSTANCE_CLASSES)
def test_methods_agree_with_exact_reference(cls, kernels, loop_kernels):
    """pto == dinkelbach == bisection == exact rational reference on
    every generator class, on the numpy kernels and on their loop
    oracle (``reference``)."""
    inst = make_instance(cls, 0)
    exact = float(exact_ratio(inst.mdp, inst.num, inst.den).value)
    hi = 2.0 * abs(exact) + 1.0
    substitute = loop_kernels if kernels == "reference" \
        else contextlib.nullcontext
    with substitute():
        sols = {m: maximize_ratio(inst.mdp, inst.num, inst.den,
                                  lo=-hi, hi=hi, tol=1e-9, method=m)
                for m in ("dinkelbach", "bisection", "pto")}
    assert sols["pto"].method == "pto"
    assert sols["dinkelbach"].method == "dinkelbach"
    for method, sol in sols.items():
        assert sol.value == pytest.approx(exact, rel=1e-6, abs=1e-9), \
            f"{method} disagrees with the exact reference on {cls}"
