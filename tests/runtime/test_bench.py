"""Tests for the benchmark trajectory and its regression gate."""

import json

import pytest

from repro.errors import ReproError
from repro.runtime.bench import (
    BENCH_SCHEMA,
    BENCHMARKS,
    bench_filename,
    compare_to_baseline,
    main,
    run_benchmark,
)


def test_registry_names_are_stable():
    assert set(BENCHMARKS) == {"attack-build", "attack-solve",
                               "attack-e2e", "reward-rebuild",
                               "ratio-methods", "exact-scale",
                               "sim-rollout", "sim-validate",
                               "serve-smoke"}


def test_unknown_benchmark_raises():
    with pytest.raises(ReproError):
        run_benchmark("nope")
    with pytest.raises(ReproError):
        run_benchmark("attack-build", repeat=0)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_fast_benchmarks_produce_schema_documents(name):
    doc = run_benchmark(name, fast=True)
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["name"] == name
    assert doc["fast"] is True
    assert doc["wall_time_s"] > 0
    assert doc["metrics"]["n_states"] > 0


def test_repeat_takes_minimum_wall_time(monkeypatch):
    import repro.runtime.bench as bench
    walls = iter([0.5, 0.1, 0.3])
    monkeypatch.setitem(
        bench.BENCHMARKS, "attack-build",
        lambda fast: {"wall_time_s": next(walls), "metrics": {}})
    doc = run_benchmark("attack-build", fast=True, repeat=3)
    assert doc["wall_time_s"] == 0.1


def _doc(wall, fast=True, utility=None):
    metrics = {} if utility is None else {"utility": utility}
    return {"schema": BENCH_SCHEMA, "name": "attack-e2e", "fast": fast,
            "wall_time_s": wall, "metrics": metrics}


def test_compare_flags_wall_time_regression():
    failures = compare_to_baseline(_doc(1.0), _doc(0.2),
                                   max_regression=2.0)
    assert len(failures) == 1
    assert "wall time" in failures[0]
    assert compare_to_baseline(_doc(0.3), _doc(0.2),
                               max_regression=2.0) == []


def test_compare_pads_tiny_baselines():
    # 1ms -> 3ms is noise, not a regression: the floor absorbs it.
    assert compare_to_baseline(_doc(0.003), _doc(0.001),
                               max_regression=2.0) == []


def test_compare_flags_utility_drift():
    failures = compare_to_baseline(_doc(0.1, utility=0.25),
                                   _doc(0.1, utility=0.26),
                                   max_regression=2.0)
    assert len(failures) == 1
    assert "drifted" in failures[0]


def test_compare_skips_mismatched_fast_mode():
    assert compare_to_baseline(_doc(9.0, fast=True),
                               _doc(0.1, fast=False),
                               max_regression=2.0) == []


def test_main_writes_artifacts_and_gates(tmp_path):
    out = tmp_path / "out"
    assert main(["attack-build", "--fast",
                 "--output-dir", str(out)]) == 0
    path = out / bench_filename("attack-build")
    doc = json.loads(path.read_text())
    assert doc["name"] == "attack-build"

    # Gating a fresh run against its own output passes.
    assert main(["attack-build", "--fast",
                 "--output-dir", str(tmp_path / "out2"),
                 "--baseline", str(out), "--repeat", "2"]) == 0
    # A missing baseline file is skipped, not an error.
    assert main(["attack-solve", "--fast",
                 "--output-dir", str(tmp_path / "out3"),
                 "--baseline", str(out)]) == 0


def test_main_gate_fails_on_utility_drift(tmp_path):
    out = tmp_path / "out"
    assert main(["attack-e2e", "--fast",
                 "--output-dir", str(out)]) == 0
    path = out / bench_filename("attack-e2e")
    doc = json.loads(path.read_text())
    doc["metrics"]["utility"] += 0.01
    path.write_text(json.dumps(doc))
    assert main(["attack-e2e", "--fast",
                 "--output-dir", str(tmp_path / "out2"),
                 "--baseline", str(out)]) == 1


# -- the environment fingerprint ----------------------------------------


def test_documents_embed_environment_fingerprint():
    import numpy
    import scipy

    from repro.runtime.bench import environment_fingerprint
    doc = run_benchmark("attack-build", fast=True)
    env = doc["environment"]
    assert "backend" not in doc
    assert env == environment_fingerprint()
    assert env["numpy"] == numpy.__version__
    assert env["scipy"] == scipy.__version__
    assert set(env) == {"python", "implementation", "numpy", "scipy",
                        "machine", "system", "cpu_count"}
    assert env["cpu_count"] >= 1
    assert env["python"]


def test_ratio_methods_bench_reports_per_method_counts():
    """The ratio-methods benchmark must carry per-method solve counts
    and enforce its own >=5x transformed-solve gate (the document only
    exists if the gate held)."""
    doc = run_benchmark("ratio-methods", fast=True)
    metrics = doc["metrics"]
    for key in ("dinkelbach_avg_solves", "bisection_avg_solves",
                "pto_avg_solves", "pto_pt_solves", "utility"):
        assert key in metrics
    assert metrics["pto_avg_solves"] * 5 <= metrics["dinkelbach_avg_solves"]
    assert metrics["bisection_avg_solves"] >= \
        metrics["dinkelbach_avg_solves"]
