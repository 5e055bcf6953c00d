"""The benchmark's own tests: every workload at a small size.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _small(name, trace=False, golden=None):
    return workloads.run(name, seed=3, seconds=0.1, trace=trace,
                         size="small", golden=golden)


def _spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_small_run_emits_every_end_to_end_metric(name):
    outcome = _small(name)
    assert outcome.failed == 0, outcome.notes
    metrics = run.end_to_end(outcome)
    assert {k: unit for k, (_v, unit) in metrics.items()} \
        == _spec_units("end_to_end")
    assert all(math.isfinite(v) and v > 0 for v, _u in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_small_traced_run_emits_every_layer_metric(name):
    outcome = _small(name, trace=True)
    assert outcome.failed == 0, outcome.notes
    got = outcome.layers
    assert {k: unit for k, (_v, unit) in got.items()} \
        == _spec_units("per_layer")
    assert all(math.isfinite(v) for v, _u in got.values())
    selfs = sum(got[m][0] for m in workloads.SELF_TIMES)
    assert selfs + got["trace.unattributed_s"][0] \
        == pytest.approx(got["trace.wall_s"][0], rel=1e-9)


def _corrupt(golden, key_path):
    *parents, leaf = key_path
    node = golden
    for key in parents:
        node = node[key]
    node[leaf] += 0.01
    return golden


@pytest.mark.parametrize("name, key_path", [
    ("paper-grid", ("paper_grid", "table2-setting1|2:3|25%")),
    ("scale-cell", ("scale_cell", "4")),
    ("sim-validate", ("paper_grid", "table2-setting2|1:1|25%")),
])
def test_corrupted_golden_value_fails_the_gate(name, key_path):
    golden = _corrupt(workloads.load_golden(), key_path)
    outcome = _small(name, golden=golden)
    assert outcome.failed > 0
    assert outcome.ok < outcome.attempted


def test_wrong_reference_answer_fails_the_serve_gate(monkeypatch):
    real = workloads.direct_utility
    monkeypatch.setattr(workloads, "direct_utility",
                        lambda obj: real(obj) + 0.01)
    outcome = workloads.run("serve-mix", seed=5, seconds=1.0,
                            trace=False, size="small")
    assert outcome.failed > 0


def test_paper_values_outside_documented_deviation_fail():
    from repro.analysis.tables import TableResult
    golden = workloads.load_golden()
    value = golden["paper_grid"]["table4-alpha1%|1:1|setting1"]
    result = TableResult(name="table4-alpha1%", row_labels=["1:1"],
                         col_labels=["setting1"],
                         cells={("1:1", "setting1"): value},
                         paper={("1:1", "setting1"): value + 0.02})
    attempted, messages = workloads.check_grid([result], golden)
    assert attempted == 1 and len(messages) == 1


def test_self_time_sweep():
    spans = [  # (id, parent, name, thread, start, end, sync)
        (1, None, "a", 1, 0.0, 10.0, True),
        (2, 1, "b", 1, 2.0, 5.0, True),
        (3, None, "c", 2, 4.0, 6.0, True),
        (4, None, "async", 1, 0.0, 12.0, False),
    ]
    selfs, covered = layers.self_times(spans, 0.0, 12.0)
    # [4, 5]: b and c share; [5, 6]: a and c share.
    assert selfs == pytest.approx({"a": 6.5, "b": 2.5, "c": 1.0})
    assert covered == pytest.approx(10.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "scale-cell", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
