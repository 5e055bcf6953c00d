"""Warm precompute of the paper's parameter grids into the atlas.

``repro serve --warm [GRID]`` makes the reproduction's own sweep cells
(the tables of the CoNEXT '17 paper) the seed working set of the
serving layer: every cell is solved through the shared
:func:`repro.runtime.parallel.run_cells` machinery -- so the work fans
out over the configured :class:`~repro.runtime.parallel.Scheduler`,
honours ``--ratio-method``, and checkpoints into a
journal under the atlas root -- and lands in the
:class:`~repro.serve.atlas.PolicyAtlas` as ordinary content-addressed
entries.

Warming is idempotent and resumable at two levels: cells whose key is
already in the atlas are skipped before any task is built, and cells
recorded in the journal by a killed run are restored (and re-``put``
into the atlas, which heals an atlas wiped after the journal survived)
without re-solving.  Two processes warming overlapping grids converge
on one consistent atlas because entries are content-addressed atomic
writes of identical content.

Tasks use the dedicated ``"warm"`` kind: the same solve as
``"analyze"``, but the payload stays a raw JSON dict end to end --
precompute must not pay the MDP-rebuilding cost of full analysis
reconstruction just to store the payload verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.tables import (
    TABLE2_ALPHAS,
    TABLE2_RATIOS,
    TABLE3_ALPHAS,
    TABLE3_RATIOS,
    TABLE4_RATIOS,
    feasible,
)
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import ReproError
from repro.runtime import telemetry
from repro.serve.atlas import PolicyAtlas, atlas_key, key_digest

#: Grids ``--warm`` understands; ``"paper"`` is the union of the three
#: table grids, ``"smoke"`` a four-cell CI-sized sample.
WARM_GRIDS = ("paper", "table2", "table3", "table4", "smoke")


@dataclass(frozen=True)
class WarmCell:
    """One grid cell: a config plus the incentive model to solve."""

    config: AttackConfig
    model: IncentiveModel


@dataclass
class WarmReport:
    """Outcome of one :func:`warm_atlas` run."""

    grid: str
    cells: int
    skipped: int
    solved: int
    restored: int
    entries: int


def _ad_kwargs(fast: bool) -> Dict:
    """Fast grids shrink the lookahead to ad=2; full grids keep the
    paper's default."""
    return {"ad": 2} if fast else {}


def _table2_cells(fast: bool) -> List[WarmCell]:
    alphas = TABLE2_ALPHAS[:2] if fast else TABLE2_ALPHAS
    ratios = TABLE2_RATIOS[:3] if fast else TABLE2_RATIOS
    ad = _ad_kwargs(fast)
    cells = [WarmCell(AttackConfig.from_ratio(a, r, setting=1, **ad),
                      IncentiveModel.COMPLIANT_PROFIT)
             for r in ratios for a in alphas if feasible(a, r)]
    set2_ratios = TABLE2_RATIOS[:2] if fast else TABLE2_RATIOS[:4]
    cells += [WarmCell(AttackConfig.from_ratio(0.25, r, setting=2, **ad),
                       IncentiveModel.COMPLIANT_PROFIT)
              for r in set2_ratios if feasible(0.25, r)]
    return cells


def _table3_cells(fast: bool) -> List[WarmCell]:
    alphas = (0.01, 0.10) if fast else TABLE3_ALPHAS
    ratios = TABLE3_RATIOS[:3] if fast else TABLE3_RATIOS
    settings = (1,) if fast else (1, 2)
    ad = _ad_kwargs(fast)
    return [WarmCell(AttackConfig.from_ratio(a, r, setting=s, **ad),
                     IncentiveModel.NONCOMPLIANT_PROFIT)
            for s in settings for a in alphas for r in ratios
            if feasible(a, r)]


def _table4_cells(fast: bool) -> List[WarmCell]:
    ratios = TABLE4_RATIOS[:3] if fast else TABLE4_RATIOS
    settings = (1,) if fast else (1, 2)
    ad = _ad_kwargs(fast)
    return [WarmCell(AttackConfig.from_ratio(0.01, r, setting=s, **ad),
                     IncentiveModel.NON_PROFIT)
            for s in settings for r in ratios if feasible(0.01, r)]


def _smoke_cells(fast: bool) -> List[WarmCell]:
    del fast  # already minimal
    return [WarmCell(AttackConfig.from_ratio(a, r, setting=1, ad=2),
                     IncentiveModel.COMPLIANT_PROFIT)
            for a in (0.10, 0.15) for r in ((1, 1), (1, 2))
            if feasible(a, r)]


def grid_cells(grid: str = "paper", fast: bool = False) -> List[WarmCell]:
    """The deduplicated cell list of one named grid.

    ``fast`` shrinks every grid (fewer alphas/ratios, lookahead
    ``ad=2``) to development/CI size; the full grids use the paper's
    parameters (lookahead 6, both settings).
    """
    builders: Dict[str, Callable[[bool], List[WarmCell]]] = {
        "table2": _table2_cells, "table3": _table3_cells,
        "table4": _table4_cells, "smoke": _smoke_cells}
    if grid == "paper":
        cells = [cell for name in ("table2", "table3", "table4")
                 for cell in builders[name](fast)]
    elif grid in builders:
        cells = builders[grid](fast)
    else:
        raise ReproError(
            f"unknown warm grid {grid!r} (expected one of {WARM_GRIDS})")
    seen, unique = set(), []
    for cell in cells:
        digest = key_digest(atlas_key(cell.config, cell.model))
        if digest not in seen:
            seen.add(digest)
            unique.append(cell)
    return unique


def warm_atlas(atlas: PolicyAtlas, grid: str = "paper",
               fast: bool = False, workers: int = 1,
               journal_dir=None, scheduler=None,
               progress: Optional[Callable[[str], None]] = None
               ) -> WarmReport:
    """Precompute one grid into ``atlas`` (see module docstring).

    ``workers``/``scheduler`` are forwarded to
    :func:`~repro.runtime.parallel.run_cells`; the journal lives at
    ``journal_dir`` (default ``<atlas root>/warm/``) under the sweep
    name ``warm-<grid>``, so re-running after a kill restores finished
    cells instead of re-solving them.
    """
    from repro.runtime.journal import Journal
    from repro.runtime.parallel import SolveTask, run_cells
    from repro.runtime.sweeprunner import SweepRunner

    cells = grid_cells(grid, fast=fast)
    tasks: List[SolveTask] = []
    key_by_task: Dict[Tuple, Dict] = {}
    skipped = 0
    for cell in cells:
        key = atlas_key(cell.config, cell.model)
        if key in atlas:
            skipped += 1
            telemetry.counter_add("warm/skipped")
            continue
        task_key = ("warm", key_digest(key))
        key_by_task[task_key] = key
        tasks.append(SolveTask(kind="warm", key=task_key,
                               config=cell.config, model=cell.model))

    directory = Path(journal_dir) if journal_dir is not None \
        else atlas.root / "warm"
    directory.mkdir(parents=True, exist_ok=True)
    sweep = f"warm-{grid}"
    runner = SweepRunner(journal=Journal(directory / f"{sweep}.journal",
                                         sweep=sweep))

    def on_cell(task, payload) -> None:
        # Fresh and journal-restored cells alike land in the atlas, so
        # a wiped atlas heals from a surviving journal on re-warm.
        atlas.put(key_by_task[tuple(task.key)], payload)
        telemetry.counter_add("warm/stored")
        if progress is not None:
            progress(f"warm[{grid}] {task.key[1][:12]} stored")

    if tasks:
        run_cells(tasks, runner=runner, workers=workers,
                  progress=on_cell, scheduler=scheduler)
    telemetry.counter_add("warm/solved", runner.stats.solved)
    telemetry.counter_add("warm/restored", runner.stats.restored)
    return WarmReport(grid=grid, cells=len(cells), skipped=skipped,
                      solved=runner.stats.solved,
                      restored=runner.stats.restored,
                      entries=len(atlas))
