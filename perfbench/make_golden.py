"""Regenerate ``golden.json`` from the current default exact path.

    python3 perfbench/make_golden.py

Only run this when a change is *meant* to move the answers; the file
is the correctness gate of the paper-grid, scale-cell and sim-validate
workloads.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    grid = {}
    for result in workloads.paper_grid_tables(workloads.WORKERS):
        for (row, col), value in result.cells.items():
            grid[workloads.grid_key(result.name, row, col)] = value
    scale = {str(ad): workloads.scale_cell_solve(ad) for ad in (4, 10)}
    golden = {
        "source": "default exact path (repro.analysis.tables, "
                  "repro.core.solve); regenerate with make_golden.py",
        "tolerance": 1e-5,
        "paper_grid": grid,
        "scale_cell": scale,
    }
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(grid)} grid cells, scale cells {scale}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
