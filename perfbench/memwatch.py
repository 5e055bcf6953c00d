"""Peak memory of a process tree, sampled from /proc.

    python3 perfbench/memwatch.py PID

Every 50 ms, until standard input closes, sums the resident-set
high-water marks (``VmHWM``) of PID and its descendants (except this
process); prints the largest sum in MB.  Summing each process's own
peak, rather than sampling current sizes, does not depend on whether
the pool workers happen to peak at the same instant.  It runs as its
own process so that the measured process, which may fork a process
pool, keeps no sampling thread.
"""

import os
import select
import sys

PERIOD_S = 0.05


def _children(pid: int):
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    found = []
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return found


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return 0


def tree_peak_kb(root: int, skip: int) -> int:
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        if pid != skip:
            total += _peak_kb(pid)
            stack.extend(_children(pid))
    return total


def main(argv) -> int:
    root, me = int(argv[0]), os.getpid()
    peak = 0
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        peak = max(peak, tree_peak_kb(root, me))
        if ready:
            break
    print(peak / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
