"""Compare the work budget charged by every seed-1 benchmark job with pinned
totals.

    python3 .github/check_budget_charge.py

Builds the seed-1 jobs of each workload of ``perfbench/workloads.py`` and
runs each once, in this process, with ``groebner._Budget.spend`` wrapped so
that every charge any basis computation makes is added up.  Exits 1 unless
each workload's total equals its value in ``budget-charge-seed1.json``.  The
charge is the budget's unit of work (terms touched by division steps), so a
change that is meant to keep every division keeps it too; a change that
alters the work on purpose re-pins the file.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench")]

from arcspace.polyalg import groebner  # noqa: E402
from workloads import build_jobs  # noqa: E402


def charge(workload: str) -> int:
    """The total charge of one run of every seed-1 job of workload."""
    total = 0
    spend = groebner._Budget.spend

    def counted(budget, cost):
        nonlocal total
        total += cost
        spend(budget, cost)

    with tempfile.TemporaryDirectory() as docs:
        jobs = build_jobs(workload, 1, Path(docs))
        groebner._Budget.spend = counted
        try:
            for job in jobs:
                job.run()
        finally:
            groebner._Budget.spend = spend
    return total


def main() -> int:
    pinned = json.loads((HERE / "budget-charge-seed1.json").read_text())
    differ = False
    for workload, want in pinned.items():
        got = charge(workload)
        differ |= got != want
        print(f"{workload} budget charge {got} ({'equals' if got == want else 'differs from'}"
              f" the pinned {want})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
