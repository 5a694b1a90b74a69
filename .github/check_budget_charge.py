"""Compare the work budget charged by the benchmark jobs of each pinned seed
with pinned totals.

    python3 .github/check_budget_charge.py

Each file ``budget-charge-seed<N>.json`` here pins the totals of seed N.  For
every such file, builds the seed-N jobs of each workload it lists from
``perfbench/workloads.py`` and runs each once, in this process, with
``groebner._Budget.spend`` wrapped so that every charge any basis
computation makes is added up.  Exits 1 unless each workload's total equals
its pinned value.  The charge is the budget's unit of work (terms touched by
division steps), so a change that is meant to keep every division keeps it
too, on every seed; a change that alters the work on purpose re-pins the
files.  A second seed guards against a change that keeps the divisions of
the one seed it was checked on and not of others.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench")]

from arcspace.polyalg import groebner  # noqa: E402
from workloads import build_jobs  # noqa: E402


def charge(workload: str, seed: int) -> int:
    """The total charge of one run of every job of workload for seed."""
    total = 0
    spend = groebner._Budget.spend

    def counted(budget, cost):
        nonlocal total
        total += cost
        spend(budget, cost)

    with tempfile.TemporaryDirectory() as docs:
        jobs = build_jobs(workload, seed, Path(docs))
        groebner._Budget.spend = counted
        try:
            for job in jobs:
                job.run()
        finally:
            groebner._Budget.spend = spend
    return total


def main() -> int:
    differ = False
    pinned_files = sorted(HERE.glob("budget-charge-seed*.json"))
    if not pinned_files:
        print("no pinned budget-charge file")
        return 1
    for path in pinned_files:
        seed = int(path.stem.removeprefix("budget-charge-seed"))
        for workload, want in json.loads(path.read_text()).items():
            got = charge(workload, seed)
            differ |= got != want
            print(f"{workload} seed {seed} budget charge {got} "
                  f"({'equals' if got == want else 'differs from'} the pinned {want})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
