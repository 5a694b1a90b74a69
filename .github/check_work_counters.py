"""Compare the work counters of one traced benchmark pass with pinned values.

    python3 perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1 |
        tail -n 1 | python3 .github/check_work_counters.py W

Reads the JSON result line of ``perfbench/run.py`` on stdin and exits 1 unless
the pass is correct and each counter of ``spans.DETERMINISTIC`` equals its
value for W in ``work-counters-seed1.json``.  The counters count reductions,
matrix entries, terms and attempts, which do not depend on the machine, so a
change that is meant to keep every result must keep them too.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from spans import DETERMINISTIC  # noqa: E402


def main() -> int:
    workload = sys.argv[1]
    pinned = json.loads((HERE / "work-counters-seed1.json").read_text())[workload]
    result = json.load(sys.stdin)
    got = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    problems = [f"{k}: {got[k]} (pinned {pinned.get(k)})"
                for k in DETERMINISTIC if got[k] != pinned.get(k)]
    problems += [f"pinned counter {k} is not in spans.DETERMINISTIC"
                 for k in pinned if k not in got]
    if result["correct"] is not True:
        problems.append(f"pass not correct: {result['failed']} failed")
    for problem in problems:
        print(f"{workload} {problem}")
    print(f"{workload} work counters {'differ' if problems else 'equal the pinned values'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
