"""Rewrite ``golden/*.json`` from the library in this checkout.

    python3 perfbench/golden.py

The verify-dgk workload compares each fixed-corpus CLI report with these
files byte for byte.  Rewrite them only in a change that means to alter a
report, and say why in that change.
"""

from __future__ import annotations

import sys

from run import OUT, SRC

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (needs the source path)


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    docs = OUT / "docs-golden"
    docs.mkdir(parents=True, exist_ok=True)
    for name, argv in workloads.golden_argv(docs):
        code, text = workloads.run_cli(argv)
        if code != 0:
            print(f"{name}: exit code {code}, not written", file=sys.stderr)
            return 1
        (workloads.GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote golden/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
