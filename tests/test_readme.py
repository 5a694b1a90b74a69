"""The README quickstart runs, and every value in its comments is what it prints."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    return blocks[0].splitlines()


def shown(value) -> str:
    """A value as the README comments write it: tuples without parentheses."""
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def test_readme_quickstart_values():
    namespace: dict = {}
    checked = 0
    for line in quickstart_lines():
        code, _, comment = line.partition("  # ")
        if comment:
            assert shown(eval(code, namespace)) == comment.strip(), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
