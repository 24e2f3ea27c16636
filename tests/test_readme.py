"""README's Quick start block runs as written against the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_as_written():
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["trace"].T_eps is not None
    assert namespace["report"].passed
