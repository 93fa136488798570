"""The public API is what README.md documents, and its example runs."""
import re
from pathlib import Path

import ricci_halin

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def test_public_names_resolve_and_are_documented():
    for name in ricci_halin.__all__:
        assert hasattr(ricci_halin, name), name
        assert re.search(rf"\b{name}\b", README), f"{name} not in README.md"


def test_readme_python_api_block_runs():
    section = README.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
