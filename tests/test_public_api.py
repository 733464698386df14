"""The package exports and the README's library example match the code."""

import re
from pathlib import Path

import iqmix

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_readme_example_runs():
    assert [name for name in iqmix.__all__ if not hasattr(iqmix, name)] == []

    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no python block under 'Library use'"
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["level"].label == "good"
    assert 1.0 <= namespace["score"] <= 5.0
