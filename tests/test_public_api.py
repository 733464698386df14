"""The package exports, the README's library examples and its config table
match the code, no module imports a name it never uses or draws at random
but by the key streams, no private module-level name is left that no module
reads, the errors are one class per exit code, and sampling keeps out the
modules whose import costs memory and draws the same under any hash seed."""

import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import iqmix
from iqmix import cli

from conftest import make_pairs, write_records

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_exports_resolve_and_readme_example_runs():
    assert [name for name in iqmix.__all__ if not hasattr(iqmix, name)] == []

    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no python block under 'Library use'"
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["level"].label == "good"
    assert 1.0 <= namespace["score"] <= 5.0


def test_every_readme_python_block_imports_names_that_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 2
    imported = [(node.module, alias.name)
                for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "iqmix"
                for alias in node.names]
    assert ("iqmix.mixopt", "coarse_search") in imported
    missing = [f"from {module} import {name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == [], "README imports names the package lacks:\n" + "\n".join(missing)


def test_errors_define_one_class_per_exit_code():
    """cli.main maps the three families to exit codes 1, 2 and 3 and no module
    catches a narrower class, so a subclass would be API only tests use."""
    from iqmix import errors

    defined = sorted(name for name, value in vars(errors).items()
                     if isinstance(value, type) and value.__module__ == errors.__name__)
    assert defined == ["ConfigError", "DataError", "IqmixError", "OracleError"]


def test_readme_config_table_lists_every_config_key():
    section = re.search(r"^### Config file\n(.*?)^### ", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert section is not None, "README has no 'Config file' section"
    keys = re.findall(r"^\| `([^`]+)` \|", section.group(1), re.M)
    assert sorted(keys) == sorted(cli._known_keys({}))


# Run in a fresh interpreter: iqmix commands, then the names of the modules
# they left loaded whose import costs resident memory.
FRESH_RUN = """
import json, sys
from iqmix.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
heavy = sorted(m for m in sys.modules if m == "scipy" or m.startswith(("scipy.", "numpy.random")))
print(json.dumps({"codes": codes, "heavy": heavy}))
"""


def test_sampling_loads_no_numpy_random_or_scipy_and_ignores_the_hash_seed(tmp_path):
    pools = {}
    for tag, n in (("d1", 30), ("d2", 40), ("d3", 40)):
        pools[tag] = str(tmp_path / f"{tag}.jsonl")
        write_records(make_pairs(tag.upper(), n), pools[tag])
    surface = {"peak_ratio": 2.42, "peak_value": 0.75, "curvature": 0.25}
    oracle = {"kind": "synthetic", "scoring_surface": surface, "interpreting_surface": surface}
    for name, noise in (("config", 0.0), ("noisy", 0.01)):
        (tmp_path / f"{name}.yaml").write_text(json.dumps({
            "pools": pools, "seed": 7, "repeats": 1,
            "oracle": {**oracle, "noise_sigma": noise}}))
    (tmp_path / "mos.csv").write_text("image_id,mos\n" + "".join(
        f"img{i},{(i * 37) % 101}\n" for i in range(60)))
    digests = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}"
        argv = [["sample", "--config", "config.yaml", "--counts", "20:45:9",
                 "--with-replacement", "--out", f"{out}.jsonl"],
                ["mix-search", "--config", "config.yaml", "--out-dir", str(out)],
                ["mix-search", "--config", "noisy.yaml", "--out-dir", f"{out}-noisy"],
                ["subsample", "mos.csv", "--target", "20", "--seed", "3", "--out", f"{out}.csv"]]
        env = {**{k: v for k, v in os.environ.items() if not k.startswith("IQMIX_")},
               "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(argv)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0] * 4, "heavy": []}
        manifests = [Path(f"{out}.jsonl"), *sorted((out / "manifests").rglob("*.jsonl"))]
        assert len(manifests) == 40  # sample's, then 39 of the search
        noisy = Path(f"{out}-noisy")  # its ledger holds every noisy response
        outputs = [*manifests, noisy / "coarse_result.json", noisy / "ledger.jsonl",
                   Path(f"{out}.csv")]
        digests.append([hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs])
    assert digests[0] == digests[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads; a name
    listed in __all__ counts as read."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(item.value for item in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [(node.lineno, name) for name in names if name not in used]
    return sorted(unused)


def test_unused_import_finder():
    source = ("from __future__ import annotations\nimport os, json\n"
              "from typing import Any as A, List\nimport xml.dom\n"
              "from .x import y\n__all__ = ['y']\nprint(json, A, xml)\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"src/iqmix/{path.name}:{line}: {name}"
             for path in sorted((ROOT / "src" / "iqmix").glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == [], "imported but never used:\n" + "\n".join(found)


def random_draws(source: str) -> list[tuple[int, str]]:
    """(line, what) of each import of random or numpy.random, and each use of
    np.random or numpy.random: draws that no version promises to repeat."""
    def drawn(module: str) -> bool:
        return any(module == name or module.startswith(f"{name}.")
                   for name in ("random", "numpy.random"))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names if drawn(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and any(
                drawn(f"{node.module}.{alias.name}") for alias in node.names):
            found.append((node.lineno, f"from {node.module} import"))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.random"))
    return sorted(found)


def test_random_draw_finder():
    source = ("import random\nimport numpy as np\nfrom numpy import pi, random as r\n"
              "from numpy.random import default_rng\nimport numpy.random\n"
              "from .util import draw_keys\nrng = np.random.default_rng(0)\n"
              "x = numpy.random\ny = np.arange(3)\n")
    assert random_draws(source) == [(1, "import random"), (3, "from numpy import"),
                                    (4, "from numpy.random import"),
                                    (5, "import numpy.random"), (7, "np.random"),
                                    (8, "numpy.random")]


def test_no_module_draws_but_by_the_key_streams():
    found = [f"src/iqmix/{path.name}:{line}: {what}"
             for path in sorted((ROOT / "src" / "iqmix").glob("*.py"))
             for line, what in random_draws(path.read_text(encoding="utf-8"))]
    assert found == [], "a draw outside util.draw_keys:\n" + "\n".join(found)


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private module-level def, class or
    assignment (a `_` name that is not a dunder) that no module reads: as a
    name, as an attribute, or as an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_unread_private_name_finder():
    sources = {
        "a.py": ("import b\n__all__ = []\n_RE = 1\n_DEAD = 2\n"
                 "def _used(): return _RE\ndef _dead(): _used()\n"
                 "class _Held: pass\nclass _Lost: pass\n"),
        "b.py": "from .a import _Held\n_ann: int = 3\nprint(b._ann)\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 4, "_DEAD"), ("a.py", 6, "_dead"), ("a.py", 8, "_Lost")]


def test_no_private_module_level_name_is_left_unread():
    sources = {f"src/iqmix/{path.name}": path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "iqmix").glob("*.py"))}
    found = [f"{module}:{line}: {name}"
             for module, line, name in unread_private_names(sources)]
    assert found == [], "defined but never read:\n" + "\n".join(found)
