"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import levyem

MODULES = ["levyem"] + [
    f"levyem.{info.name}" for info in pkgutil.iter_modules(levyem.__path__)
]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_readme_imports_resolve():
    # every `from levyem... import name` of a README python block, e.g. the quick start
    imports = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "levyem":
                imports += [(node.module, alias.name) for alias in node.names]
    assert imports, "no README python block imports from levyem"
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
