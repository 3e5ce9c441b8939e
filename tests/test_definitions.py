"""Every top-level definition of the package is referenced somewhere else."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def top_level_names(tree: ast.Module):
    """Names bound by the module's own top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_top_level_name_is_referenced():
    files = [p for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))
             if p.resolve() != Path(__file__).resolve()] + [ROOT / "pyproject.toml"]
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defined = Counter(name for p in sorted((ROOT / "src" / "cornerclip").glob("*.py"))
                      for name in top_level_names(ast.parse(p.read_text()))
                      if not name.startswith("__"))
    # a name is referenced when it occurs more often than it is defined
    assert sorted(name for name, n in defined.items() if words[name] <= n) == []
