"""Every name a `src/cral` module imports is used there, and so is every
private (`_`-prefixed, not dunder) function, class or assignment it
defines at module level.

`__init__.py` is the package's export list, and its imports are not
checked. Two imports are kept unused on purpose, because the benchmark
hooks into them by name: `perfbench/workloads.py` patches
`cral.nn.matmul` and counts calls through `cral.losses.domain_probs`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cral"
BENCHMARK_SHIMS = {("nn.py", "matmul"), ("losses.py", "domain_probs")}


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unread_privates(source: str) -> set:
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    return private - {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_checker_finds_an_unused_import():
    source = "import os\nfrom .tensor import LOG_FLOOR, log as ln, mean\nmean(os.sep)\n"
    assert unused_imports(source) == {"LOG_FLOOR", "ln"}


def test_src_modules_use_every_import():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == BENCHMARK_SHIMS


def test_checker_finds_an_unread_private():
    source = ("__all__ = []\n_SEEN, _LOST = 1, 2\n_HINT: int = 3\n"
              "def _used():\n    return _SEEN\n"
              "def _dead():\n    _local = _used()\n"
              "class _Gone:\n    pass\n")
    assert unread_privates(source) == {"_LOST", "_HINT", "_dead", "_Gone"}


def test_src_modules_read_every_private_definition():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in unread_privates(path.read_text(encoding="utf-8"))}
    assert found == set()
