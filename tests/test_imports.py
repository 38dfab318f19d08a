"""Every name a `src/cral` module imports is used there.

`__init__.py` is the package's export list and is not checked. Two
imports are kept unused on purpose, because the benchmark hooks into
them by name: `perfbench/workloads.py` patches `cral.nn.matmul` and
counts calls through `cral.losses.domain_probs`.
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


def test_checker_finds_an_unused_import():
    source = "import os\nfrom .tensor import LOG_FLOOR, log as ln, mean\nmean(os.sep)\n"
    assert unused_imports(source) == {"LOG_FLOOR", "ln"}


def test_src_modules_use_every_import():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == BENCHMARK_SHIMS
