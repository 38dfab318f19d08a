"""The seed labels listed in `cral.config`'s docstring are exactly the
labels that `src/cral` passes to `derive_rng` and `derive_seed`.

A resume has to restore every generator these labels name, so the list
must not go stale. Labels are read with `ast`, and each f-string field,
in the code and in the list alike, is normalised to `{}`.
"""

import ast
import re
from pathlib import Path

import pytest

import cral.config

SRC = Path(__file__).resolve().parent.parent / "src" / "cral"
DERIVERS = {"derive_rng", "derive_seed"}


def label_of(node: ast.expr) -> str:
    """A label literal, each f-string field as {}; anything else fails."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    raise AssertionError(f"line {node.lineno}: seed label {ast.unparse(node)} is not a literal")


def code_labels(source: str) -> set:
    labels = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in DERIVERS:
                assert len(node.args) == 2 and not node.keywords, ast.unparse(node)
                labels.add(label_of(node.args[1]))
    return labels


def documented_labels(doc: str) -> set:
    """The first word of each line of the block after 'Seed labels'."""
    block = doc.split("Seed labels\n-----------\n", 1)[1].split("::\n\n", 1)[1]
    lines = block.split("\n\n", 1)[0].splitlines()
    return {re.sub(r"\{[^}]*\}", "{}", line.split()[0]) for line in lines}


def test_checker_reads_literals_and_fstrings():
    source = ("derive_rng(seed, 'train/sampler')\n"
              "seeding.derive_seed(seed, f'kfold/rot{r}')\n"
              "derive_rng(seed, f'model/branch{b}/{name}')\n"
              "other(seed, 'not/a/label')\n")
    assert code_labels(source) == {"train/sampler", "kfold/rot{}", "model/branch{}/{}"}


def test_checker_rejects_a_label_held_in_a_variable():
    with pytest.raises(AssertionError, match="seed label label is not a literal"):
        code_labels("derive_seed(seed, label)\n")


def test_config_docstring_lists_every_seed_label():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= code_labels(path.read_text(encoding="utf-8"))
    assert found == documented_labels(cral.config.__doc__)
