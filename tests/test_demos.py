"""Smoke test: the quick demos run to completion, and README's quick start
prints what it promises.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
a reader would run it. ``05_ablation_and_sweep.py`` is left out: its
ablation and sweep train many models and take minutes, and the ablation
acceptance gate already covers what it shows.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_autodiff_basics.py", "02_synthetic_data.py",
               "03_train_mdtc.py", "04_msuda_transfer.py"]


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    run_python([str(ROOT / "demos" / demo)], tmp_path)


def test_readme_quick_start_prints_its_commented_value(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    promised = re.search(r"^print\(.*\)\s*#\s*(\S+?)(\.\.\.)?$", code, re.M).group(1)
    printed = run_python(["-c", code], tmp_path).strip()
    assert printed.startswith(promised), (printed, promised)
