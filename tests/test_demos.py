"""Smoke test: the quick demos run to completion.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
a reader would run it. ``05_ablation_and_sweep.py`` is left out: its
ablation and sweep train many models and take minutes, and the ablation
acceptance gate already covers what it shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_autodiff_basics.py", "02_synthetic_data.py",
               "03_train_mdtc.py", "04_msuda_transfer.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
