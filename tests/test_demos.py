"""Each demo script runs to completion in a fresh interpreter against the
library under test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.stem for p in DEMOS] == ["identity_pipeline", "market_models",
                                       "registration_round", "shard_epoch"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(demo, child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
