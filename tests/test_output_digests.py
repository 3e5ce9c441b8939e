"""tools/output_digests.py runs to completion and prints one digest line per
output of its seven training runs, the resumed run's equal to the
uninterrupted run's, and two for its sweep's tables: a refactor's claim of
byte-identical outputs rests on this tool."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNS = ("default", "resume", "frozen", "cosine", "vit", "vit_frozen", "eval_long")
OUTPUTS = ("metrics", "ckpt_final.arrays", "ckpt_final.meta", "long_full.img", "long_full.txt",
           "short.txt", "eval")


@pytest.mark.slow
def test_output_digests_runs_and_resume_matches():
    proc = subprocess.run([sys.executable, "tools/output_digests.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 51 and all(re.fullmatch(r"\S+ [0-9a-f]{16}", x) for x in lines), lines
    digests = dict(x.split() for x in lines)
    assert list(digests) == [f"{r}.{o}" for r in RUNS for o in OUTPUTS] + [
        "sweep.rows", "sweep.plot_data_agg"]
    for o in OUTPUTS:
        assert digests[f"resume.{o}"] == digests[f"default.{o}"], o
