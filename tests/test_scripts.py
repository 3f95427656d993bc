"""Every script under scripts/ runs to completion on a small input.

Each runs in a subprocess with ``PYTHONPATH=src``, so an API change
that breaks a script fails here and not at the script's next use.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# (script and arguments, a line its output must hold)
SCRIPTS = [
    (["worked_example.py"], r"log Z before: 36\.162118486485"),
    (["grid_experiment.py", "--rows", "4", "--cols", "4", "--trials", "1",
      "--iters", "2", "--t-range", "0.5:0.5:0.5", "-o", "{tmp}/sweep.csv"],
     r"wrote .*sweep\.csv \(7 rows\)"),
    (["layer_times.py", "--sizes", "6", "--repeats", "3"],
     r"6x6 +build_minibucket_tree +\d+\.\d+ ms"),
    (["trace_fingerprint.py"], r"412 results sha1 [0-9a-f]{40}"),
]


@pytest.mark.parametrize("args,line", SCRIPTS,
                         ids=[args[0] for args, _ in SCRIPTS])
def test_script_runs(args, line, tmp_path):
    script, *rest = (a.format(tmp=tmp_path) for a in args)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *rest],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(re.fullmatch(line, out.strip())
               for out in proc.stdout.splitlines()), proc.stdout


def test_fingerprint_diff(tmp_path):
    # two hand-written --dump files: one trace moves, one order and one
    # error name change, a -inf entry and an empty trace stay
    old = tmp_path / "old.txt"
    new = tmp_path / "new.txt"
    old.write_text(
        "m order: 0 2 1\n"
        "m upper wmbe: 0x1.0000000000000p+1 -inf\n"
        "m upper wmbe-theta: 0x1.0000000000000p+1 0x1.0000000000000p+0\n"
        "m lower wmbe-g: ValueError\n"
        "m empty: \n"
        "5 results sha1 0123\n")
    new.write_text(
        "m order: 0 1 2\n"
        "m upper wmbe: 0x1.0000000000000p+1 -inf\n"
        "m upper wmbe-theta: 0x1.0000000000000p+1 0x1.8000000000000p+0\n"
        "m lower wmbe-g: NumericalUnderflow\n"
        "m empty: \n"
        "5 results sha1 4567\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "trace_fingerprint.py"),
         "--diff", str(old), str(new)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "m order: text",
        "m upper wmbe-theta: max |Δ| 0.5",
        "m lower wmbe-g: text",
        "3 of 5 results differ, max |Δ| 0.5",
    ]
