"""The pinned outputs of tests/pins.json, bit for bit.

Each row names an output, the gtassoc argv that prints it, whether its
duration_ms fields are zeroed first, and its sha256.  A demo row has no argv
but the path of a script under demos/, whose stdout it pins; the CI step
"Demos" checks the same rows.  The phi0 ladder 5 -> 8 has neither: it takes
several seconds, and the CI step "Degree-8 extension" checks it against the
same row.  A pin changes only with a CHANGES.md line that names the row, the
old and new hash, and the reason.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from gtassoc.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("pin", [pin for pin in PINS if pin["argv"]], ids=lambda pin: pin["name"])
def test_pinned_output(capsys, pin):
    code = main(pin["argv"])
    out = capsys.readouterr().out
    if pin["zero_durations"]:
        out = re.sub(r'"duration_ms": [0-9]+', '"duration_ms": 0', out)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("pin", [pin for pin in PINS if pin.get("demo")],
                         ids=lambda pin: pin["name"])
def test_pinned_demo_output(pin):
    """Each demo, run as a script in a fresh process, prints its pinned stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, pin["demo"])], cwd=ROOT, env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == pin["sha256"]


def test_every_demo_is_pinned():
    demos = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))
    assert sorted(os.path.basename(pin["demo"]) for pin in PINS if pin.get("demo")) == demos
