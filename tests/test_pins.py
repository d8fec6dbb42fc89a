"""The pinned outputs of tests/pins.json, bit for bit.

Each row names an output, the gtassoc argv that prints it, whether its
duration_ms fields are zeroed first, and its sha256.  The phi0 ladder 5 -> 8
has no argv: it takes several seconds, and the CI step "Degree-8 extension"
checks it against the same row.  A pin changes only with a CHANGES.md line
that names the row, the old and new hash, and the reason.
"""

import hashlib
import json
import os
import re

import pytest

from gtassoc.cli import main

with open(os.path.join(os.path.dirname(__file__), "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("pin", [pin for pin in PINS if pin["argv"]], ids=lambda pin: pin["name"])
def test_pinned_output(capsys, pin):
    code = main(pin["argv"])
    out = capsys.readouterr().out
    if pin["zero_durations"]:
        out = re.sub(r'"duration_ms": [0-9]+', '"duration_ms": 0', out)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
