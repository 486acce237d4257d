"""The verify reports and the resolve/ann dumps on the test grid match their pins.

The pins are in golden.json; ``python3 tests/golden.py --write`` remakes them.
"""

import json

import pytest

from conftest import GRID
from golden import PINS, digests

PINNED = json.loads(PINS.read_text())


@pytest.mark.parametrize("d,n", GRID)
def test_outputs_match_pins(d, n):
    want = {k: v for k, v in PINNED.items() if k.endswith(f" d={d} n={n}")}
    assert want, "no pins for this grid point"
    assert digests(d, n) == want
