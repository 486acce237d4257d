"""The verify reports, the resolve/ann dumps and the closed-form plans of the tests' oracle match their pins.

The pins are in golden.json; ``python3 tests/golden.py --write`` remakes them.
"""

import json

import pytest

from conftest import EXTRA, GRID
from golden import PINS, PLAN_POINTS, digests, extra_digests, plan_digests

PINNED = json.loads(PINS.read_text())


@pytest.mark.parametrize("d,n", GRID)
def test_outputs_match_pins(d, n):
    want = {k: v for k, v in PINNED.items() if k.endswith(f" d={d} n={n}")}
    assert want, "no pins for this grid point"
    assert digests(d, n) == want


@pytest.mark.parametrize("label", EXTRA)
def test_extra_outputs_match_pins(label):
    want = {k: v for k, v in PINNED.items() if k.endswith(f" {label}")}
    assert want, "no pins for this system"
    assert extra_digests(label) == want


@pytest.mark.parametrize("d,n", PLAN_POINTS)
def test_build_plan_matches_pin(d, n):
    want = {k: v for k, v in PINNED.items() if k.endswith(f" of d={d}, n={n}")}
    assert want, "no pin for this plan"
    assert plan_digests(d, n) == want
