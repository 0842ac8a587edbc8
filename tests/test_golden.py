"""The bakes and the render still give the values pinned in golden.json
(see make_golden.py): cluster ranges and lengths exactly, every other value
within `make_golden.TOLERANCE` relative."""

import json
import math

import pytest

import make_golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_golden.GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(make_golden.OUTPUTS))
def test_matches_the_golden_values(name, golden):
    changes = make_golden.moved(golden[name], make_golden.OUTPUTS[name]())
    assert make_golden.beyond_tolerance(changes) == []


def test_check_flags_a_moved_value_and_a_moved_range():
    old = {"mu": [2.0, 3.0], "clusters": [{"start": 0, "stop": 2}]}
    assert make_golden.moved(old, old) == []
    within = {"mu": [2.0 * (1 + 1e-13), 3.0], "clusters": [{"start": 0, "stop": 2}]}
    assert len(make_golden.moved(old, within)) == 1
    assert make_golden.beyond_tolerance(make_golden.moved(old, within)) == []
    for new in ({"mu": [2.0 * (1 + 1e-11), 3.0], "clusters": [{"start": 0, "stop": 2}]},
                {"mu": [2.0, math.nan], "clusters": [{"start": 0, "stop": 2}]},
                {"mu": [2.0, 3.0], "clusters": [{"start": 0, "stop": 1}]},
                {"mu": [2.0], "clusters": [{"start": 0, "stop": 2}]},
                {"mu": [2.0, 3.0]}):
        assert len(make_golden.beyond_tolerance(make_golden.moved(old, new))) == 1
