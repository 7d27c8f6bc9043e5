"""Every validator's record at its defaults matches ``VALIDATION_1.json``:
verdicts, summaries, row counts and row keys exactly, and floats within
1e-9 relative (1e-12 absolute for round-off-sized values).  The records are
the acceptance tests' own, so no validator runs twice.  A change that moves
a value regenerates the file with ``python tests/write_validation.py``.
"""

import json
import math

import pytest

from framefieldops.validation import VALIDATORS
from write_validation import RECORD

# Round-off-sized values, such as the identity warp's deviations, are
# compared absolutely.
REL_TOL, ABS_TOL = 1e-9, 1e-12
COMMITTED = {r["name"]: r for r in json.loads(RECORD.read_text())["reports"]}


def mismatches(record, expected):
    """Differences between a validator's record and the committed one:
    verdicts, summaries, row counts and row keys exactly, floats within the
    tolerances."""
    found = [
        f"{key}: {record[key]!r} != {expected[key]!r}"
        for key in ("name", "passed", "summary") if record[key] != expected[key]
    ]
    if len(record["rows"]) != len(expected["rows"]):
        return found + [f"{len(record['rows'])} rows != {len(expected['rows'])}"]
    for i, (row, want) in enumerate(zip(record["rows"], expected["rows"])):
        if list(row) != list(want):
            found.append(f"row {i} keys {list(row)} != {list(want)}")
            continue
        for key, value in want.items():
            if isinstance(value, float):
                same = math.isclose(row[key], value, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            else:
                same = row[key] == value
            if not same:
                found.append(f"row {i} {key}: {row[key]!r} != {value!r}")
    return found


def test_the_record_holds_every_validator():
    assert list(COMMITTED) == list(VALIDATORS)


@pytest.mark.parametrize("name", list(VALIDATORS))
def test_validator_matches_its_record(name, validator_records):
    assert mismatches(validator_records[name], COMMITTED[name]) == []


def test_the_comparison_sees_a_moved_value():
    expected = {
        "name": "v", "passed": True, "summary": "s",
        "rows": [{"x": 1.0, "tiny": 1e-15, "n": 3}, {"x": 2.0, "tiny": 0.0, "n": 4}],
    }
    near = {**expected, "rows": [
        {"x": 1.0 + 1e-12, "tiny": 5e-16, "n": 3}, {"x": 2.0, "tiny": 1e-13, "n": 4},
    ]}
    assert mismatches(near, expected) == []
    moved = {**expected, "passed": False, "rows": [
        {"x": 1.0 + 1e-8, "tiny": 1e-15, "n": 3}, {"x": 2.0, "n": 4, "tiny": 0.0},
    ]}
    assert mismatches(moved, expected) == [
        "passed: False != True",
        "row 0 x: 1.00000001 != 1.0",
        "row 1 keys ['x', 'n', 'tiny'] != ['x', 'tiny', 'n']",
    ]
    assert mismatches({**expected, "rows": expected["rows"][:1]}, expected) == [
        "1 rows != 2"
    ]
