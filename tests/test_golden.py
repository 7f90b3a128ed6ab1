"""Reports byte for byte: the --json output of validate, real-part and
sm --full against files stored under tests/fixtures/golden/."""

import json
import os

import pytest

from spectriple.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CASES = [
    ("validate_ko0_toy.json", ["validate", os.path.join(FIXTURES, "ko0_toy.json")]),
    ("validate_ko6_toy.json", ["validate", os.path.join(FIXTURES, "ko6_toy.json")]),
    ("real-part_ko0_toy.json", ["real-part", os.path.join(FIXTURES, "ko0_toy.json")]),
    ("real-part_ko6_toy.json", ["real-part", os.path.join(FIXTURES, "ko6_toy.json")]),
    ("sm_full.json", ["sm", "--full"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[g for g, _ in CASES])
def test_report_matches_golden_file(golden, argv, capsys):
    code = main(argv + ["--json"])
    with open(os.path.join(FIXTURES, "golden", golden), "rb") as f:
        expected = f.read()
    assert code == 0
    assert capsys.readouterr().out.encode() == expected


def broken_fiber_document(path: str) -> None:
    """The standard-model fiber document with D[4, 6] set to 2, which breaks first order."""
    assert main(["sm", "--dump-fiber", path]) == 0
    with open(path) as f:
        doc = json.load(f)
    entry = next(e for e in doc["dirac"]["entries"] if e[:2] == [4, 6])
    entry[2] = ["2", "0"]
    with open(path, "w") as f:
        json.dump(doc, f)


def test_failing_report_matches_golden_file(tmp_path, capsys):
    path = str(tmp_path / "fiber.json")
    broken_fiber_document(path)
    capsys.readouterr()
    code = main(["validate", path, "--json"])
    with open(os.path.join(FIXTURES, "golden", "validate_sm_fiber_first_order_broken.json"), "rb") as f:
        expected = f.read()
    assert code == 1
    assert capsys.readouterr().out.encode() == expected
