"""Reports byte for byte: the --json output of validate, real-part and
sm --full against files stored under tests/fixtures/golden/."""

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
