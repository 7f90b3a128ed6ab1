"""Work done per command: each doubled model is derived once.

Calls are counted by patching class attributes, so the count does not
depend on where a module bound the name.  The compatibility sweep
(opposite_twist_exchange) runs once per real part under a twist, a twist
by grading validates its twist data once, and the standard-model models
build their representations from a plan once each.
"""

from collections import Counter

import pytest

from spectriple.algebra import Representation
from spectriple.cli import main
from spectriple.reports import Report
from spectriple.twist import TwistData


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    sweep, validate, from_plan = Report.sweep, TwistData.validate, Representation.from_plan

    def counted_sweep(self, name, residuals, detail=""):
        seen[name] += 1
        return sweep(self, name, residuals, detail)

    def counted_validate(self, spec, rep):
        seen["twists"] += 1
        return validate(self, spec, rep)

    def counted_from_plan(cls, *args, **kwargs):
        seen["from_plan"] += 1
        return from_plan.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(Report, "sweep", counted_sweep)
    monkeypatch.setattr(TwistData, "validate", counted_validate)
    monkeypatch.setattr(Representation, "from_plan", classmethod(counted_from_plan))
    return seen


@pytest.mark.parametrize("argv, expected", [
    (["sm"], {"opposite_twist_exchange": 1, "twists": 1, "from_plan": 2}),
    (["sm", "--full"], {"opposite_twist_exchange": 2, "twists": 1, "from_plan": 2}),
    (["fuzz", "--seed", "100", "--count", "8"], {"twists": 8}),
], ids=["sm", "sm-full", "fuzz"])
def test_each_doubled_model_is_derived_once(counts, capsys, argv, expected):
    assert main(argv) == 0
    capsys.readouterr()
    assert {name: counts[name] for name in expected} == expected
