"""Work done per command: each doubled model is derived once, and the pair
sweeps are decided on the algebra generators where that is exact.

Calls are counted by patching class attributes, so the count does not
depend on where a module bound the name.  The compatibility sweep
(opposite_twist_exchange) runs once per real part under a twist, a twist
by grading validates its twist data once, and the standard-model models
build their representations from a plan once each.  "pairs" counts the
order-zero and first-order residuals over algebra basis pairs that
triple.basis_pairs hands out.
"""

from collections import Counter

import pytest

from spectriple import triple
from spectriple.algebra import Representation
from spectriple.cli import main
from spectriple.reports import Report
from spectriple.twist import TwistData


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    sweep, validate, from_plan = Report.sweep, TwistData.validate, Representation.from_plan
    basis_pairs = triple.basis_pairs

    def counted_sweep(self, name, residuals, detail=""):
        seen[name] += 1
        return sweep(self, name, residuals, detail)

    def counted_validate(self, spec, rep):
        seen["twists"] += 1
        return validate(self, spec, rep)

    def counted_from_plan(cls, *args, **kwargs):
        seen["from_plan"] += 1
        return from_plan.__func__(cls, *args, **kwargs)

    def counted_pairs(*args, **kwargs):
        for label, residual in basis_pairs(*args, **kwargs):
            seen["pairs"] += label.startswith("basis pair")
            yield label, residual

    monkeypatch.setattr(triple, "basis_pairs", counted_pairs)
    monkeypatch.setattr(Report, "sweep", counted_sweep)
    monkeypatch.setattr(TwistData, "validate", counted_validate)
    monkeypatch.setattr(Representation, "from_plan", classmethod(counted_from_plan))
    return seen


# sm --full on generator pairs: order zero, then first order after its order-zero
# precondition, on the 9 generators of the internal and of the fiber algebra; twisted first
# order after its precondition on the 18 of the doubled one.  Every basis pair would be 4,608.
PAIRS = 2 * (81 + 2 * 81) + 2 * 324
# the fuzz summands are R and C, their own generators: every basis pair is swept
FUZZ_PAIRS = 184


@pytest.mark.parametrize("argv, expected", [
    (["sm"], {"opposite_twist_exchange": 1, "twists": 1, "from_plan": 2, "pairs": 0}),
    (["sm", "--full"], {"opposite_twist_exchange": 1, "twists": 1, "from_plan": 2, "pairs": PAIRS}),
    (["fuzz", "--seed", "100", "--count", "8"], {"twists": 8, "pairs": FUZZ_PAIRS}),
], ids=["sm", "sm-full", "fuzz"])
def test_each_doubled_model_is_derived_once(counts, capsys, argv, expected):
    assert main(argv) == 0
    capsys.readouterr()
    assert {name: counts[name] for name in expected} == expected
