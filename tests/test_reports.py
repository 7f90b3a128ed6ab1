import pytest

from spectriple.matrices import Matrix
from spectriple.reports import Report

from conftest import mat


class LoggedResidual:
    """Residual stand-in that logs when the sweep inspects it."""

    def __init__(self, log, k, size):
        self.log, self.k, self.size = log, k, size

    def is_zero(self):
        self.log.append(f"inspect {self.k}")
        return self.size == 0

    def max_abs(self):
        return float(self.size)


def test_sweep_consumes_residuals_one_at_a_time():
    log = []

    def residuals():
        for k, size in enumerate((0, 2, 0)):
            log.append(f"make {k}")
            yield f"item {k}", LoggedResidual(log, k, size)

    check = Report("t").sweep("lazy", residuals())
    assert log == ["make 0", "inspect 0", "make 1", "inspect 1", "make 2", "inspect 2"]
    assert (check.passed, check.residual, check.detail) == (False, 2.0, "item 1")


def test_sweep_reports_the_worst_residual_and_the_last_among_equals():
    report = Report("t")
    small, large = mat([[1, 0], [0, 0]]), mat([[0, -3], [0, 0]])
    check = report.sweep("worst", [("a", large), ("b", small), ("c", large.scale(-1)), ("d", small)],
                         "fixed detail")
    assert not check.passed
    assert check.residual == 3.0
    assert check.detail == "c"
    assert report.checks == [check]


@pytest.mark.parametrize("residuals", [[], [("a", Matrix.zeros(2)), ("b", Matrix.zeros(2))]])
def test_passing_sweep_has_zero_residual_and_the_fixed_detail(residuals):
    check = Report("t").sweep("ok", iter(residuals), "fixed detail")
    assert (check.passed, check.residual, check.detail) == (True, 0.0, "fixed detail")
