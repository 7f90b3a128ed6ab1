"""The four benchmark workloads: inputs drawn from a seed, items, exact checks.

Every workload drives the package through the calls its users make: the
`sm` workloads and the document round trip call the command line in-process
(`cli.main`), the fuzz campaign makes the calls `cmd_fuzz` makes for each
case.  A workload runs in passes; a pass is the unit whose time answers the
user's question (one parameter set, one 224-case campaign, one document
round trip) and is made of items, the unit of per-item latency.

Expected answers live in the EXPECTED_* tables below, apart from the code
that compares against them, so that a test can inject a wrong one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
from collections import Counter

# KO-dimension from the signs (eps, eps', eps''), the convention stated in
# the README; the benchmark recomputes the KO-dimension from the reported
# signs instead of trusting the package's own classification.
KO_TABLE = {(1, 1, 1): 0, (-1, 1, -1): 2, (-1, 1, 1): 4, (1, 1, -1): 6}

EXPECTED_SM = {
    "twisted_real_dimension": 1,
    "fiber_real_part_dimension": 1,
    "fiber_intersection_dimension": 1,
    "internal_ko_dimension": 6,
    "fiber_ko_dimension": 2,
    "passing_checks": ("twisted_basis_is_scalar_pattern", "twist_fixes_real_part",
                       "intersection_equals_real_part"),
}
EXPECTED_BRANCH = {
    0: "doubled real part",
    4: "doubled real part",
    2: "intersection with the opposite",
    6: "intersection with the opposite",
}
EXPECTED_DOC = {"real_dimension": 1, "branch": "intersection with the opposite"}

# Parameter sets and campaign seeds are drawn up front; a run that needs more
# passes than this cycles through them again.
POOL = 64
# The acceptance campaign's class order and size (tests/test_acceptance.py).
KO_ORDER = (0, 4, 2, 6)
CASES_PER_CLASS = 56


def run_cli(pkg, argv) -> tuple[int, dict | None]:
    """`spectriple <argv> --json` in-process: exit code and parsed report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def param_args(p, exact: bool) -> list[str]:
    """Command-line flags carrying a YukawaParams (exact "p/q" or float repr)."""
    fmt = str if exact else repr
    args = [f"--{name.replace('_', '-')}={fmt(y.real)},{fmt(y.imag)}"
            for name, y in (("y_nu", p.y_nu), ("y_e", p.y_e), ("y_u", p.y_u), ("y_d", p.y_d))]
    return args + [f"--k-r={fmt(p.k_r)}"]


def ko_from_detail(detail: str) -> int | None:
    """KO-dimension from a check detail of the form "signs {'eps': ..}"."""
    signs = ast.literal_eval(detail.removeprefix("signs "))
    return KO_TABLE.get((signs["eps"], signs["eps_prime"], signs["eps_dprime"]))


def sm_report_correct(report: dict) -> bool:
    """The standard-model answer: every check passes, dimensions and KO exact."""
    checks = {c["name"]: c for c in report["checks"]}
    data = report["data"]
    want = EXPECTED_SM
    return (
        report["ok"]
        and all(checks[name]["passed"] for name in want["passing_checks"])
        and data["twisted_real_dimension"] == want["twisted_real_dimension"]
        and data["fiber_real_part_dimension"] == want["fiber_real_part_dimension"]
        and data["fiber_intersection_dimension"] == want["fiber_intersection_dimension"]
        and ko_from_detail(checks["internal_ko_dimension"]["detail"]) == want["internal_ko_dimension"]
        and ko_from_detail(checks["fiber_ko_dimension"]["detail"]) == want["fiber_ko_dimension"]
    )


class Workload:
    """Inputs for every pass, drawn once from the seed, and the item check."""

    name = ""

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.workdir = workdir
        # values recorded as data only, never as a pass condition
        self.data: dict[str, Counter] = {}

    def pass_items(self, index: int):
        raise NotImplementedError

    def run_item(self, item) -> bool:
        raise NotImplementedError

    def note(self, key: str, value) -> None:
        self.data.setdefault(key, Counter())[value] += 1


class StandardModel(Workload):
    """`spectriple sm --full` on seeded Yukawa couplings and Majorana mass."""

    def __init__(self, pkg, seed, workdir, mode: str):
        super().__init__(pkg, seed, workdir)
        self.name = f"sm-{mode}"
        exact = mode == "exact"
        rng = random.Random(seed)
        draw = pkg.standard_model.YukawaParams.random
        self.argvs = [["sm", "--full", "--json", "--mode", mode] + param_args(draw(rng, exact), exact)
                      for _ in range(POOL)]

    def pass_items(self, index):
        return [self.argvs[index % POOL]]

    def run_item(self, argv):
        code, report = run_cli(self.pkg, argv)
        # acceptance 5 fails by design: the twisted Majorana span is data
        self.note("majorana_span_twisted", report["data"].get("majorana_span_twisted"))
        return code == 0 and sm_report_correct(report)


class FuzzCampaign(Workload):
    """The 224-case acceptance campaign, four KO classes of 56 cases.

    Each pass draws four fresh class seeds from the benchmark seed, so a run
    averages over several campaigns instead of timing one draw repeatedly.
    """

    name = "fuzz-campaign"

    def __init__(self, pkg, seed, workdir, cases_per_class: int = CASES_PER_CLASS):
        super().__init__(pkg, seed, workdir)
        self.cases_per_class = cases_per_class
        master = random.Random(seed)
        self.class_seeds = [[(ko, master.randrange(2**31)) for ko in KO_ORDER] for _ in range(POOL)]

    def pass_items(self, index):
        for ko, class_seed in self.class_seeds[index % POOL]:
            rng = random.Random(class_seed)
            for _ in range(self.cases_per_class):
                yield ko, rng

    def run_item(self, item):
        ko, rng = item
        p = self.pkg
        case = p.fuzz.generate_case(rng, ko)
        t = case.triple
        axioms = p.triple.check_axioms(t)
        ok = axioms.ok and axioms.data.get("ko_dimension") == ko
        ok &= p.triple.check_order_zero(t).ok
        ok &= p.triple.check_first_order(t).ok
        dichotomy = p.realpart.verify_doubling_dichotomy(t)
        ok &= dichotomy.ok and dichotomy.data.get("branch") == EXPECTED_BRANCH[ko]
        doubled, rho = p.twist.twist_by_grading(t)
        ok &= p.realpart.verify_real_part(doubled, rho).ok
        return bool(ok)


class DocRoundTrip(Workload):
    """`sm --dump-twisted PATH`, then `validate PATH` and `real-part PATH`."""

    name = "doc-roundtrip"

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        rng = random.Random(seed)
        draw = pkg.standard_model.YukawaParams.random
        self.params = [param_args(draw(rng, True), True) for _ in range(POOL)]
        self.path = os.path.join(workdir, "twisted.json")

    def pass_items(self, index):
        return [self.params[index % POOL]]

    def run_item(self, args):
        code, sm = run_cli(self.pkg, ["sm", "--json", f"--dump-twisted={self.path}"] + args)
        self.note("majorana_span_twisted", sm["data"].get("majorana_span_twisted"))
        ok = code == 0 and sm_report_correct(sm)
        code, report = run_cli(self.pkg, ["validate", self.path, "--json"])
        ok &= code == 0 and report["ok"]
        code, report = run_cli(self.pkg, ["real-part", self.path, "--json"])
        data = report["data"]
        self.note("intersection_dimension", data.get("intersection_dimension"))
        return bool(ok and code == 0 and report["ok"]
                    and data["real_dimension"] == EXPECTED_DOC["real_dimension"]
                    and data["dichotomy_branch"] == EXPECTED_DOC["branch"])


WORKLOADS = {
    "sm-exact": lambda pkg, seed, workdir: StandardModel(pkg, seed, workdir, "exact"),
    "sm-float": lambda pkg, seed, workdir: StandardModel(pkg, seed, workdir, "float"),
    "fuzz-campaign": FuzzCampaign,
    "doc-roundtrip": DocRoundTrip,
}
