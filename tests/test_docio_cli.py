import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import spectriple
from spectriple import cli, scalars
from spectriple.cli import main
from spectriple.docio import (DocumentError, emit_document, load_document, parse_document,
                              save_document)
from spectriple.standard_model import YukawaParams, build_fiber_triple

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
KO0 = os.path.join(FIXTURES, "ko0_toy.json")
KO6 = os.path.join(FIXTURES, "ko6_toy.json")


def run_cli(*args):
    return main(list(args))


def test_fixture_roundtrip_is_identity():
    for path in (KO0, KO6):
        doc = load_document(path)
        parsed = parse_document(doc)
        again = emit_document(parsed.triple, parsed.mode, twist=parsed.twist,
                              identification=parsed.identification, metadata=parsed.metadata)
        assert again == doc


def test_sm_fiber_document_roundtrip(tmp_path):
    fiber = build_fiber_triple(YukawaParams.exact())
    doc = emit_document(fiber, "exact", metadata={"model": "sm-fiber"})
    path = tmp_path / "fiber.json"
    save_document(doc, str(path))
    parsed = parse_document(load_document(str(path)))
    assert emit_document(parsed.triple, "exact", metadata=parsed.metadata) == doc
    assert parsed.triple.rep == fiber.rep
    assert parsed.triple.dirac == fiber.dirac


def test_malformed_documents_are_rejected():
    with pytest.raises(DocumentError):
        parse_document({"version": "0"})
    with pytest.raises(DocumentError):
        parse_document({"version": "1", "mode": "exact", "algebra": ["C"],
                        "hilbert_dim": 1, "representation": {}})
    doc = load_document(KO0)
    doc["dirac"][0][0] = ["1"]
    with pytest.raises(DocumentError, match=r"dirac\[0\]\[0\]"):
        parse_document(doc)


def test_validate_exit_codes(tmp_path, capsys):
    assert run_cli("validate", KO0) == 0
    capsys.readouterr()

    doc = load_document(KO0)
    doc["dirac"][0][1] = ["2", "0"]  # breaks selfadjointness
    bad = tmp_path / "bad.json"
    save_document(doc, str(bad))
    assert run_cli("validate", str(bad)) == 1
    out = capsys.readouterr().out
    assert "dirac_selfadjoint" in out and "FAIL" in out

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"version": "1", "mode"')
    assert run_cli("validate", str(truncated)) == 2
    assert run_cli("validate", str(tmp_path / "missing.json")) == 2


def test_bad_twist_permutation_is_semantic_failure(tmp_path, capsys):
    doc = load_document(KO0)
    doc["twist"] = {"perm": [0, 1], "conj": [False, False], "r": None}
    bad = tmp_path / "badtwist.json"
    save_document(doc, str(bad))
    # the toy has one summand; a two-slot permutation cannot apply
    assert run_cli("validate", str(bad)) == 1
    assert "invalid" in capsys.readouterr().err


def test_validate_reports_json(capsys):
    assert run_cli("validate", KO6, "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["data"]["ko_dimension"] == 6
    assert {c["name"] for c in data["checks"]} >= {"dirac_selfadjoint", "order_zero", "first_order"}


def test_twist_by_grading_pipeline(tmp_path, capsys):
    out = tmp_path / "doubled.json"
    assert run_cli("twist-by-grading", KO0, str(out)) == 0
    capsys.readouterr()
    assert run_cli("validate", str(out)) == 0
    report = capsys.readouterr().out
    assert "twisted_first_order" in report

    # twisting an already twisted document is refused
    assert run_cli("twist-by-grading", str(out), str(tmp_path / "again.json")) == 2


def test_twist_by_grading_rejects_ungraded(tmp_path):
    doc = load_document(KO0)
    doc["grading"] = None
    ungraded = tmp_path / "ungraded.json"
    save_document(doc, str(ungraded))
    assert run_cli("twist-by-grading", str(ungraded), str(tmp_path / "out.json")) == 2


def test_real_part_requires_real_structure(tmp_path, capsys):
    doc = load_document(KO0)
    doc["real_structure"] = None
    bare = tmp_path / "bare.json"
    save_document(doc, str(bare))
    assert run_cli("real-part", str(bare)) == 2
    assert "real structure required" in capsys.readouterr().err


def test_real_part_on_doubled_documents(tmp_path, capsys):
    for fixture, branch, dim in ((KO0, "doubled real part", 2),
                                 (KO6, "intersection with the opposite", 2)):
        out = tmp_path / "doubled.json"
        assert run_cli("twist-by-grading", fixture, str(out)) == 0
        capsys.readouterr()
        assert run_cli("real-part", str(out), "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["data"]["real_dimension"] == dim
        assert data["data"]["dichotomy_branch"] == branch


def test_fuzz_command_is_deterministic(capsys):
    assert run_cli("fuzz", "--seed", "1", "--count", "6", "--json") == 0
    first = capsys.readouterr().out
    assert run_cli("fuzz", "--seed", "1", "--count", "6", "--json") == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["data"]["passed"] == 6


def test_fuzz_command_ko_filter(capsys):
    assert run_cli("fuzz", "--seed", "2", "--count", "4", "--ko", "6", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["data"]["branches"] == {"intersection with the opposite": 4}


def test_fuzz_command_ko0_campaign(capsys):
    assert run_cli("fuzz", "--seed", "1", "--count", "10", "--ko", "0", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["data"]["passed"] == 10
    assert data["data"]["branches"] == {"doubled real part": 10}


@pytest.mark.slow
def test_sm_command_matches_builder_dump(tmp_path, capsys):
    fiber_path = tmp_path / "fiber.json"
    twisted_path = tmp_path / "twisted.json"
    assert run_cli("sm", "--dump-fiber", str(fiber_path),
                   "--dump-twisted", str(twisted_path)) == 0
    capsys.readouterr()

    # the CLI twist of the dumped fiber document reproduces the builder's
    # twisted document except for bookkeeping metadata
    out = tmp_path / "doubled.json"
    assert run_cli("twist-by-grading", str(fiber_path), str(out)) == 0
    capsys.readouterr()
    a = load_document(str(out))
    b = load_document(str(twisted_path))
    assert a["metadata"]["construction"] == b["metadata"]["construction"]
    for key in ("algebra", "representation", "dirac", "grading", "real_structure",
                "signs", "twist", "identification", "hilbert_dim", "mode"):
        assert a[key] == b[key], key


@pytest.mark.slow
def test_real_part_on_twisted_sm_document(tmp_path, capsys):
    twisted_path = tmp_path / "twisted.json"
    assert run_cli("sm", "--dump-twisted", str(twisted_path)) == 0
    capsys.readouterr()
    assert run_cli("real-part", str(twisted_path), "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["data"]["real_dimension"] == 1
    assert data["data"]["dichotomy_branch"] == "intersection with the opposite"
    assert data["ok"] is True


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "spectriple.cli", "validate", KO6],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: OK" in proc.stdout


def run_subprocess(*args):
    """`spectriple <args>` in a fresh interpreter: exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spectriple.__file__)))
    proc = subprocess.run([sys.executable, "-m", "spectriple.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_invalid_tolerance_is_malformed_input(tol):
    code, err = run_subprocess("validate", KO6, f"--tol={tol}")
    assert code == 2
    assert err.startswith("error: --tol") and err.count("\n") == 1
    assert "Traceback" not in err


def test_tolerance_holds_for_one_call_only(monkeypatch, capsys):
    before = scalars.get_tolerance()
    seen = []

    def fake_validate(args):
        seen.append(scalars.get_tolerance())
        if len(seen) == 2:
            raise DocumentError("boom")
        return 0

    monkeypatch.setattr(cli, "cmd_validate", fake_validate)
    assert run_cli("validate", KO6, "--tol", "1e-3") == 0
    assert scalars.get_tolerance() == before
    assert run_cli("validate", KO6, "--tol", "1e-4") == 2
    assert scalars.get_tolerance() == before
    assert run_cli("validate", KO6, "--tol", "0") == 2
    assert seen == [1e-3, 1e-4]
    assert scalars.get_tolerance() == before


def _mutated_ko6(tmp_path, mutate):
    doc = load_document(KO6)
    mutate(doc)
    path = tmp_path / "mutated.json"
    save_document(doc, str(path))
    return str(path)


def test_algebra_given_as_a_string_is_rejected(tmp_path):
    path = _mutated_ko6(tmp_path, lambda doc: doc.update(algebra="C"))
    code, err = run_subprocess("validate", path)
    assert code == 2
    assert "algebra must be a list" in err and "Traceback" not in err


def test_plan_slot_out_of_range_names_the_placement(tmp_path):
    def mutate(doc):
        doc["representation"]["plan"][1]["rows"] = [99]

    code, err = run_subprocess("validate", _mutated_ko6(tmp_path, mutate))
    assert code == 2
    assert "representation.plan[1]: slot 99 outside 0..1" in err and "Traceback" not in err



EYE3 = [[["1" if i == j else "0", "0"] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("field, mutate", [
    ("twist.r", lambda doc: doc.update(twist={"perm": [0], "conj": [False], "r": EYE3})),
    ("identification", lambda doc: doc.update(identification=EYE3)),
])
@pytest.mark.parametrize("command", ["validate", "real-part", "twist-by-grading"])
def test_wrong_size_twist_or_identification_is_malformed(tmp_path, field, mutate, command):
    args = [str(tmp_path / "out.json")] if command == "twist-by-grading" else []
    code, err = run_subprocess(command, _mutated_ko6(tmp_path, mutate), *args)
    assert code == 2
    assert f"{field}: expected 2x2 (hilbert_dim), got 3x3" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", float("inf")])
def test_non_finite_float_entry_is_malformed(tmp_path, value):
    def mutate(doc):
        doc["mode"] = "float"
        doc["dirac"][0][1] = [value, 0]

    code, err = run_subprocess("validate", _mutated_ko6(tmp_path, mutate))
    assert code == 2
    assert "dirac[0][1]: float entries must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["0", "-0", "007", "-12", "3/6", "4/2", "1_0", " 1", "+1", "١", "1/0",
                                  "", "1e3", "--1", "-", "²", 7])
def test_exact_entries_read_as_the_fraction_parser_reads_them(tmp_path, capsys, text):
    # plain ASCII integers skip the Fraction parser; no input may change
    # between accepted and rejected, or change its value
    def mutate(doc):
        doc["dirac"][0][0] = [text, "0"]

    path = _mutated_ko6(tmp_path, mutate)
    try:
        want = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DocumentError, match=r"dirac\[0\]\[0\]: bad exact rational"):
            parse_document(load_document(path))
        assert run_cli("validate", path) == 2
        return
    got = scalars.real_part(parse_document(load_document(path)).triple.dirac.get(0, 0))
    assert got == want
    assert type(got) is (int if want.denominator == 1 else scalars._RAT_TYPE)
