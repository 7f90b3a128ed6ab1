import dataclasses
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
from spectriple.matrices import Matrix
from spectriple.standard_model import YukawaParams, build_fiber_triple
from spectriple.twist import TwistData

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


@pytest.mark.parametrize("flags", [
    ("--y-nu=abc",), ("--y-nu=1,2,3",), ("--k-r=x",), ("--k-r=1,2",), ("--y-d=1/0",), ("--y-nu=",),
    ("--mode=float", "--y-nu=abc"), ("--mode=float", "--y-nu=1,2,3"), ("--mode=float", "--k-r=1,2"),
    ("--mode=float", "--k-r=nan"), ("--mode=float", "--y-e=inf"), ("--mode=float", "--y-u=1,-inf"),
])
def test_malformed_coupling_is_malformed_input(flags):
    code, err = run_subprocess("sm", *flags)
    flag = flags[-1].split("=")[0]
    assert code == 2
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
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



def _set_placement(**changes):
    return lambda doc: doc["representation"]["plan"][0].update(changes)


@pytest.mark.parametrize("mutate, message", [
    (_set_placement(summand=0.7), "representation.plan[0].summand: expected an integer, got 0.7"),
    (_set_placement(summand=True), "representation.plan[0].summand: expected an integer, got True"),
    (_set_placement(conj="no"), "representation.plan[0].conj: expected true or false, got 'no'"),
    (_set_placement(conj=0), "representation.plan[0].conj: expected true or false, got 0"),
    (lambda doc: doc.update(signs={"eps": 1.9, "eps_prime": 1, "eps_dprime": -1}),
     "signs.eps: expected an integer, got 1.9"),
    (lambda doc: doc.update(signs={"eps": 1, "eps_prime": 1, "eps_dprime": "-1"}),
     "signs.eps_dprime: expected an integer, got '-1'"),
    (lambda doc: doc.update(twist={"perm": [0.0], "conj": [False], "r": None}),
     "twist.perm[0]: expected an integer, got 0.0"),
    (lambda doc: doc.update(twist={"perm": [0], "conj": [1], "r": None}),
     "twist.conj[0]: expected true or false, got 1"),
])
def test_wrongly_typed_plan_sign_or_twist_field_is_malformed(tmp_path, mutate, message):
    code, err = run_subprocess("validate", _mutated_ko6(tmp_path, mutate))
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mutate, message", [
    (_set_placement(summand=5), "representation.plan[0].summand: 5 outside 0..0"),
    (_set_placement(summand=-1), "representation.plan[0].summand: -1 outside 0..0"),
    (_set_placement(rows=[0, 1]), "representation.plan[0].rows: summand 0 needs 1, got 2"),
    (_set_placement(cols=[]), "representation.plan[0].cols: summand 0 needs 1, got 0"),
])
@pytest.mark.parametrize("command", ["validate", "real-part", "twist-by-grading"])
def test_plan_placement_that_does_not_fit_its_summand_is_malformed(tmp_path, mutate, message, command):
    args = [str(tmp_path / "out.json")] if command == "twist-by-grading" else []
    code, err = run_subprocess(command, _mutated_ko6(tmp_path, mutate), *args)
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert "Traceback" not in err


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


# -- sparse matrices -------------------------------------------------------

SPARSE_SIGMA1 = {"shape": [2, 2], "entries": [[0, 1, ["1", "0"]], [1, 0, ["1", "0"]]]}


def _dense(doc):
    """The same document with every sparse matrix written as dense rows."""
    zero = ["0", "0"] if doc["mode"] == "exact" else [0.0, 0.0]

    def rows(m):
        if not isinstance(m, dict):
            return m
        n, k = m["shape"]
        out = [[list(zero) for _ in range(k)] for _ in range(n)]
        for i, j, v in m["entries"]:
            out[i][j] = v
        return out

    return _map_matrices(doc, rows)


def _sparse(doc):
    """The same document with every dense matrix written sparse, zeros left out."""
    def entries(m):
        if isinstance(m, dict):
            return m
        items = [[i, j, v] for i, row in enumerate(m) for j, v in enumerate(row)
                 if any(Fraction(str(x)) for x in v)]
        return {"shape": [len(m), len(m[0])], "entries": items}

    return _map_matrices(doc, entries)


def _map_matrices(doc, f):
    doc = json.loads(json.dumps(doc))
    for key in ("dirac", "grading", "identification"):
        if doc.get(key) is not None:
            doc[key] = f(doc[key])
    for key, sub in (("real_structure", "u"), ("twist", "r")):
        if doc.get(key) is not None and doc[key].get(sub) is not None:
            doc[key][sub] = f(doc[key][sub])
    if "matrices" in doc["representation"]:
        doc["representation"]["matrices"] = [f(m) for m in doc["representation"]["matrices"]]
    return doc


@pytest.fixture(scope="module")
def twisted_sm_docs(tmp_path_factory):
    """`sm --dump-twisted` in exact and float mode: {mode: path}."""
    root = tmp_path_factory.mktemp("twisted-sm")
    paths = {}
    for mode in ("exact", "float"):
        paths[mode] = str(root / f"{mode}.json")
        assert run_cli("sm", "--mode", mode, "--dump-twisted", paths[mode]) == 0
    return paths


def test_emit_writes_sparse_exactly_below_half_nonzero():
    from spectriple.docio import _emit_matrix

    assert isinstance(_emit_matrix(Matrix.identity(2), "exact"), list)
    assert _emit_matrix(Matrix.unit(2, 2, 0, 1), "exact") == {
        "shape": [2, 2], "entries": [[0, 1, ["1", "0"]]]}
    assert _emit_matrix(Matrix.zeros(1, 3), "float") == {"shape": [1, 3], "entries": []}
    diag = Matrix.diagonal([2, 0, 3])
    assert _emit_matrix(diag, "float")["entries"] == [[0, 0, [2.0, 0.0]], [2, 2, [3.0, 0.0]]]


def test_every_matrix_field_reads_either_form():
    parsed = parse_document(load_document(KO6))
    t = parsed.triple
    explicit = spectriple.Representation(t.spec, t.dim, t.rep.basis_matrices)
    doc = emit_document(dataclasses.replace(t, rep=explicit), "exact",
                        twist=TwistData((0,), (False,), Matrix.identity(2)),
                        identification=Matrix.identity(2))
    assert isinstance(doc["representation"]["matrices"][0], list)
    sparse = _sparse(doc)
    assert isinstance(sparse["representation"]["matrices"][0], dict)
    assert isinstance(sparse["twist"]["r"], dict) and isinstance(sparse["real_structure"]["u"], dict)
    a, b = parse_document(doc), parse_document(sparse)
    assert (a.triple, a.twist, a.identification) == (b.triple, b.twist, b.identification)
    assert a.triple.rep.plan is None


def test_explicit_zero_in_a_sparse_matrix_is_not_stored():
    doc = load_document(KO6)
    doc["dirac"] = {"shape": [2, 2], "entries": [[0, 0, ["0", "0"]], *SPARSE_SIGMA1["entries"]]}
    assert parse_document(doc).triple.dirac.nnz() == 2


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_twisted_sm_document_is_sparse_and_roundtrips(twisted_sm_docs, mode):
    path = twisted_sm_docs[mode]
    assert os.path.getsize(path) < 100_000
    doc = load_document(path)
    assert doc["dirac"]["shape"] == [128, 128]
    parsed = parse_document(doc)
    again = emit_document(parsed.triple, parsed.mode, twist=parsed.twist,
                          identification=parsed.identification, metadata=parsed.metadata)
    assert again == doc


@pytest.mark.slow
def test_dense_and_sparse_twisted_sm_documents_agree(twisted_sm_docs, tmp_path, capsys):
    sparse_path = twisted_sm_docs["exact"]
    dense_doc = _dense(load_document(sparse_path))
    assert isinstance(dense_doc["dirac"], list) and len(dense_doc["dirac"]) == 128
    dense_path = str(tmp_path / "dense.json")
    save_document(dense_doc, dense_path)

    a = parse_document(load_document(dense_path))
    b = parse_document(load_document(sparse_path))
    assert a.triple == b.triple
    assert a.twist == b.twist
    assert a.identification == b.identification

    capsys.readouterr()
    assert run_cli("real-part", dense_path, "--json") == 0
    dense_report = capsys.readouterr().out
    assert run_cli("real-part", sparse_path, "--json") == 0
    assert capsys.readouterr().out == dense_report


EYE3_SPARSE = {"shape": [3, 3], "entries": [[i, i, ["1", "0"]] for i in range(3)]}


def _sparse_dirac(**changes):
    return lambda doc: doc.update(dirac={**SPARSE_SIGMA1, **changes})


@pytest.mark.parametrize("mutate, message", [
    (_sparse_dirac(entries=[[0, 2, ["1", "0"]]]), "dirac.entries[0]: index (0, 2) outside 2x2"),
    (_sparse_dirac(entries=[[-1, 0, ["1", "0"]]]), "dirac.entries[0]: index (-1, 0) outside 2x2"),
    (_sparse_dirac(entries=[*SPARSE_SIGMA1["entries"], [0, 1, ["2", "0"]]]),
     "dirac.entries[2]: duplicate index (0, 1)"),
    (_sparse_dirac(entries=[[True, 1, ["1", "0"]]]),
     "dirac.entries[0]: indices must be integers, got (True, 1)"),
    (_sparse_dirac(entries=[[0, 1.0, ["1", "0"]]]),
     "dirac.entries[0]: indices must be integers, got (0, 1.0)"),
    (_sparse_dirac(entries=[[0, 1]]), "dirac.entries[0]: an entry is [i, j, [re, im]]"),
    (_sparse_dirac(entries=[[0, 1, "1", "0"]]), "dirac.entries[0]: an entry is [i, j, [re, im]]"),
    (_sparse_dirac(entries=[[0, 1, ["1"]]]), "dirac.entries[0]: complex entries are [re, im] pairs"),
    (_sparse_dirac(entries={"0": 1}), "dirac.entries: expected a list of [i, j, [re, im]]"),
    (_sparse_dirac(format="coo"), "dirac: unexpected key 'format' in a sparse matrix"),
    (lambda doc: doc.update(dirac={"shape": [2, 2]}),
     "dirac: a sparse matrix needs 'shape' and 'entries'"),
    (_sparse_dirac(shape=[0, 2]), "dirac.shape: expected two positive integers, got [0, 2]"),
    (_sparse_dirac(shape=[2, -2]), "dirac.shape: expected two positive integers, got [2, -2]"),
    (_sparse_dirac(shape=[2, True]), "dirac.shape: expected two positive integers, got [2, True]"),
    (_sparse_dirac(shape=2), "dirac.shape: expected two positive integers, got 2"),
    (lambda doc: doc.update(mode="float", dirac={**SPARSE_SIGMA1, "entries": [[0, 1, [float("nan"), 0]]]}),
     "dirac.entries[0]: float entries must be finite"),
    (lambda doc: doc.update(mode="float", dirac={**SPARSE_SIGMA1, "entries": [[0, 1, [0, float("-inf")]]]}),
     "dirac.entries[0]: float entries must be finite"),
    (lambda doc: doc["real_structure"].update(u={**SPARSE_SIGMA1, "entries": [[0, 1, ["1/0", "0"]]]}),
     "real_structure.u.entries[0]: bad exact rational"),
])
def test_malformed_sparse_matrix_is_malformed_input(tmp_path, mutate, message):
    code, err = run_subprocess("validate", _mutated_ko6(tmp_path, mutate))
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("field, mutate", [
    ("twist.r", lambda doc: doc.update(twist={"perm": [0], "conj": [False], "r": EYE3_SPARSE})),
    ("identification", lambda doc: doc.update(identification=EYE3_SPARSE)),
])
@pytest.mark.parametrize("command", ["validate", "real-part", "twist-by-grading"])
def test_wrong_size_sparse_twist_or_identification_is_malformed(tmp_path, field, mutate, command):
    args = [str(tmp_path / "out.json")] if command == "twist-by-grading" else []
    code, err = run_subprocess(command, _mutated_ko6(tmp_path, mutate), *args)
    assert code == 2
    assert f"{field}: expected 2x2 (hilbert_dim), got 3x3" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_sparse_dirac_document_validates(tmp_path):
    code, err = run_subprocess("validate", _mutated_ko6(tmp_path, _sparse_dirac()))
    assert (code, err) == (0, "")


def test_undoubled_representation_is_not_validated_again(tmp_path, monkeypatch, capsys):
    # pi(a) = pi2(a, a) is a representation whenever the parsed pi2 is
    doubled = str(tmp_path / "doubled.json")
    assert run_cli("twist-by-grading", KO0, doubled) == 0
    calls = []
    validate = spectriple.Representation.validate
    monkeypatch.setattr(spectriple.Representation, "validate",
                        lambda self: calls.append(self) or validate(self))

    def real_part_run():
        calls.clear()
        capsys.readouterr()
        assert run_cli("real-part", doubled, "--json") == 0
        return len(calls), capsys.readouterr().out

    skipped = real_part_run()
    monkeypatch.setattr(cli, "Representation",
                        lambda *args, **kw: spectriple.Representation(*args, **{**kw, "validate": True}))
    checked = real_part_run()
    assert skipped[0] == 2
    assert checked == (skipped[0] + 1, skipped[1])
