import copy
import json
import pathlib
import re

import numpy as np
import pytest

from raamkit import ParseError, ValidationError
from raamkit.cli import main, parse_problem, run_report

TOY = {"n": 4, "edges": [[1, 2], [1, 4], [2, 4], [3, 4]]}


def toy_problem(**options):
    doc = {"graph": TOY}
    if options:
        doc["options"] = options
    return doc


def test_parse_problem_defaults():
    spec = parse_problem(json.dumps(toy_problem()))
    assert spec.graph.n == 4
    assert spec.truncation == 4
    assert spec.r_grid == [0.5, 0.9, 0.99]
    assert spec.tol == 1e-9
    assert spec.family is None


def test_parse_problem_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_problem("{not json")
    with pytest.raises(ParseError):
        parse_problem(json.dumps({"graph": TOY, "bogus": 1}))
    with pytest.raises(ParseError):
        parse_problem(json.dumps([]))
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(toy_problem(r_grid=[1.0])))
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(toy_problem(truncation=-1)))
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(toy_problem(tol=0)))


def test_parse_problem_with_family_and_terms():
    doc = {
        "graph": {"n": 2, "edges": []},
        "family": {
            "dim": 1,
            "matrices": [{"re": [[0.5]]}, {"re": [[0.25]], "im": [[0.1]]}],
        },
        "vn_terms": [{"re": 1.0, "p": "g1", "q": "id"}],
    }
    spec = parse_problem(json.dumps(doc))
    assert spec.family.dim == 1
    assert spec.family.matrix(2)[0, 0] == pytest.approx(0.25 + 0.1j)
    coeff, p, q = spec.vn_terms[0]
    assert coeff == 1.0 + 0j
    assert p.letters() == (1,) and q.is_identity


def test_run_report_graph_suite():
    spec = parse_problem(json.dumps(toy_problem()))
    code, doc = run_report(spec, "graph")
    assert code == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] == 1
    params = doc["reports"][0]["parameters"]
    assert params["complement_components"] == [[1, 2, 3], [4]]
    assert params["clique_number"] == 3
    assert len(params["cliques"]) == 10


def test_run_report_requires_family_for_brehmer():
    spec = parse_problem(json.dumps(toy_problem()))
    with pytest.raises(ValidationError):
        run_report(spec, "brehmer")
    with pytest.raises(ValidationError):
        run_report(spec, "nonsense")


def test_run_report_failing_family():
    doc = {
        "graph": {"n": 2, "edges": []},
        "family": {
            "dim": 2,
            "matrices": [{"re": np.eye(2).tolist()}, {"re": np.eye(2).tolist()}],
        },
    }
    spec = parse_problem(json.dumps(doc))
    code, rep = run_report(spec, "brehmer")
    assert code == 1
    assert rep["summary"]["failed"] >= 1


def test_run_report_inconclusive_only():
    doc = {
        "graph": {"n": 1, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[1.0]]}]},
        "options": {"truncation": 8, "r_grid": [0.5]},
        "vn_terms": [
            {"re": 1.0, "p": "g1", "q": "id"},
            {"re": 1.0, "p": "id", "q": "g1"},
        ],
    }
    spec = parse_problem(json.dumps(doc))
    code, rep = run_report(spec, "poisson")
    assert code == 2
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["inconclusive"] == 1


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_poisson_reports_refuted_radius(tmp_path, capsys):
    # one vertex, T = 1.2: the defect 1 - 1.44 r^2 is positive at r = 0.5
    # and negative at r = 0.9, where the kernel check fails with a reason
    doc = {
        "graph": {"n": 1, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[1.2]]}]},
        "options": {"truncation": 24, "r_grid": [0.5, 0.9]},
    }
    src = write_problem(tmp_path, doc)
    out = tmp_path / "rep.json"
    assert main(["poisson", "--input", src, "--out", str(out)]) == 1
    reports = json.loads(out.read_text())["reports"]
    at_half = [rep for rep in reports if rep["parameters"].get("r") == 0.5]
    assert [rep["name"] for rep in at_half] == [
        "kernel_isometry",
        "unit_resolution",
        "poisson_reproduce",
    ]
    assert all(rep["passed"] for rep in at_half)
    refuted = [rep for rep in reports if rep["parameters"].get("r") == 0.9]
    assert len(refuted) == 1
    assert refuted[0]["name"] == "kernel_isometry"
    assert not refuted[0]["passed"]
    assert "eigenvalue" in refuted[0]["parameters"]["reason"]

    # two free unit scalars refute P at r = 0.9 as well: a report, not bad input
    doc = {
        "graph": {"n": 2, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[1.0]]}, {"re": [[1.0]]}]},
        "options": {"r_grid": [0.5, 0.9]},
    }
    src = write_problem(tmp_path, doc, "free.json")
    out = tmp_path / "free-rep.json"
    assert main(["poisson", "--input", src, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"]["exit_code"] == 1
    capsys.readouterr()


def test_main_fixture_suite_and_determinism(tmp_path, capsys):
    src = write_problem(
        tmp_path, {"graph": TOY, "options": {"truncation": 2, "r_grid": [0.5, 0.9]}}
    )
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["fixtures", "--input", src, "--out", out1]) == 0
    assert main(["fixtures", "--input", src, "--out", out2]) == 0
    captured = capsys.readouterr().out
    assert "passed" in captured
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    doc = json.loads((tmp_path / "r1.json").read_text())
    assert doc["summary"]["failed"] == 0


def test_main_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["graph", "--input", missing]) == 4
    bad = write_problem(tmp_path, {"graph": {"n": 2}}, "bad.json")
    assert main(["graph", "--input", bad]) == 4
    src = write_problem(tmp_path, {"graph": TOY})
    assert main(["graph", "--input", src]) == 0
    capsys.readouterr()


def test_main_flag_overrides(tmp_path, capsys):
    src = write_problem(tmp_path, {"graph": TOY})
    out = str(tmp_path / "rep.json")
    code = main(
        ["identities", "--input", src, "--suite-tol", "1e-6", "--truncation", "2", "--out", out]
    )
    assert code == 0
    for bad in ("-1", "nan", "inf"):
        assert main(["identities", "--input", src, "--suite-tol", bad]) == 4
    capsys.readouterr()


def test_main_guard_env(tmp_path, capsys, monkeypatch):
    src = write_problem(tmp_path, {"graph": TOY, "options": {"truncation": 3}})
    monkeypatch.setenv("RAAMKIT_GUARD", "3")
    assert main(["fixtures", "--input", src]) == 4
    monkeypatch.setenv("RAAMKIT_GUARD", "not-a-number")
    assert main(["graph", "--input", src]) == 4
    capsys.readouterr()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_problem() -> dict:
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def test_readme_example_passes_all(tmp_path, capsys):
    src = write_problem(tmp_path, readme_problem())
    out = tmp_path / "rep.json"
    assert main(["all", "--input", src, "--truncation", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["failed"] == 0
    capsys.readouterr()


def _set(path, value):
    def mutate(doc):
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        node[last] = value
        return doc

    return mutate


def _one_vertex(doc):
    # on the README graph n = true already fails on the edge [1, 2];
    # with no edges only the bool itself can be refused
    return {
        "graph": {"n": True, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[0.5]]}]},
    }


BAD_INPUTS = {
    "nan-entry": _set(["family", "matrices", 0, "re", 0, 0], float("nan")),
    "inf-entry": _set(["family", "matrices", 2, "im"], [[0.0, float("inf")], [0.0, 0.0]]),
    "ragged-re": _set(["family", "matrices", 1, "re"], [[0.4, 0.0], [0.2]]),
    "string-re": _set(["family", "matrices", 1, "re"], "x"),
    "bool-entry": _set(["family", "matrices", 0, "re", 0, 0], True),
    "huge-int": _set(["family", "matrices", 0, "re", 0, 0], 10**400),
    "vn-re-string": _set(["vn_terms", 0, "re"], "x"),
    "vn-p-number": _set(["vn_terms", 0, "p"], 1),
    "tol-nan": _set(["options", "tol"], float("nan")),
    "tol-inf": _set(["options", "tol"], float("inf")),
    "truncation-true": _set(["options", "truncation"], True),
    "guard-true": _set(["options", "guard"], True),
    "radius-false": _set(["options", "r_grid"], [False, 0.5]),
    "dim-true": _set(["family", "dim"], True),
    "edge-vertex-true": _set(["graph", "edges", 0], [True, 2]),
    "n-true": _one_vertex,
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_main_bad_input_exits_4_with_one_line(case, tmp_path, capsys):
    doc = BAD_INPUTS[case](copy.deepcopy(readme_problem()))
    src = write_problem(tmp_path, doc)
    assert main(["poisson", "--input", src, "--truncation", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_int_beyond_digit_limit_exits_4_with_one_line(tmp_path, capsys):
    # json.loads refuses ints of more than 4300 digits with a ValueError
    text = json.dumps(readme_problem()).replace('"truncation": 4', '"truncation": 1' + "0" * 5000)
    src = tmp_path / "problem.json"
    src.write_text(text)
    assert main(["poisson", "--input", str(src)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_suite_tol_reaches_every_poisson_check(tmp_path, capsys):
    doc = {
        "graph": {"n": 1, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[0.5]]}]},
        "options": {"truncation": 8, "r_grid": [0.5]},
    }
    src = write_problem(tmp_path, doc)
    out = tmp_path / "rep.json"
    main(["poisson", "--input", src, "--suite-tol", "1e-6", "--out", str(out)])
    tols = {
        rep["name"]: rep["parameters"]["tol"]
        for rep in json.loads(out.read_text())["reports"]
        if rep["name"] in ("unit_resolution", "poisson_reproduce")
    }
    assert tols == {"unit_resolution": 1e-6, "poisson_reproduce": 1e-6}
    capsys.readouterr()


def test_main_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import raamkit.cli

    def broken(spec):
        raise RuntimeError("suite broke\non two lines")

    monkeypatch.setattr(raamkit.cli, "_suite_graph", broken)
    src = write_problem(tmp_path, {"graph": TOY})
    assert main(["graph", "--input", src]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: suite broke on two lines\n"


def test_main_unwritable_out_exits_4_with_one_line(tmp_path, capsys):
    src = write_problem(tmp_path, {"graph": TOY})
    out = tmp_path / "no-such-dir" / "rep.json"
    assert main(["graph", "--input", src, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_lets_interrupts_through(tmp_path, capsys, monkeypatch):
    import raamkit.cli

    def interrupted(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(raamkit.cli, "_suite_graph", interrupted)
    src = write_problem(tmp_path, {"graph": TOY})
    with pytest.raises(KeyboardInterrupt):
        main(["graph", "--input", src])
    capsys.readouterr()
