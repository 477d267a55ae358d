import json

import pytest

from fpoly import polytope, stabilization
from fpoly.cli import main
from fpoly.errors import InvariantViolation
from fpoly.polynomial import MultiPoly, f_polynomial
from fpoly.quiver import Quiver, kronecker_quiver
from fpoly.rep import RepRecipe

CYCLE4 = Quiver(("1", "2", "3", "4"),
                ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2)))


@pytest.fixture
def k2_json(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(kronecker_quiver(2).to_json()))
    return str(path)


@pytest.fixture
def k3_json(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(kronecker_quiver(3).to_json()))
    return str(path)


@pytest.fixture
def cycle4_json(tmp_path):
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps(CYCLE4.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_compute_matches_library(capsys, k2_json):
    code, out = run(capsys, "compute", "--quiver", k2_json, "--dims", "2,3")
    assert code == 0
    report = json.loads(out)
    expected = f_polynomial(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    assert MultiPoly.from_json(report["fpoly"]) == expected
    assert report["dims"] == [2, 3]


def test_compute_output_is_deterministic(capsys, k2_json, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _ = run(capsys, "compute", "--quiver", k2_json,
                      "--dims", "2,3", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_subdims(capsys, k2_json):
    code, out = run(capsys, "subdims", "--quiver", k2_json, "--dims", "1,2",
                    "--prime", "5")
    assert code == 0
    report = json.loads(out)
    assert report["subdims"] == [[0, 0], [0, 1], [0, 2], [1, 2]]


def test_mutate_by_delta(capsys, cycle4_json):
    code, out = run(capsys, "mutate", "--quiver", cycle4_json,
                    "--seq", "3,4,1,2", "--delta=-1,1,1,0")
    assert code == 0
    report = json.loads(out)
    poly = MultiPoly.from_json(report["fpoly"])
    assert len(poly) == 17
    assert max(poly.terms, key=sum) == (2, 1, 3, 1)


def test_mutate_all_slots(capsys, k2_json):
    code, out = run(capsys, "mutate", "--quiver", k2_json, "--seq", "2,1")
    assert code == 0
    report = json.loads(out)
    assert len(report["slots"]) == 2
    for slot in report["slots"]:
        assert MultiPoly.from_json(slot["fpoly"]).constant_term() == 1


def test_polytope_from_recipe(capsys, k2_json):
    code, out = run(capsys, "polytope", "--quiver", k2_json, "--dims", "2,3")
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == [[0, 0], [0, 3], [2, 3]]


def test_polytope_from_fpoly_file(capsys, tmp_path):
    poly = f_polynomial(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(poly.to_json()))
    code, out = run(capsys, "polytope", "--fpoly", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["source"] == "fpoly"
    assert report["vertices"] == [[0, 0], [0, 3], [2, 3]]


def test_verify_vertices_ok(capsys, k2_json):
    code, out = run(capsys, "verify", "--what", "vertices", "--strict",
                    "--quiver", k2_json, "--dims", "2,3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_saturation_failure_is_exit_1_under_strict(capsys, k3_json):
    code, out = run(capsys, "verify", "--what", "saturation", "--strict",
                    "--quiver", k3_json, "--dims", "3,4")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["report"]["sublattice_witnesses"] == [[2, 3]]
    # without --strict the same failing check still exits 0
    code, _ = run(capsys, "verify", "--what", "saturation",
                  "--quiver", k3_json, "--dims", "3,4")
    assert code == 0


def test_verify_cones(capsys, k2_json):
    code, out = run(capsys, "verify", "--what", "cones", "--strict",
                    "--quiver", k2_json, "--dims", "2,3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_facets(capsys, k2_json):
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and not report["report"]["witnesses"]


def test_exit_code_cost_cap(capsys, k2_json):
    code, _ = run(capsys, "subdims", "--quiver", k2_json, "--dims", "9,9")
    assert code == 2


def test_exit_code_non_polynomial_count(capsys, k3_json):
    code, _ = run(capsys, "compute", "--quiver", k3_json, "--dims", "3,4")
    assert code == 3


def test_exit_code_not_generic(capsys, k3_json):
    # Seed 0 of K3 (2,2) has different sub-dimension sets at p = 2 and 3.
    code = main(["polytope", "--quiver", k3_json, "--dims", "2,2", "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_cones_disagreement_is_a_failed_check(capsys, monkeypatch, k2_json):
    square = polytope.convex_hull([(0, 0), (0, 1), (1, 0), (1, 1)])
    monkeypatch.setattr(stabilization, "polytope_from_inequalities",
                        lambda facets, ambient: square)
    code, out = run(capsys, "verify", "--what", "cones", "--strict",
                    "--quiver", k2_json, "--dims", "2,3")
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    [witness] = report["report"]["witnesses"]
    assert witness.startswith("cone reconstruction disagrees with the direct "
                              "hull; witness facets: [")


def test_exit_code_invariant_violation(capsys, monkeypatch, k2_json):
    def broken(rows):
        raise InvariantViolation("zero ray; the cone is not pointed")

    monkeypatch.setattr(polytope, "_cone_rays", broken)
    code = main(["verify", "--what", "cones", "--strict",
                 "--quiver", k2_json, "--dims", "2,3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: zero ray; the cone is not pointed\n"


def test_rep_file_roundtrip(capsys, tmp_path):
    recipe = RepRecipe(kronecker_quiver(2), (2, 2),
                       int_matrices=(((1, 0), (0, 1)), ((0, 0), (0, 1))))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(recipe.to_json()))
    code, out = run(capsys, "compute", "--rep", str(path))
    assert code == 0
    poly = MultiPoly.from_json(json.loads(out)["fpoly"])
    assert poly == f_polynomial(recipe)
