import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import fpoly
from fpoly import cli, grassmannian, polynomial, polytope, rep, stabilization
from fpoly.cli import main
from fpoly.errors import InvariantViolation, NonPolynomialCount
from fpoly.polynomial import MultiPoly, f_polynomial
from fpoly.quiver import Quiver, cycle_quiver, kronecker_quiver, unit_vector
from fpoly.rep import RepRecipe
from test_stabilization import B_F4, BB_F4

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


def test_mutate_delta_does_not_depend_on_the_path(capsys, tmp_path):
    # On A3 (1 -> 2 -> 3) the delta-vector (1, 0, -1) is the Euler row of
    # dimension (1, 1, 0); after 1,2,3,1,2,3,1,2 no slot holds that variable.
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(Quiver(("1", "2", "3"), ((0, 1), (1, 2))).to_json()))
    code, out = run(capsys, "mutate", "--quiver", str(path), "--seq", "1,2", "--delta=1,0,-1")
    assert code == 0
    assert json.loads(out)["pretty"] == "1 + y2 + y1*y2"
    code = main(["mutate", "--quiver", str(path), "--seq", "1,2,3,1,2,3,1,2",
                 "--delta=1,0,-1"])
    assert code == 6
    assert "no cluster variable with delta-vector (1, 0, -1)" in capsys.readouterr().err


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


@pytest.mark.parametrize("dims,rigid", [("1,1", False), ("2,2", False),
                                         ("3,3", False), ("1,2", True),
                                         ("2,3", True)])
def test_verify_vertices_rigid_verdict(capsys, k2_json, dims, rigid):
    # (n,n) over the Kronecker quiver is an isotropic root: not rigid, so
    # the perpendicularity test, which holds only for rigid M, is skipped.
    code, out = run(capsys, "verify", "--what", "vertices", "--strict",
                    "--quiver", k2_json, "--dims", dims, "--seed", "0")
    report = json.loads(out)["report"]
    assert code == 0 and report["rigid"] is rigid and not report["witnesses"]


@pytest.mark.parametrize("quiver,dims,matrices,rigid", [
    pytest.param(Quiver(("1", "2"), ((0, 1),)), (1, 1), (((0,),),), False,
                 id="0-False"),
    pytest.param(Quiver(("1", "2"), ((0, 1),)), (1, 1), (((1,),),), True,
                 id="1-True"),
    pytest.param(kronecker_quiver(3), (2, 1), (((0, 0),), ((0, -2),), ((3, 1),)),
                 False, id="k3-mod-5-False")])
def test_explicit_vertex_report_is_rigid_only_where_the_matrices_are(
        capsys, tmp_path, quiver, dims, matrices, rigid):
    # A2 (1,1) with the zero arrow is S1 + S2, which is not rigid, so the
    # perpendicularity test is skipped.  Rigidity read off the dimension
    # vector alone called it rigid, and that test then failed at (1,0).
    # The nonzero arrow gives the rigid projective P1.  The K3 functionals
    # span a line mod 2 and 3 but the plane mod 5, which is another module:
    # its hull is certified at 2 and 3, so its vertices are counted there.
    recipe = RepRecipe(quiver, dims, int_matrices=matrices)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(recipe.to_json()))
    code, out = run(capsys, "verify", "--what", "vertices", "--strict",
                    "--rep", str(path))
    report = json.loads(out)["report"]
    assert code == 0 and report["rigid"] is rigid and not report["witnesses"]


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


def test_verify_cones_has_no_dimension_cap(capsys, tmp_path):
    # A7 has 7 vertices; the double description runs in any dimension.
    a7 = Quiver(tuple(str(v + 1) for v in range(7)),
                tuple((v, v + 1) for v in range(6)))
    path = tmp_path / "a7.json"
    path.write_text(json.dumps(a7.to_json()))
    code, out = run(capsys, "verify", "--what", "cones", "--strict",
                    "--quiver", str(path), "--dims", "1,1,1,1,1,1,1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_facets(capsys, k2_json):
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and not report["report"]["witnesses"]


@pytest.mark.parametrize("dims", ["2,3", "3,4", "2,2"])
def test_compute_reports_the_primes_counted(capsys, monkeypatch, k2_json, dims):
    # K2 (2,3) and (3,4) are rigid and take the palindromic fit; the
    # isotropic (2,2) is counted at the box bound.
    counted = set()
    real_table = polynomial.subrep_counts

    def spy_table(m_rep):
        counted.add(m_rep.p)
        return real_table(m_rep)

    monkeypatch.setattr(polynomial, "subrep_counts", spy_table)
    code, out = run(capsys, "compute", "--quiver", k2_json, "--dims", dims)
    assert code == 0
    assert json.loads(out)["primes"] == sorted(counted)


def test_parser_is_built_once_and_keeps_no_options(capsys, k2_json, k3_json,
                                                    tmp_path):
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--what", "vertices", "--strict",
                    "--out", str(path), "--seed", "3",
                    "--quiver", k2_json, "--dims", "2,2")
    assert code == 0 and out == ""
    written = path.read_text()
    assert json.loads(written)["instance"]["seed"] == 3
    # The next call fails its check, but without --strict it exits 0,
    # prints its report and uses the default seed.
    code, out = run(capsys, "verify", "--what", "saturation",
                    "--quiver", k3_json, "--dims", "3,4")
    report = json.loads(out)
    assert code == 0 and report["pass"] is False
    assert report["instance"]["seed"] == 0
    assert path.read_text() == written


def test_exit_code_cost_cap(capsys, monkeypatch, k2_json):
    draws = []
    monkeypatch.setattr(rep, "random_representation",
                        lambda *args: draws.append(args))
    code = main(["subdims", "--quiver", k2_json, "--dims", "9,9"])
    err = capsys.readouterr().err
    assert code == 2 and not draws
    assert err.startswith("error: dimension vector (9, 9) exceeds the fixed "
                          "enumeration cap") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["compute"], ["subdims"], ["polytope"],
                                     ["verify", "--what", "facets"],
                                     ["verify", "--what", "saturation"]])
@pytest.mark.parametrize("matrices", [None, {"0": [[0] * 9] * 9, "1": [[0] * 9] * 9}])
def test_over_cap_rep_file_is_exit_2(capsys, monkeypatch, tmp_path, k2_json,
                                     command, matrices):
    # A --rep file over the cap fails as --dims does: the recipe cannot be
    # built, so nothing is drawn and one error line is printed.
    draws = []
    monkeypatch.setattr(rep, "random_representation",
                        lambda *args: draws.append(args))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**kronecker_quiver(2).to_json(), "dims": [9, 9],
                                **({"matrices": matrices} if matrices else {})}))
    errors = []
    for source in (["--rep", str(path)], ["--quiver", k2_json, "--dims", "9,9"]):
        code = main(command + source)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not draws
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        "error: dimension vector (9, 9) exceeds the fixed enumeration cap "
        "(8 per vertex, 16 total)\n")


@pytest.mark.parametrize("command", [["polytope"], ["verify", "--what", "cones"],
                                     ["verify", "--what", "vertices"],
                                     ["verify", "--what", "saturation"]])
def test_seeded_sub_dims_on_a_quiver_with_a_cycle_are_exit_4(capsys, tmp_path, command):
    # Draws mod 2 and 3 can agree on the set of a module that is not
    # general, as they do at 7 of these 40 seeds, so no seeded set is
    # certified.  Explicit matrices are still counted and certified.
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(cycle_quiver(3).to_json()))
    for seed in range(40):
        code = main(command + ["--quiver", str(path), "--dims", "1,1,1", "--seed", str(seed)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == ("error: a seeded recipe on a quiver with a cycle has no "
                                "certified sub-dimension set; pass explicit int_matrices\n")
    uniserial = RepRecipe(cycle_quiver(3), (1, 1, 1), int_matrices=(((1,),), ((1,),), ((0,),)))
    path.write_text(json.dumps(uniserial.to_json()))
    assert run(capsys, *command, "--rep", str(path))[0] == 0


@pytest.mark.parametrize("argv", [
    ["compute", "--quiver", "{k2}", "--dims", "2"],
    ["compute", "--quiver", "{k2}", "--dims", "2,-1"],
    ["compute", "--quiver", "{k2}", "--dims", "2,x"],
    ["compute", "--quiver", "{bad_arrow}", "--dims", "1,1"],
    ["compute", "--quiver", "{missing}", "--dims", "1,1"],
    ["compute", "--quiver", "{not_json}", "--dims", "1,1"],
    ["compute", "--dims", "1,1"],
    ["polytope", "--fpoly", "{not_json}"],
    ["mutate", "--quiver", "{k2}", "--seq", "5"],
    ["mutate", "--quiver", "{k2}", "--seq", "1", "--delta", "7,7"],
    ["mutate", "--seq", "1"],
    ["subdims", "--quiver", "{k2}", "--dims", "1,1", "--prime", "0"],
    ["subdims", "--quiver", "{k2}", "--dims", "1,1", "--prime", "1"],
    ["subdims", "--quiver", "{k2}", "--dims", "1,1", "--prime", "4"],
    ["subdims", "--quiver", "{k2}", "--dims", "1,1", "--prime", "x"],
    ["subdims", "--quiver", "{k2}", "--dims", "1,1", "--out", "{missing}/out.json"],
    ["verify", "--what", "everything", "--quiver", "{k2}", "--dims", "1,1"],
    ["no-such-command"],
    ["compute", "--rep", "{bad_shape}"],
    ["verify", "--what", "facets", "--fpoly", "{f3}", "--quiver", "{k2}", "--dims", "1,1"],
    ["mutate", "--quiver", "{two_cycle}", "--seq", "1"],
    ["mutate", "--quiver", "{loop}", "--seq", "1"],
    ["verify", "--what", "vertices", "--fpoly", "{f2}", "--quiver", "{k2}", "--dims", "1,1"],
    ["polytope", "--fpoly", "{f0}"],
    ["verify", "--what", "facets", "--fpoly", "{f0}", "--quiver", "{k2}", "--dims", "1,1"],
    ["mutate", "--quiver", "{k2}", "--seq", "1,2", "--dims", "9,9", "--seed", "5",
     "--rep", "{missing}"],
    ["polytope", "--fpoly", "{f2}", "--dims", "9,9,9", "--rep", "{missing}"],
    ["polytope", "--fpoly", "{f2}", "--seed", "0"],
    ["compute", "--rep", "{rep}", "--seed", "5", "--dims", "9,9", "--quiver", "{missing}"],
    ["compute", "--rep", "{rep}", "--quiver", "{k2}"],
    ["subdims", "--rep", "{rep}", "--dims", "1,2"],
    ["polytope", "--rep", "{rep}", "--seed", "3"],
    ["verify", "--what", "cones", "--rep", "{rep}", "--seed", "0"],
    ["compute", "--quiver", "{double}", "--dims", "1,1"],
])
def test_exit_code_invalid_input(capsys, tmp_path, k2_json, argv):
    bad_arrow = tmp_path / "bad_arrow.json"
    bad_arrow.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [["1", "3"]]}))
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    # A quiver encoded twice: a JSON string that holds the quiver's JSON.
    double = tmp_path / "double.json"
    double.write_text(json.dumps(json.dumps(kronecker_quiver(2).to_json())))
    # K2 with dims (1,2) needs 2x1 matrices; these are 1x2.
    bad_shape = tmp_path / "bad_shape.json"
    bad_shape.write_text(json.dumps({**kronecker_quiver(2).to_json(), "dims": [1, 2],
                                     "matrices": {"0": [[1, 0]], "1": [[0, 1]]}}))
    # A well-formed seeded recipe, which takes no recipe option beside it.
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({**kronecker_quiver(2).to_json(), "dims": [1, 2], "seed": 3}))
    # A 3-variable polynomial for the 2-vertex Kronecker quiver.
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps(MultiPoly(3, {(0, 0, 0): 1, (1, 1, 1): 1}).to_json()))
    # A well-formed F of K2 (1,1), which only the facet check reads.
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps(MultiPoly(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1}).to_json()))
    # Every coefficient 0: the zero polynomial, which has no Newton polytope.
    f0 = tmp_path / "f0.json"
    f0.write_text(json.dumps([{"exp": [0, 0], "coef": "0"}, {"exp": [1, 1], "coef": "0"}]))
    # Quivers that an exchange matrix cannot record: 1 -> 2 -> 1 plus
    # 1 -> 2 would cancel to A2, and a loop would vanish.
    two_cycle = tmp_path / "two_cycle.json"
    two_cycle.write_text(json.dumps(Quiver(("1", "2"), ((0, 1), (1, 0), (0, 1))).to_json()))
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(Quiver(("1", "2"), ((0, 0), (0, 1))).to_json()))
    paths = {"k2": k2_json, "bad_arrow": bad_arrow, "not_json": not_json,
             "bad_shape": bad_shape, "f0": f0, "f2": f2, "f3": f3, "missing": tmp_path / "missing.json",
             "two_cycle": two_cycle, "loop": loop, "rep": rep_file, "double": double}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 6 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_exit_code_non_polynomial_count(capsys, k3_json):
    code, _ = run(capsys, "compute", "--quiver", k3_json, "--dims", "3,4")
    assert code == 3


def test_exit_code_non_polynomial_count_of_a_non_rigid_root(capsys, k3_json):
    # <(2,3), (2,3)> = -5 over the 3-arrow Kronecker quiver: counted at
    # the box bound, the counts of seed 0 are not polynomial.
    code, out = run(capsys, "compute", "--quiver", k3_json, "--dims", "2,3")
    assert code == 3 and out == ""


def test_exit_code_not_generic(capsys, tmp_path):
    # Explicit K2 (1,1) matrices [[2]] and [[4]] vanish mod 2, where (1,0)
    # is a sub-dimension vector, but not mod 3, where it is not.
    recipe = RepRecipe(kronecker_quiver(2), (1, 1), int_matrices=(((2,),), ((4,),)))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(recipe.to_json()))
    code = main(["polytope", "--rep", str(path)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_saturation_of_a_seeded_rigid_recipe_whose_draws_fail_exits_4(
        capsys, monkeypatch, k2_json):
    # K2 (2,3) is rigid, so its support is counted, and the count needs a
    # draw; none is found, and the error is not read as a skipped check.
    monkeypatch.setattr(rep, "DRAW_ATTEMPTS", 0)
    rep._generic_draw.cache_clear()
    code = main(["verify", "--what", "saturation", "--quiver", k2_json,
                 "--dims", "2,3", "--seed", "41"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_seeded_non_rigid_hull_is_the_generic_one(capsys, k3_json):
    """A seeded recipe on an acyclic quiver takes the hull of S(alpha), so
    non-rigid K3 inputs whose seed-0 draws differ mod 2 and 3 pass."""
    def report(dims, *argv):
        code, out = run(capsys, *argv, "--quiver", k3_json, "--dims", dims, "--seed", "0")
        assert code == 0
        return json.loads(out)

    assert report("2,2", "polytope")["vertices"] == [[0, 0], [0, 2], [2, 2]]
    hull = [[0, 0], [0, 4], [3, 4]]
    assert report("3,4", "polytope")["vertices"] == hull
    cones = report("3,4", "verify", "--what", "cones", "--strict")
    assert cones["report"]["polytope"]["vertices"] == hull
    vertices = report("3,4", "verify", "--what", "vertices", "--strict")
    assert vertices["report"]["vertices"] == hull


# A hull with the facet x - y <= 1, through neither 0 nor (3, 3).  The
# round trip that the cones check replaced rebuilt from the weight cones a
# polytope with the vertex (3, 3/2) and raised ValueError.
STRAY_FACET_POINTS = {(0, 0), (0, 1), (0, 3), (2, 1), (3, 2), (3, 3)}


def test_verify_cones_disagreement_is_a_failed_check(capsys, monkeypatch, k2_json):
    monkeypatch.setattr(stabilization, "sub_dim_vectors",
                        lambda recipe: STRAY_FACET_POINTS)
    code, out = run(capsys, "verify", "--what", "cones", "--strict",
                    "--quiver", k2_json, "--dims", "3,3")
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["report"]["witnesses"] == [
        "facets through neither 0 nor dim M: [((1, -1), 1)]"]


def test_exit_code_invariant_violation(capsys, monkeypatch, k2_json):
    def broken(rows):
        raise InvariantViolation("zero ray; the cone is not pointed")

    monkeypatch.setattr(polytope, "_cone_rays", broken)
    code = main(["verify", "--what", "cones", "--strict",
                 "--quiver", k2_json, "--dims", "2,3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: zero ray; the cone is not pointed\n"


def test_exit_code_invariant_violation_in_mutate(capsys, monkeypatch, k2_json):
    monkeypatch.setattr(MultiPoly, "constant_term", lambda self: 0)
    code = main(["mutate", "--quiver", k2_json, "--seq", "1"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: mutated F-polynomial lost its unit constant term\n"


def test_closed_standard_output_is_exit_6(k2_json):
    # The pipe has no reader, so the report's write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(fpoly.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fpoly.cli", "compute", "--quiver", k2_json,
             "--dims", "1,2"], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 6
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_verify_facets_draws_and_searches_each_representation_once(
        capsys, monkeypatch, k2_json):
    draws, searched = [], []
    real_draw = rep.random_representation
    real_search = grassmannian.subrep_dim_vectors

    def spy_draw(quiver, dims, p, rng):
        # The state of a stable_rng is fixed by its (seed, p, attempt).
        draws.append((dims, p, rng.getstate()))
        return real_draw(quiver, dims, p, rng)

    def spy_search(m_rep):
        searched.append(m_rep)
        return real_search(m_rep)

    monkeypatch.setattr(rep, "random_representation", spy_draw)
    for module in (grassmannian, stabilization, cli):
        monkeypatch.setattr(module, "subrep_dim_vectors", spy_search)
    rep._generic_draw.cache_clear()
    grassmannian.subrep_counts.cache_clear()
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,3")
    assert code == 0 and json.loads(out)["pass"] is True
    assert draws and len(set(draws)) == len(draws)
    assert len(searched) > len(set(searched))
    assert grassmannian.subrep_counts.cache_info().misses == len(set(searched))


def test_verify_facets_filters_once_per_facet_and_eliminates_once_per_degree(
        capsys, monkeypatch, k2_json):
    """A work-count guard: the stable filtration of each facet's perp runs
    at the base prime only, each facet makes one elimination of its stable
    dimension vectors, and each fit of count tables makes one elimination
    per distinct degree of its keys."""
    filtered, fits, iota_solves = [], [], []
    real_filter, real_fit, real_solver = (stabilization.stable_factors,
                                          polynomial.fit_tables, polynomial.solver)

    def spy_filter(w_rep, delta):
        filtered.append(w_rep.p)
        return real_filter(w_rep, delta)

    def spy_fit(tables, degree, palindromic):
        keys, degrees = set(), set()
        fits.append([keys, degrees, 0])

        def recorded(key):
            keys.add(key)
            degrees.add(degree(key))
            return degree(key)
        return real_fit(tables, recorded, palindromic)

    def spy_solver(rows, ncols):
        fits[-1][2] += 1
        return real_solver(rows, ncols)

    def spy_iota_solver(rows, ncols):
        iota_solves.append(rows)
        return real_solver(rows, ncols)

    monkeypatch.setattr(stabilization, "stable_factors", spy_filter)
    for module in (polynomial, stabilization):
        monkeypatch.setattr(module, "fit_tables", spy_fit)
    monkeypatch.setattr(polynomial, "solver", spy_solver)
    monkeypatch.setattr(stabilization, "solver", spy_iota_solver)
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,3", "--seed", "0")
    assert code == 0
    facets = json.loads(out)["report"]["facets"]
    assert filtered == [stabilization.BASE_PRIME] * len(facets)
    assert len(iota_solves) == len(facets)
    # F and one graded polynomial per facet; F has keys of equal degree.
    assert len(fits) == len(facets) + 1
    assert [len(degrees) for _, degrees, _ in fits] == [n for _, _, n in fits]
    assert any(len(keys) > len(degrees) for keys, degrees, _ in fits)


def _patched_perp(monkeypatch, prime, perp):
    """Make ``torsion_split`` at ``prime`` return ``perp(m_rep, delta)``
    as the perp."""
    real = stabilization.torsion_split

    def split(m_rep, delta):
        out = real(m_rep, delta)
        if m_rep.p != prime:
            return out
        return stabilization.TorsionSplit(out.l_min, out.l_max, perp(m_rep, delta))

    monkeypatch.setattr(stabilization, "torsion_split", split)


def test_facet_perp_of_other_dims_at_a_later_prime_is_exit_3(capsys, monkeypatch,
                                                             k2_json):
    # The zero representation is semistable, but not of the base prime's w.
    _patched_perp(monkeypatch, 3,
                  lambda m_rep, delta: rep.zero_representation(m_rep.quiver, 3))
    code = main(["verify", "--what", "facets", "--strict",
                 "--quiver", k2_json, "--dims", "2,3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: perp or stable classes at p=3 do not match "
                            "the base prime\n")


@pytest.mark.parametrize("recipe", [B_F4, BB_F4], ids=["b", "bb"])
def test_a_later_perp_outside_the_base_cone_is_exit_3(capsys, tmp_path, recipe):
    # The perp at (1,-1) is B or B + B, of the one stable class B mod 2.
    # B mod 5 has a (1,1) subrepresentation: delta-null, and outside the
    # cone of (2,2), so the reductions differ and the count is not one
    # polynomial.  (1 + y2 + y1 y2)^2 has the facet (1,-1).
    rep_path, f_path = tmp_path / "rep.json", tmp_path / "f.json"
    rep_path.write_text(json.dumps(recipe.to_json()))
    f = MultiPoly(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    f_path.write_text(json.dumps((f * f).to_json()))
    code = main(["verify", "--what", "facets", "--rep", str(rep_path),
                 "--fpoly", str(f_path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: perp or stable classes at p=5 do not match "
                            "the base prime\n")


def test_a_base_perp_outside_the_stable_cone_is_exit_5(capsys, monkeypatch, k2_json):
    # At the base prime a delta-null dimension vector outside the cone of
    # its own stable classes is a bug, not a mismatch.
    def missing(rows, ncols, real=stabilization.solver):
        solve = real(rows, ncols)
        return solve and (lambda gamma: None)

    monkeypatch.setattr(stabilization, "solver", missing)
    code = main(["verify", "--what", "facets", "--strict",
                 "--quiver", k2_json, "--dims", "2,3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: semistable dimension vector not in the stable lattice\n"


@pytest.mark.parametrize("prime", [2, 3])
def test_facet_perp_that_is_not_semistable_is_exit_5(capsys, monkeypatch, k2_json,
                                                     prime):
    # A simple at a vertex of nonzero weight is not delta-null.
    def simple(m_rep, delta):
        vertex = next(v for v, d in enumerate(delta) if d)
        return rep.random_representation(m_rep.quiver, unit_vector(2, vertex),
                                         prime, random.Random(0))

    _patched_perp(monkeypatch, prime, simple)
    code = main(["verify", "--what", "facets", "--strict",
                 "--quiver", k2_json, "--dims", "2,3"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == (f"error: perp at p={prime} is not semistable "
                            "for this weight\n")


def test_invalid_subrepresentation_is_a_broken_invariant(capsys, monkeypatch, k2_json,
                                                        tmp_path):
    # The command line takes no subspaces, so subspaces that are not a
    # subrepresentation come from a bug (here in torsion_split).  Besides
    # K2 (2,3), A2 (2,2) with the arrow [[1,0],[1,0]] has the facet
    # (1,-1), h = 1, whose L_min = (1,0) and L_max = (2,1) are neither 0
    # nor M, so the fault is met with no trivial extreme too.
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(RepRecipe(Quiver(("1", "2"), ((0, 1),)), (2, 2),
                                         int_matrices=(((1, 0), (1, 0)),)).to_json()))
    monkeypatch.setattr(rep, "is_arrow_stable", lambda *args: False)
    for source in (["--quiver", k2_json, "--dims", "2,3"], ["--rep", str(path)]):
        code = main(["verify", "--what", "facets", "--strict"] + source)
        captured = capsys.readouterr()
        assert code == 5 and captured.out == "", source
        assert captured.err == "error: subspaces are not stable under the arrows\n", source


# sha256 of the standard output of verify --what facets --strict --seed 0.
FACET_REPORTS = (
    (kronecker_quiver(2), "2,3",
     "78ae2376278916a38255cfc33bfa9478d21380b65b154a9813b2e5e0952e270f"),
    (Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2))), "2,1,1",
     "bab8cddf560e3b2e0001caf8f3d8ce72a37e14d7cf86d3c220064824e2a335f2"),
)


@pytest.mark.parametrize("quiver, dims, digest", FACET_REPORTS)
def test_facet_reports_are_byte_identical(capsys, tmp_path, quiver, dims, digest):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_json()))
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", str(path), "--dims", dims, "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_counts_read_one_table_per_prime(capsys, monkeypatch, k2_json):
    """A work-count guard: a rigid facet check reads its counts from the
    per-representation tables, and a box-bound fit of F stops at the
    first prime where a count fits no integer polynomial."""
    tables = []
    real_table = grassmannian.subrep_counts

    def spy_table(m_rep):
        tables.append(m_rep)
        return real_table(m_rep)

    for module in (grassmannian, polynomial, stabilization):
        monkeypatch.setattr(module, "subrep_counts", spy_table)
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,3", "--seed", "0")
    assert code == 0 and json.loads(out)["pass"] is True
    assert tables

    del tables[:]
    recipe = RepRecipe(kronecker_quiver(3), (3, 4), seed=0)
    with pytest.raises(NonPolynomialCount, match=r"\(5, 0\)\] of Gr_\(1, 2\)"):
        f_polynomial(recipe)
    # Gr_(1,2) has 2, 3, 0 points at p = 2, 3, 5: f[3, 5] = -3/2.  The
    # box bound would count up to p = 19.
    assert [m_rep.p for m_rep in tables] == [2, 3, 5]


def test_rep_file_roundtrip(capsys, tmp_path):
    recipe = RepRecipe(kronecker_quiver(2), (2, 2),
                       int_matrices=(((1, 0), (0, 1)), ((0, 0), (0, 1))))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(recipe.to_json()))
    code, out = run(capsys, "compute", "--rep", str(path))
    assert code == 0
    poly = MultiPoly.from_json(json.loads(out)["fpoly"])
    assert poly == f_polynomial(recipe)


# sha256 of the standard output of verify --what cones --strict --seed 0.
A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))
A7 = Quiver(tuple(str(v + 1) for v in range(7)), tuple((v, v + 1) for v in range(6)))
CONE_REPORTS = (
    (kronecker_quiver(2), "2,3",
     "a94da2b2fa4da02e0ee9dbe43b408ce7e2251079a82bcdad78da9f5339dedf32"),
    (kronecker_quiver(2), "0,3",
     "872c5a61404d827777aaf1157af2789d81c69c063ba33be684eb5db9d94b5585"),
    (A3, "1,0,1",
     "8f7731eeb1e63cae31bddec8d991698a39bf4bf5b6d76a23a48ecf08dda9a9ee"),
    (Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2))), "2,4,1",
     "6b34421def8b44a0b7cccd4f5daf98025172ee67b6d8f1e28a4c131da22ea5e8"),
    (A7, "1,1,1,1,1,1,1",
     "2fc2e68ba3ef7adc8f875bd7ab9c27a2171a759f4501301342d263755c4ca152"),
)


@pytest.mark.parametrize("quiver, dims, digest", CONE_REPORTS)
def test_cone_reports_are_byte_identical(capsys, tmp_path, quiver, dims, digest):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_json()))
    code, out = run(capsys, "verify", "--what", "cones", "--strict",
                    "--quiver", str(path), "--dims", dims, "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
