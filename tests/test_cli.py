import json
import os
import pathlib
import subprocess
import sys

import pytest

import fpoly
from fpoly import cli, grassmannian, polynomial, polytope, rep, stabilization
from fpoly.cli import main
from fpoly.errors import InvariantViolation, NonPolynomialCount
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


@pytest.mark.parametrize("dims", ["2,3", "3,4", "2,2"])
def test_compute_reports_the_primes_counted(capsys, monkeypatch, k2_json, dims):
    # K2 (2,3) and (3,4) are rigid and take the palindromic fit; the
    # isotropic (2,2) is counted at the box bound.
    counted = set()
    real_count, real_table = polynomial.count_points, polynomial.subrep_counts

    def spy_count(m_rep, gamma):
        counted.add(m_rep.p)
        return real_count(m_rep, gamma)

    def spy_table(m_rep):
        counted.add(m_rep.p)
        return real_table(m_rep)

    monkeypatch.setattr(polynomial, "count_points", spy_count)
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
])
def test_exit_code_invalid_input(capsys, tmp_path, k2_json, argv):
    bad_arrow = tmp_path / "bad_arrow.json"
    bad_arrow.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [["1", "3"]]}))
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    # K2 with dims (1,2) needs 2x1 matrices; these are 1x2.
    bad_shape = tmp_path / "bad_shape.json"
    bad_shape.write_text(json.dumps({**kronecker_quiver(2).to_json(), "dims": [1, 2],
                                     "matrices": {"0": [[1, 0]], "1": [[0, 1]]}}))
    paths = {"k2": k2_json, "bad_arrow": bad_arrow, "not_json": not_json,
             "bad_shape": bad_shape, "missing": tmp_path / "missing.json"}
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


def test_counts_take_the_table_or_the_single_gamma_walk(capsys, monkeypatch,
                                                        k2_json):
    """A work-count guard: a rigid facet check reads every count from
    the per-representation tables; a box-bound fit, which may stop at
    its first non-polynomial gamma, counts one gamma at a time."""
    counted, tables = [], []
    real_count, real_table = grassmannian.count_points, grassmannian.subrep_counts

    def spy_count(m_rep, gamma):
        counted.append((m_rep.p, gamma))
        return real_count(m_rep, gamma)

    def spy_table(m_rep):
        tables.append(m_rep)
        return real_table(m_rep)

    for module in (grassmannian, polynomial, stabilization):
        monkeypatch.setattr(module, "count_points", spy_count)
        monkeypatch.setattr(module, "subrep_counts", spy_table)
    code, out = run(capsys, "verify", "--what", "facets", "--strict",
                    "--quiver", k2_json, "--dims", "2,3", "--seed", "0")
    assert code == 0 and json.loads(out)["pass"] is True
    assert tables and not counted

    del tables[:]
    with pytest.raises(NonPolynomialCount):
        f_polynomial(RepRecipe(kronecker_quiver(3), (3, 4), seed=0))
    assert counted and not tables


def test_rep_file_roundtrip(capsys, tmp_path):
    recipe = RepRecipe(kronecker_quiver(2), (2, 2),
                       int_matrices=(((1, 0), (0, 1)), ((0, 0), (0, 1))))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(recipe.to_json()))
    code, out = run(capsys, "compute", "--rep", str(path))
    assert code == 0
    poly = MultiPoly.from_json(json.loads(out)["fpoly"])
    assert poly == f_polynomial(recipe)
