"""Tests for the command line front end and its exit-code contract."""
import json
import pathlib

import numpy as np
import pytest

from squeezecert import __version__, cli
from squeezecert.cli import EXIT_OK, EXIT_PIPELINE, EXIT_USAGE, main
from squeezecert.domains import affine_image, ball, domain_to_json, polydisc, projective_image
from squeezecert.numerics import constants_csv, universal_bounds
from squeezecert.verify import SuiteReport


def run_cli(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse-level errors
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture()
def polydisc_spec(tmp_path):
    path = tmp_path / "polydisc.json"
    path.write_text(json.dumps(domain_to_json(polydisc(2))))
    return str(path)


@pytest.fixture()
def ball_spec(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(domain_to_json(ball(2))))
    return str(path)


@pytest.fixture()
def projective_spec(tmp_path):
    d = projective_image(polydisc(2), np.eye(2), np.zeros(2),
                         [2.0, -1.0, 0.0], bounding_radius=10.0)
    path = tmp_path / "projective.json"
    path.write_text(json.dumps(domain_to_json(d)))
    return str(path)


# -- constants ----------------------------------------------------------------

def test_constants_csv(capsys):
    rc, out, _ = run_cli(["constants", "--n-max", "3", "--format", "csv"], capsys)
    assert rc == EXIT_OK
    assert out.startswith(f"# squeeze-cert {__version__} constants --n-max 3\n")
    assert out.endswith(constants_csv(3) + "\n")
    assert "0.12921951994641218" in out


def test_constants_json(capsys):
    rc, out, _ = run_cli(["constants", "--n-max", "2"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "squeeze-cert/cli-1"
    assert doc["version"] == __version__
    assert doc["config"]["command"] == "constants"
    assert len(doc["result"]) == 1
    assert doc["result"][0]["convex_polydisc"] == universal_bounds(2).convex_polydisc


def test_constants_range_gate(capsys):
    for bad in ("1", "65"):
        rc, _, err = run_cli(["constants", "--n-max", bad], capsys)
        assert rc == EXIT_USAGE
        assert "2..64" in err


def test_constants_rejects_garbage_int(capsys):
    rc, _, _ = run_cli(["constants", "--n-max", "two"], capsys)
    assert rc == EXIT_USAGE


# -- bound --------------------------------------------------------------------

def test_bound_polydisc(polydisc_spec, capsys):
    rc, out, _ = run_cli(["bound", polydisc_spec, "--samples", "400"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    consts = universal_bounds(2)
    assert doc["result"]["certified"]["s"] == consts.convex_ball
    assert doc["result"]["certified"]["s_hat"] == consts.convex_polydisc
    assert doc["config"]["spec"] == polydisc_spec


def test_bound_point_recenters(ball_spec, capsys):
    rc, out, _ = run_cli(
        ["bound", ball_spec, "--point", "0.3,0", "--samples", "400"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["point"] == [[0.3, 0.0], [0.0, 0.0]]
    assert doc["result"]["certified"]["s"] == universal_bounds(2).convex_ball
    assert doc["result"]["witness"] is not None


def test_bound_writes_identical_files(polydisc_spec, tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    argv = ["bound", polydisc_spec, "--samples", "400", "--out", out_path]
    assert run_cli(argv, capsys)[0] == EXIT_OK
    first = pathlib.Path(out_path).read_bytes()
    assert run_cli(argv, capsys)[0] == EXIT_OK
    assert pathlib.Path(out_path).read_bytes() == first
    assert json.loads(first)["config"]["out"] == out_path


def test_bound_point_outside_is_usage_error(polydisc_spec, capsys):
    # outside the bidisc, and on its boundary
    for point in ("2,0", "1,0"):
        rc, out, err = run_cli(["bound", polydisc_spec, "--point", point], capsys)
        assert rc == EXIT_USAGE, point
        assert out == "" and "inside the domain" in err


@pytest.mark.parametrize("argv", [
    ["bound", "SPEC", "--samples", "0"],
    ["bound", "SPEC", "--samples", "-3"],
    ["bound", "SPEC", "--samples", "many"],
    ["verify", "--suite", "strictness", "--samples", "0"],
    ["verify", "--suite", "lemmas", "--samples", "0"],
    ["verify", "--suite", "star", "--trials", "0"],
    ["probe-kappa", "--family", "shears", "--budget", "1", "--samples", "0"],
    ["probe-kappa", "--family", "shears", "--budget", "-1"],
])
def test_nonpositive_counts_are_usage_errors(polydisc_spec, argv, capsys):
    rc, out, err = run_cli([polydisc_spec if a == "SPEC" else a for a in argv], capsys)
    assert rc == EXIT_USAGE
    assert out == "" and "positive integer" in err


@pytest.mark.parametrize("argv", [
    ["bound", "SPEC", "--seed", "-1"],
    ["bound", "SPEC", "--seed", "1.5"],
    ["verify", "--suite", "star", "--n", "2", "--trials", "2", "--seed", "-1"],
    ["probe-kappa", "--family", "shears", "--budget", "1", "--seed", "-1"],
])
def test_bad_seeds_are_usage_errors(polydisc_spec, argv, capsys):
    rc, out, err = run_cli([polydisc_spec if a == "SPEC" else a for a in argv], capsys)
    assert rc == EXIT_USAGE
    assert out == "" and "non-negative integer" in err


def test_bound_class_mismatch_exits_two(projective_spec, capsys):
    rc, _, err = run_cli(
        ["bound", projective_spec, "--class", "convex", "--samples", "400"], capsys)
    assert rc == EXIT_PIPELINE
    assert "ClassMismatchError" in err


def test_bound_usage_errors(polydisc_spec, tmp_path, capsys):
    rc, _, _ = run_cli(["bound", str(tmp_path / "missing.json")], capsys)
    assert rc == EXIT_USAGE
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["bound", str(broken)], capsys)[0] == EXIT_USAGE
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "dodecahedron"}))
    assert run_cli(["bound", str(wrong)], capsys)[0] == EXIT_USAGE
    assert run_cli(["bound", polydisc_spec, "--point", "0.1,bad"], capsys)[0] == EXIT_USAGE
    assert run_cli(["bound", polydisc_spec, "--point", "0.1"], capsys)[0] == EXIT_USAGE
    assert run_cli(["bound", polydisc_spec, "--format", "csv"], capsys)[0] == EXIT_USAGE
    # a degenerate projective map: the image of the bidisc lies in z2 = 0
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "n": 2, "kind": "projective_image", "base": domain_to_json(polydisc(2)),
        "map": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "offset": [[0, 0], [0, 0]],
                "denominator": [[1, 0], [0, 0], [0, 0]]}}))
    assert run_cli(["bound", str(degenerate)], capsys)[0] == EXIT_USAGE
    # malformed maps, unreadable files and non-string expressions
    base = domain_to_json(polydisc(2))
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    zero = [[0, 0], [0, 0]]
    specs = {
        "no_matrix": {"n": 2, "kind": "affine_image", "base": base, "map": {"offset": zero}},
        "map_list": {"n": 2, "kind": "affine_image", "base": base, "map": [eye, zero]},
        "matrix_int": {"n": 2, "kind": "affine_image", "base": base,
                       "map": {"matrix": 5, "offset": zero}},
        "not_numeric": {"n": 2, "kind": "affine_image", "base": base,
                        "map": {"matrix": [[["a", 0], [0, 0]], eye[1]], "offset": zero}},
        "ragged": {"n": 2, "kind": "affine_image", "base": base,
                   "map": {"matrix": [[[1, 0]], eye[1]], "offset": zero}},
        "rho_list": {"n": 2, "kind": "defining_function", "class": "convex", "rho": ["z1"]},
    }
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert run_cli(["bound", str(path)], capsys)[0] == EXIT_USAGE, name
    # non-finite exponents and bounding radii, as json writes them
    for name, spec in {"p_inf": {"n": 2, "kind": "lp_ball", "p": float("inf")},
                       "radius_inf": {"n": 2, "kind": "ball", "bounding_radius": float("inf")}
                       }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert "Infinity" in path.read_text()
        rc, out, err = run_cli(["bound", str(path)], capsys)
        assert rc == EXIT_USAGE and out == "" and "finite" in err, name
    directory = tmp_path / "spec_dir.json"
    directory.mkdir()
    assert run_cli(["bound", str(directory)], capsys)[0] == EXIT_USAGE
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 2, "kind": "ball\xe9"}')
    assert run_cli(["bound", str(latin1)], capsys)[0] == EXIT_USAGE


def test_bound_nonfinite_denominator_is_usage_error(tmp_path, capsys):
    spec = domain_to_json(projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0]))
    spec["map"]["denominator"][1] = [float("inf"), 0.0]
    path = tmp_path / "inf_denominator.json"
    path.write_text(json.dumps(spec))
    assert "Infinity" in path.read_text()
    rc, out, err = run_cli(["bound", str(path)], capsys)
    assert rc == EXIT_USAGE and out == "" and "map data must be finite" in err


def test_bound_unbounded_projective_image_is_usage_error(tmp_path, capsys):
    # d0 + d.w vanishes at the corner (-1, -1) of the closed bidisc
    spec = domain_to_json(projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0]))
    spec["map"]["denominator"] = [[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]]
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run_cli(["bound", str(path)], capsys)
    assert rc == EXIT_USAGE and out == "" and "vanishes on the closed base" in err


def test_bound_unbounded_nested_projective_image_is_usage_error(tmp_path, capsys):
    # bounded over ball(2), unbounded over the ball scaled by 2: the
    # denominator is checked over the innermost body of the chain
    scaled = affine_image(ball(2), 2.0 * np.eye(2))
    spec = domain_to_json(projective_image(scaled, np.eye(2), np.zeros(2), [1.0, 0.3, 0.0]))
    spec["map"]["denominator"] = [[1.0, 0.0], [0.6, 0.0], [0.0, 0.0]]
    path = tmp_path / "nested_horizon.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run_cli(["bound", str(path)], capsys)
    assert rc == EXIT_USAGE and out == "" and "the image is unbounded" in err


def test_bound_recentred_projective_ball_is_clean(capsys):
    # --point makes the nested chain translate(projective_image(ball(2), ...))
    spec = str(pathlib.Path(__file__).parents[1] / "demos" / "projective_ball2.json")
    rc, out, _ = run_cli(["bound", spec, "--point", "0.1,0.05j", "--samples", "400"], capsys)
    assert rc == EXIT_OK
    result = json.loads(out)["result"]
    assert result["class"] == "cconvex" and result["witness"]["present"]
    assert result["margins"]
    for name, margin in result["margins"].items():
        assert margin["violations"] == 0 and margin["min_slack"] > 0.0, name


def test_bound_margins_below_tol_exit_two(ball_spec, capsys):
    # every containment slack is below 1, so --tol -1 fails every margin
    rc, out, err = run_cli(["bound", ball_spec, "--tol", "-1", "--samples", "400"], capsys)
    assert rc == EXIT_PIPELINE
    margins = sorted(json.loads(out)["result"]["margins"])
    assert margins
    assert err == f"pipeline check failed: {', '.join(margins)}\n"


def test_verify_violation_exits_two(monkeypatch, capsys):
    def violated(**kwargs):
        return SuiteReport(suite="star", dims=(2,), trials=1, seed=0, violations=1,
                           worst_margin=-0.5, worst_case={"n": 2})

    monkeypatch.setattr(cli, "suite_star", violated)
    rc, out, err = run_cli(["verify", "--suite", "star"], capsys)
    assert rc == EXIT_PIPELINE
    assert json.loads(out)["result"]["violations"] == 1
    assert "suite star reported 1 violation(s)" in err


def test_options_a_subcommand_does_not_read_are_usage_errors(capsys):
    assert run_cli(["verify", "--tol", "1e-3"], capsys)[0] == EXIT_USAGE
    assert run_cli(["constants", "--seed", "1"], capsys)[0] == EXIT_USAGE


# -- verify -------------------------------------------------------------------

def test_verify_star(capsys):
    rc, out, _ = run_cli(
        ["verify", "--suite", "star", "--n", "2..4", "--trials", "10"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["violations"] == 0
    [rep] = doc["result"]["reports"]
    assert rep["suite"] == "star"
    assert rep["dims"] == [2, 3, 4]


def test_verify_all_runs_three_suites(capsys):
    rc, out, _ = run_cli(
        ["verify", "--n", "2..3", "--trials", "5", "--samples", "300"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert [r["suite"] for r in doc["result"]["reports"]] == \
        ["star", "lemmas", "strictness"]
    assert doc["result"]["violations"] == 0


def test_verify_deterministic_stdout(capsys):
    argv = ["verify", "--suite", "star", "--n", "3", "--trials", "5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_verify_usage_errors(capsys):
    assert run_cli(["verify", "--suite", "koebe"], capsys)[0] == EXIT_USAGE
    assert run_cli(["verify", "--suite", "star", "--n", "1..3"], capsys)[0] == EXIT_USAGE
    assert run_cli(["verify", "--suite", "star", "--n", "4..2"], capsys)[0] == EXIT_USAGE
    assert run_cli(["verify", "--suite", "star", "--n", "17"], capsys)[0] == EXIT_USAGE
    assert run_cli(["verify", "--suite", "star", "--n", "2;4"], capsys)[0] == EXIT_USAGE


# -- probe-kappa --------------------------------------------------------------

def test_probe_kappa_shears(capsys):
    rc, out, _ = run_cli(
        ["probe-kappa", "--family", "shears", "--n", "2", "--budget", "2",
         "--samples", "300"], capsys)
    assert rc == EXIT_OK
    doc = json.loads(out)
    consts = universal_bounds(2)
    assert doc["result"]["universal_s"] == consts.convex_ball
    assert "min_certified_s" not in doc["result"]
    assert doc["result"]["min_witness_s"] > consts.convex_ball
    assert doc["config"]["family"] == "shears"


def test_probe_kappa_usage_errors(capsys):
    assert run_cli(["probe-kappa", "--family", "rotations"], capsys)[0] == EXIT_USAGE
    assert run_cli(["probe-kappa", "--family", "shears", "--budget", "0"],
                   capsys)[0] == EXIT_USAGE
    assert run_cli(["probe-kappa", "--family", "shears", "--n", "2..3"],
                   capsys)[0] == EXIT_USAGE


# -- top level ----------------------------------------------------------------

def test_version_flag(capsys):
    rc, out, _ = run_cli(["--version"], capsys)
    assert rc == 0
    assert __version__ in out


def test_missing_subcommand(capsys):
    assert run_cli([], capsys)[0] == EXIT_USAGE


def test_unknown_subcommand(capsys):
    assert run_cli(["squeeze-harder"], capsys)[0] == EXIT_USAGE
