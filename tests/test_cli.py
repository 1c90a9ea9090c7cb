"""Tests for the command line front end and its exit-code contract."""
import json
import pathlib

import numpy as np
import pytest

from squeezecert import __version__, cli
from squeezecert.cli import EXIT_OK, EXIT_PIPELINE, EXIT_USAGE, main
from squeezecert.domains import (affine_image, ball, defining_domain, domain_to_json, lp_ball,
                                 polydisc, projective_image)
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


def test_one_parser_serves_a_usage_error_then_a_bound(ball_spec, tmp_path, capsys,
                                                     monkeypatch):
    # main builds its parser once per process; an argparse usage error leaves
    # it as built, so a bound after it exits and reports as with fresh parsers
    out = str(tmp_path / "report.json")

    def error_then_bound():
        rc_error, _, err = run_cli(["bound", ball_spec, "--seed", "x"], capsys)
        parser = cli._PARSER
        rc_bound, _, _ = run_cli(["bound", ball_spec, "--out", out], capsys)
        assert cli._PARSER is parser
        return rc_error, err, rc_bound, pathlib.Path(out).read_text()

    monkeypatch.setattr(cli, "_PARSER", None)
    shared = error_then_bound()
    fresh = []
    for argv in (["bound", ball_spec, "--seed", "x"], ["bound", ball_spec, "--out", out]):
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run_cli(argv, capsys))
    assert shared[:2] == (EXIT_USAGE, fresh[0][2]) and "--seed" in shared[1]
    assert shared[2] == fresh[1][0] == EXIT_OK
    assert shared[3] == pathlib.Path(out).read_text()


# -- constants ----------------------------------------------------------------

def test_constants_csv(capsys):
    rc, out, _ = run_cli(["constants", "--n-max", "3", "--format", "csv"], capsys)
    assert rc == EXIT_OK
    assert out.startswith(f"# squeeze-cert {__version__} constants --n-max 3\n")
    assert out.endswith(constants_csv(3) + "\n")
    assert "0.12921951994641218" in out


def test_constants_csv_header_names_the_columns(capsys):
    rc, out, _ = run_cli(["constants", "--n-max", "2", "--format", "csv"], capsys)
    assert rc == EXIT_OK
    assert out.splitlines()[1] == ("n,c_n,convex_ball,convex_polydisc,cconvex_ball,"
                                   "cconvex_polydisc,weak_ball,weak_polydisc")


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
    # a non-finite tol would turn the margin gate off (nan, inf) or fail every margin
    for tol in ("nan", "inf", "-inf"):
        rc, out, err = run_cli(["bound", polydisc_spec, f"--tol={tol}"], capsys)
        assert rc == EXIT_USAGE and out == "" and "finite real" in err, tol
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


@pytest.mark.parametrize("option,value,expected", [
    # a negative tol fails the margins below |tol|, the sampled simplex one among them
    ("--tol", "-1e-3", EXIT_PIPELINE),
    ("--tol", "-.5", EXIT_PIPELINE),
    ("--point", "-0.1,0", EXIT_OK),
])
def test_negative_values_parse_as_separate_arguments(ball_spec, option, value, expected,
                                                     capsys):
    # argparse alone reads only -N and -N.N as values, and -1e-3 as an option
    base = ["bound", ball_spec, "--samples", "400"]
    rc, out, err = run_cli(base + [option, value], capsys)
    assert (rc, out, err) == run_cli(base + [f"{option}={value}"], capsys)
    assert rc == expected
    config = json.loads(out)["config"]
    if option == "--tol":
        assert config["tol"] == float(value)
    else:
        assert config["point"] == [[-0.1, 0.0], [0.0, 0.0]]


def _spec(tmp_path, name, d):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(domain_to_json(d)))
    return str(path)


def test_bound_near_singular_ball_image_exits_two(tmp_path, capsys):
    # construction accepts the map, but its stage 0 radius, 5e-10, is below
    # the frame's collapse floor of 1e-9
    spec = _spec(tmp_path, "near_singular", affine_image(ball(2), [[1.0, 1.0], [1.0, 1.0 + 1e-9]]))
    rc, out, err = run_cli(["bound", spec, "--samples", "400"], capsys)
    assert rc == EXIT_PIPELINE
    assert out == "" and "FrameDegenerateError" in err and "stage 0" in err


def test_bound_ray_past_the_bounding_radius_exits_two(tmp_path, capsys):
    # a bounding radius of 0.4 caps every ray of the unit ball at t = 0.8,
    # before it leaves: the frame's rays raise RayCapError and no report is written
    spec = _spec(tmp_path, "capped", ball(2, bounding_radius=0.4))
    report = tmp_path / "report.json"
    rc, out, err = run_cli(["bound", spec, "--out", str(report)], capsys)
    assert rc == EXIT_PIPELINE
    assert out == "" and "RayCapError" in err and "still inside past t = 0.8" in err
    assert not report.exists()


def test_bound_thin_defining_domain_exits_two(tmp_path, capsys):
    # a z2 semi-axis of 1e-3 fills 6e-8 of the proposal ball (radius twice
    # the longest axis exit), so none of 640 000 proposals lands inside:
    # interior sampling raises ValidationFailureError and no report is written
    spec = _spec(tmp_path, "thin", defining_domain(2, "abs(z1)**2+1e6*abs(z2)**2-1", "convex",
                                                   bounding_radius=5.0))
    report = tmp_path / "report.json"
    rc, out, err = run_cli(["bound", spec, "--out", str(report)], capsys)
    assert rc == EXIT_PIPELINE
    assert out == "" and "ValidationFailureError" in err and "domain too thin" in err
    assert not report.exists()


def test_bound_degenerate_defining_gradient_exits_two(tmp_path, capsys):
    # rho = (|z|^2 - 1)^3 cuts out the unit ball, but its gradient vanishes on
    # the whole boundary: the normalizer's tangent functionals raise
    # NonsmoothBoundaryError and no report is written
    spec = _spec(tmp_path, "cubed", defining_domain(2, "(abs(z1)**2+abs(z2)**2-1)**3", "convex",
                                                    bounding_radius=5.0))
    report = tmp_path / "report.json"
    rc, out, err = run_cli(["bound", spec, "--out", str(report)], capsys)
    assert rc == EXIT_PIPELINE
    assert out == ""
    assert err == ("pipeline check failed: NonsmoothBoundaryError: "
                   "defining gradient degenerates at the point\n")
    assert not report.exists()


def test_bound_unitary_lp_ball_image_triangularity_exits_two(tmp_path, capsys):
    # a unitary image of lp_ball(10, 1.5), Q the complex QR of the n = 10 draw
    # after the n = 6 and 8 ones of one stream: the frame's contacts leave
    # row 5 of the transported functionals 2.4e-4 of the norm past its pivot,
    # so the normalizer raises TriangularityError and no report is written.
    # ROADMAP item 6 (a monotone power step in the frame) is to certify this
    # image, which will turn the case into an exit-0 one
    rng = np.random.default_rng(7)
    for n in (6, 8, 10):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    spec = _spec(tmp_path, "unitary_lp", affine_image(lp_ball(10, 1.5), q))
    report = tmp_path / "report.json"
    rc, out, err = run_cli(["bound", spec, "--seed", "0", "--out", str(report)], capsys)
    assert rc == EXIT_PIPELINE
    assert out == "" and err.startswith("pipeline check failed: TriangularityError: row 5")
    assert not report.exists()


def test_bound_thin_polydisc_image_is_clean(tmp_path, capsys):
    # a contact radius of 1e-5 once left its face coordinate too far under 1
    spec = _spec(tmp_path, "thin", affine_image(polydisc(3), np.diag([1.0, 1e-5, 1.0])))
    rc, out, _ = run_cli(["bound", spec, "--samples", "400"], capsys)
    assert rc == EXIT_OK
    assert json.loads(out)["result"]["diagnostics"]["radii"][0] == pytest.approx(1e-5)


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
    # nor may an option that the selected suite does not read
    for argv, option in ((["verify", "--suite", "strictness", "--n", "3"], "--n"),
                         (["verify", "--suite", "star", "--samples", "100"], "--samples")):
        rc, out, err = run_cli(argv, capsys)
        assert rc == EXIT_USAGE and out == "" and option in err, argv


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
