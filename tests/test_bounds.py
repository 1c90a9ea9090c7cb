"""Tests for containment checks, witness maps, and the certify pipeline."""
import dataclasses
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from squeezecert.bounds import (
    BoundReport,
    MarginReport,
    WitnessMap,
    certify,
    containment_check,
    inscribed_radius_estimate,
    report_to_json,
)
from squeezecert import bounds as bounds_module
from squeezecert import frame as frame_module
from squeezecert import domains as dom
from squeezecert.domains import (
    DomainSpec,
    affine_image,
    ball,
    boundary_residual,
    boundary_samples,
    defining_domain,
    interior_samples,
    l1ball,
    lp_ball,
    polydisc,
    projective_image,
    translate,
)
from squeezecert.errors import (ArgumentError, ClassMismatchError, DomainFormatError,
                                MapDomainError, RayCapError)
from squeezecert.numerics import (_shear_slacks, _stream, c_const, inverse_coefficients, tau,
                                  unit_lower, universal_bounds)
from squeezecert.planar import disc_shape, half_plane, riemann_catalog, slit_plane
from squeezecert.verify import VIOLATION_TOL, _Tracker


def projective_fixture():
    return projective_image(polydisc(2), np.eye(2), np.zeros(2),
                            [2.0, -1.0, 0.0], bounding_radius=10.0)


@pytest.fixture(scope="module")
def polydisc_report():
    return certify(polydisc(2), seed=0)


@pytest.fixture(scope="module")
def ball_report():
    return certify(ball(2), seed=0)


@pytest.fixture(scope="module")
def l1_report():
    return certify(l1ball(2), seed=0)


@pytest.fixture(scope="module")
def projective_report():
    return certify(projective_fixture(), seed=0)


@pytest.fixture(scope="module")
def polydisc_cconvex_report():
    return certify(polydisc(2), convexity_class="cconvex", seed=0)


def scaled(body, radius):
    """The body dilated by `radius` about the origin."""
    return affine_image(body, radius * np.eye(body.n))


# -- model bodies -------------------------------------------------------------

def test_shape_descriptor_validation():
    with pytest.raises(DomainFormatError):
        DomainSpec(n=2, kind="cube", convexity_class="convex")
    with pytest.raises(DomainFormatError):
        scaled(ball(2), 0.0)
    with pytest.raises(DomainFormatError):
        affine_image(ball(2), np.eye(3))


def test_model_body_residuals():
    z = np.array([[0.6, 0.8j]])
    assert np.isclose(boundary_residual(ball(2), z)[0], 0.0)
    assert np.isclose(boundary_residual(polydisc(2), z)[0], -0.2)
    assert np.isclose(boundary_residual(l1ball(2), z)[0], 0.4)
    sheared = affine_image(polydisc(2), np.array([[2.0, 0], [0, 1.0]]))
    assert np.isclose(boundary_residual(sheared, np.array([[1.0, 0.5]]))[0], 0.5 - 1.0)


@pytest.mark.parametrize("shape", [scaled(ball(3), 0.7), scaled(polydisc(2), 2.0),
                                   scaled(l1ball(3), 1.5)])
def test_boundary_samples_sit_on_boundary(shape):
    pts = boundary_samples(shape, 500, np.random.default_rng(0))
    assert pts.shape == (4 * shape.n + 4 + 500, shape.n)
    assert np.allclose(boundary_residual(shape, pts), 0.0, atol=1e-12)
    # canonical axis points and the all-ones corner lead the sample block
    radius = shape.matrix[0, 0].real
    assert np.allclose(pts[0], radius * np.eye(shape.n)[0], atol=1e-12)


def test_boundary_samples_reject_bodies_without_sampler():
    with pytest.raises(ArgumentError):
        boundary_samples(lp_ball(2, 3.0), 10, np.random.default_rng(0))


# -- containment check --------------------------------------------------------

def test_containment_small_polydisc_in_simplex():
    rep = containment_check(scaled(polydisc(2), 1.0 / 3.0), None, l1ball(2),
                            samples=2000, seed=0)
    assert rep.violations == 0
    assert abs(rep.min_slack - 1.0 / 3.0) < 1e-6


@pytest.mark.parametrize("counts", [
    pytest.param({"samples": 0}, id="no_samples"),
    pytest.param({"samples": 2.5}, id="fractional_samples"),
    pytest.param({"seed": -1}, id="negative_seed"),
    pytest.param({"seed": 1.5}, id="fractional_seed"),
])
def test_containment_check_rejects_bad_counts(counts):
    (name, _), = counts.items()
    with pytest.raises(ArgumentError, match=f"{name} must be a (positive|non-negative) integer"):
        containment_check(scaled(polydisc(2), 1.0 / 3.0), None, l1ball(2), **counts)


def test_containment_small_ball_in_simplex():
    rep = containment_check(scaled(ball(2), 1.0 / np.sqrt(5.0)), None,
                            l1ball(2), samples=2000, seed=0)
    assert rep.violations == 0
    assert abs(rep.min_slack - (1.0 - np.sqrt(2.0 / 5.0))) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_containment_worst_case_shear_is_tight(n):
    alpha = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    inv = inverse_coefficients(unit_lower(alpha)).entries
    rep = containment_check(scaled(polydisc(n), 1.0 / (2.0**n - 1.0)), inv,
                            l1ball(n), samples=2000, seed=0)
    assert rep.violations == 0
    assert 0.0 <= rep.min_slack <= 1e-6


def test_containment_random_triangular_shears():
    rng = np.random.default_rng(7)
    consts = universal_bounds(3)
    for _ in range(25):
        raw = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        raw /= np.maximum(1.0, np.abs(raw))
        alpha = np.tril(raw, -1) + np.eye(3)
        inv = inverse_coefficients(unit_lower(alpha)).entries
        for inner in (scaled(polydisc(3), 1.0 / 7.0), scaled(ball(3), 1.0 / consts.c_n)):
            rep = containment_check(inner, inv, l1ball(3),
                                    samples=400, seed=1)
            assert rep.violations == 0
            assert rep.min_slack >= -1e-10


# -- shear lemma margins in closed form ---------------------------------------

def _bench_fixtures():
    """The benchmark's twelve certify fixtures, its seeded shear and base point
    replaced by fixed ones."""
    eye, zero = np.eye(2), np.zeros(2)
    return [
        ball(2), ball(3), polydisc(2), l1ball(2), lp_ball(2, 1.5),
        affine_image(polydisc(2), np.array([[1.0, 0.0], [0.6 - 0.5j, 1.0]])),
        translate(ball(2), np.array([0.3 + 0.1j, -0.2j])),
        l1ball(6),
        projective_image(polydisc(2), eye, zero, [2.0, -1.0, 0.0], bounding_radius=10.0),
        projective_image(polydisc(2), eye, zero, [2.0, 0.5, 0.0], bounding_radius=100.0),
        projective_image(ball(2), eye, zero, [2.0, 0.5, 0.0], bounding_radius=100.0),
        DomainSpec(n=2, kind="polydisc", convexity_class="cconvex"),
    ]


def _shear_inverses():
    """A inverse of the benchmark fixtures' normalizers, of the n = 3 shear
    with strictly-lower entries 0.4 - 0.3j, and of 30 random shears with
    |alpha| <= 1 in each dimension 2..5."""
    invs = []
    for d in _bench_fixtures():
        norm = frame_module.build_normalizer(d, frame_module.build_frame(d, seed=0), seed=0)
        invs.append(inverse_coefficients(norm.a_matrix).entries)
    alpha = np.tril(np.full((3, 3), 0.4 - 0.3j), -1) + np.eye(3)
    invs.append(inverse_coefficients(unit_lower(alpha)).entries)
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        for _ in range(30):
            raw = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            raw /= np.maximum(1.0, np.abs(raw))
            invs.append(inverse_coefficients(unit_lower(np.tril(raw, -1) + np.eye(n))).entries)
    return invs


def test_shear_slacks_bound_the_sampled_slacks():
    invs = _shear_inverses()
    assert len(invs) == 12 + 1 + 120
    for inv in invs:
        n = inv.shape[0]
        pd_slack, ball_slack = _shear_slacks(inv)
        small_pd = scaled(polydisc(n), 1.0 / (2.0**n - 1.0))
        small_ball = scaled(ball(n), 1.0 / c_const(n))
        for inner, slack in ((small_pd, pd_slack), (small_ball, ball_slack)):
            assert slack <= containment_check(inner, inv, l1ball(n), samples=200, seed=0).min_slack
            # the closed bodies, unshrunk: A = I attains the ball's bound at
            # the sampled all-ones corner, where the unrounded formula is 1 ulp high
            pts = boundary_samples(inner, 200, np.random.default_rng(1))
            assert slack <= (-boundary_residual(l1ball(n), pts @ inv.T)).min()


@pytest.mark.parametrize("n", range(2, 9))
def test_shear_slacks_are_exact_on_the_identity(n):
    pd_slack, ball_slack = _shear_slacks(np.eye(n))
    assert 0.0 <= 1.0 - n / (2.0**n - 1.0) - pd_slack <= 1e-13
    assert 0.0 <= 1.0 - np.sqrt(n) / c_const(n) - ball_slack <= 1e-13


@pytest.mark.parametrize("n", range(2, 17))
def test_shear_slacks_all_minus_one_shear_is_tight(n):
    alpha = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    inv = inverse_coefficients(unit_lower(alpha)).entries
    for slack in _shear_slacks(inv):
        assert -1e-13 <= slack <= 0.0


def test_shear_slacks_fail_past_the_unit_disc():
    alpha = np.tril(-np.ones((3, 3)), -1) + np.eye(3)
    alpha[2, 0] = -1.01
    track = _Tracker()
    for slack in _shear_slacks(inverse_coefficients(unit_lower(alpha)).entries):
        assert slack < VIOLATION_TOL
        track.add(slack, {})
    assert track.violations == 2


def test_containment_outer_domain_spec():
    rep = containment_check(scaled(polydisc(2), 0.5), None, polydisc(2),
                            samples=500, seed=0)
    assert rep.violations == 0
    assert abs(rep.min_slack - 0.5) < 1e-6


def test_containment_outer_projective_image():
    # the Cayley image of the bidisc contains the polydisc of radius 1/3
    d = projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, -1.0, 0.0])
    rep = containment_check(scaled(polydisc(2), 0.3), None, d, samples=500, seed=0)
    assert rep.violations == 0
    assert rep.check == "affine_image in projective_image"
    rep = containment_check(scaled(polydisc(2), 0.4), None, d, samples=500, seed=0)
    assert rep.violations > 0


def test_margin_report_dict():
    rep = containment_check(scaled(ball(2), 0.5), None, ball(2), samples=50,
                            seed=0, name="probe")
    assert rep.as_dict()["check"] == "probe"
    assert isinstance(rep, MarginReport)


# -- inscribed radius ---------------------------------------------------------

def test_inscribed_radius_of_ball_itself():
    oracle = lambda y: np.linalg.norm(y, axis=-1) < 1.0
    estimate = inscribed_radius_estimate(oracle, 2, shape="ball", rays=2000, seed=0)
    assert isinstance(estimate, float)
    assert abs(estimate - 1.0) < 1e-12


def test_inscribed_radius_of_disc_product():
    oracle = lambda y: np.all(np.abs(y - 1.0 / 3.0) < 2.0 / 3.0, axis=-1)
    estimate = inscribed_radius_estimate(oracle, 2, shape="polydisc", rays=2000, seed=0)
    assert abs(estimate - 1.0 / 3.0) < 1e-12


def test_inscribed_radius_of_simplex_along_ball_directions():
    oracle = lambda y: np.sum(np.abs(y), axis=-1) < 1.0
    estimate = inscribed_radius_estimate(oracle, 2, shape="ball", rays=2000, seed=0)
    assert abs(estimate - 1.0 / np.sqrt(2.0)) < 1e-12


def test_inscribed_radius_argument_errors():
    inside = lambda y: np.linalg.norm(y, axis=-1) < 1.0
    with pytest.raises(ArgumentError):
        inscribed_radius_estimate(inside, 2, shape="cube")
    with pytest.raises(ArgumentError):
        inscribed_radius_estimate(lambda y: np.zeros(y.shape[0], dtype=bool), 2)
    with pytest.raises(ArgumentError):
        inscribed_radius_estimate(inside, 2, rays=0)


@pytest.mark.parametrize("seed", [-1, 0.5, "0"])
def test_inscribed_radius_rejects_bad_seeds(seed):
    inside = lambda y: np.linalg.norm(y, axis=-1) < 1.0
    with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
        inscribed_radius_estimate(inside, 2, rays=10, seed=seed)


def test_inscribed_radius_of_unbounded_image_hits_the_cap():
    with pytest.raises(RayCapError):
        inscribed_radius_estimate(lambda y: np.ones(y.shape[0], dtype=bool), 2, rays=10)


def test_inscribed_radius_needs_only_one_ray_to_leave():
    # the rays with Re v_1 <= 0 never leave the half-space; the axis ray e_1
    # leaves at 0.5, and no other ray leaves below it
    estimate = inscribed_radius_estimate(lambda y: y[:, 0].real < 0.5, 2, rays=100)
    assert abs(estimate - 0.5) <= 1e-12


def witness_path_fixtures(n, rng):
    """Closed-form bases of a witness image, and ones whose witness paths the
    grid scan brackets (l1, lp, sheared l1)."""
    shear = np.eye(n, dtype=complex) + np.tril(np.full((n, n), 0.4 - 0.3j), -1)
    cayley = np.concatenate([[2.0, -1.0], np.zeros(n - 1)])
    return {
        "ball": ball(n), "polydisc": polydisc(n), "shear": affine_image(polydisc(n), shear),
        "translate": translate(ball(n), 0.3 * rng.normal(size=2 * n).view(complex) / n),
        "cayley": projective_image(polydisc(n), np.eye(n), np.zeros(n), cayley,
                                   bounding_radius=10.0),
    }, {"l1ball": l1ball(n), "lp_ball": lp_ball(n, 1.5),
        "shear_l1": affine_image(l1ball(n), shear)}


def random_witness(d, maps, rng, near_dft=False):
    """A witness map of d with a random affine part and the given coordinate
    maps: near the identity, or near the DFT matrix (the l1ball(n) frame's,
    sqrt(n) times a unitary one)."""
    n = d.n
    affine = np.eye(n) + 0.3 * rng.normal(size=(n, 2 * n)).view(complex)
    if near_dft:
        affine = np.fft.fft(np.eye(n)) @ (np.eye(n) + (affine - np.eye(n)) / 6.0)
    if maps == "half_plane":
        coord = tuple(riemann_catalog(half_plane()) for _ in range(n))
    else:
        centers = 0.4 * rng.normal(size=2 * n).view(complex)
        coord = tuple(riemann_catalog(disc_shape(c, abs(c) + rng.uniform(0.5, 2.0)))
                      for c in centers)
    return WitnessMap(domain=d, affine=affine, inverse=np.linalg.inv(affine),
                      coordinate_maps=coord)


def test_witness_path_exits_agree_with_the_march_and_pass_their_brackets():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        closed, scanned = witness_path_fixtures(n, rng)
        origin = np.zeros(n, dtype=complex)
        for maps in ("half_plane", "disc"):
            for name, d in {**closed, **scanned}.items():
                w = random_witness(d, maps, rng)
                oracle = w.contains
                body = ball(n) if name in ("ball", "translate") else polydisc(n)
                dirs = boundary_samples(body, 2000, rng)
                lower, upper = w.exits(dirs)
                # a row is bracketed, or screened with a certified lower end
                fin = np.isfinite(upper)
                assert np.isfinite(lower).all() and np.isposinf(upper[~fin]).all(), (n, maps, name)
                assert oracle(lower[:, None] * dirs).all(), (n, maps, name)
                assert not oracle(upper[fin, None] * dirs[fin]).any(), (n, maps, name)
                march = dom._first_exits(oracle, origin, dirs, cap=1e8)
                assert (march[~fin] > lower[~fin]).all(), (n, maps, name)
                lo, hi, at = lower[fin], upper[fin], march[fin]
                if name in closed:
                    # every bracket holds the march's exit, found to _EXIT_TOL
                    held = (lo <= at + dom._EXIT_TOL) & (at < hi)
                    assert held.all(), (n, maps, name)
                    # the rows that can hold the least exit, the least one
                    # among them, are refined to within _EXIT_TOL of the march
                    least = lo < hi.min()
                    assert least[np.argmin(at)] and march.min() == at.min(), (n, maps, name)
                    assert np.abs(0.5 * (lo + hi) - at)[least].max() <= dom._EXIT_TOL
                else:
                    # two consecutive marks of the march around its exit
                    assert np.array_equal(hi, np.where(lo > 0.0, lo * dom._MARCH_GROWTH,
                                                       dom._MARCH_START)), (n, maps, name)
                    assert ((lo <= at) & (at < hi)).all(), (n, maps, name)
                    # a grid bracket is bisected as the march's, and outside
                    # the least mode a screened row marches
                    got = dom._first_exits(oracle, origin, dirs, cap=1e8, bracket=(lower, upper))
                    assert np.array_equal(got, march), (n, maps, name)


def every_exit_min(oracle, n, shape, rays, seed, guess):
    """The least exit with every ray bisected to its own exit: the reference
    for `inscribed_radius_estimate`, which gives up the rays that cannot hold it."""
    body = ball(n) if shape == "ball" else polydisc(n)
    dirs = boundary_samples(body, rays, np.random.default_rng(seed))
    bracket = None if guess is None else guess(dirs)
    origin = np.zeros(n, dtype=complex)
    return float(dom._first_exits(oracle, origin, dirs, cap=1e8, bracket=bracket).min())


def wrong_on_some_rays(guess):
    """The brackets scaled off on two rays in three, nan on a few: those rays march."""
    def wrong(dirs):
        ends = [end.copy() for end in guess(dirs)]
        for end in ends:
            end[0::3] *= 0.7
            end[1::3] *= 1.3
            end[::17] = np.nan
        return tuple(ends)
    return wrong


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inscribed_radius_matches_every_ray_run_to_its_exit(n):
    rng = np.random.default_rng(40 + n)
    closed, scanned = witness_path_fixtures(n, rng)
    ball_rho = "+".join(f"abs(z{k + 1})**2" for k in range(n)) + "-1"
    # a defining function has no bracket: every ray marches
    marching = defining_domain(n, ball_rho, "convex", bounding_radius=5.0)
    for maps in ("half_plane", "disc"):
        for name, d in {**closed, **scanned, "defining_ball": marching}.items():
            w = random_witness(d, maps, rng)
            oracle = w.contains
            guess = w.exits
            guesses = [guess] if d is marching else [guess, wrong_on_some_rays(guess)]
            for shape in ("ball", "polydisc"):
                for g in guesses:
                    seed = int(rng.integers(1000))
                    got = inscribed_radius_estimate(oracle, n, shape=shape, rays=600,
                                                    seed=seed, guess=g)
                    assert got == every_exit_min(oracle, n, shape, 600, seed, g), (maps, name)


def _shear2():
    shear = np.eye(2, dtype=complex)
    shear[1, 0] = 0.4 - 0.3j
    return affine_image(polydisc(2), shear)


@pytest.mark.parametrize("d, cls, tol", [
    pytest.param(ball(2), None, 2e-12, id="ball"),
    pytest.param(polydisc(2), None, 2e-12, id="polydisc"),
    pytest.param(_shear2(), None, 2e-12, id="shear"),
    pytest.param(polydisc(2), "cconvex", 2e-12, id="polydisc_cconvex"),
    # the grid brackets over an l1 or lp base are the march's own marks: the
    # witness is the marched one bit for bit
    pytest.param(l1ball(2), None, 0.0, id="l1ball"),
    pytest.param(lp_ball(2, 1.5), None, 0.0, id="lp_ball"),
])
def test_witness_matches_the_marched_witness(monkeypatch, d, cls, tol):
    def run():
        rep = report_to_json(certify(d, convexity_class=cls, samples=400, rays=2000, seed=0))
        w = rep.pop("witness")
        return w, json.dumps(rep, sort_keys=True)

    witness, rest = run()
    # the reference: every witness ray marched, as before the closed form
    monkeypatch.setattr(bounds_module.WitnessMap, "exits", lambda self, dirs: None)
    marched, marched_rest = run()
    assert rest == marched_rest
    assert witness["present"] and marched["present"]
    got, want = (np.array([w["s"], w["s_hat"]]) for w in (witness, marched))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    if tol == 0.0:
        assert witness == marched


def witness_points_per_ray(report, shape, bracketed=True):
    """Oracle points per requested ray of a report's inscribed radius, counted
    by a plain wrapper of the oracle, as a tracer would count them; without
    `bracketed`, every ray marches."""
    oracle = report.witness.contains
    points = [0]

    def counted(y):
        points[0] += y.shape[0]
        return oracle(y)

    guess = report.witness.exits if bracketed else None
    inscribed_radius_estimate(counted, report.n, shape=shape, rays=2000, seed=1, guess=guess)
    return points[0] / 2000


def test_witness_closed_form_spends_few_oracle_points_per_ray(polydisc_report):
    for shape in ("ball", "polydisc"):
        assert witness_points_per_ray(polydisc_report, shape) <= 3


def test_witness_march_spends_few_oracle_points_per_ray(l1_report):
    # every ray marched, each given up once it cannot hold the least exit:
    # about 32 points per ray (72 when each runs to its own exit)
    for shape in ("ball", "polydisc"):
        assert witness_points_per_ray(l1_report, shape, bracketed=False) <= 40


def test_witness_grid_brackets_spend_few_oracle_points_per_ray(l1_report):
    # over an l1 base each ray's grid bracket is checked at both ends, and only
    # the brackets below the least upper end are bisected
    for shape in ("ball", "polydisc"):
        assert witness_points_per_ray(l1_report, shape) <= 4


def _positive(vals):
    return (vals > 0.0).any(axis=1)


def refined_alone(c, cap):
    """Exits of the polynomial paths with channels c (terms, channels, rows):
    each row's grid-scan bracket refined in a batch of its own, where it can
    hold the least exit."""
    lower, upper = dom._grid_brackets(c, cap, _positive)
    ends = [dom._refine_least_roots(c[..., i:i + 1], lower[i:i + 1], upper[i:i + 1],
                                    cap[i:i + 1]) for i in range(cap.size)]
    return np.array([0.5 * (lo[0] + hi[0]) for lo, hi in ends])


def test_polynomial_root_at_the_cap_is_the_cap():
    # |t|^2 - cap^2 plus rounding noise of a few 1e-15 crosses within an ulp
    # or two of cap; a row crossing below the cap keeps its Newton root
    rng = np.random.default_rng(47)
    cap = rng.uniform(0.5, 2.5, size=200)
    noise = rng.uniform(1e-15, 5e-15, size=200)
    c = np.stack([noise - cap ** 2, np.zeros(200), np.ones(200)])
    assert np.abs(refined_alone(c[:, None], cap) - cap).max() <= 1e-12
    inner = np.stack([-0.25 * np.ones(200), np.zeros(200), np.ones(200)])
    assert np.abs(refined_alone(inner[:, None], cap) - 0.5).max() <= 1e-12


def test_refiner_keeps_the_lesser_root_of_two_crossings_in_one_bracket():
    # a degree-2 path over the polydisc: coordinate 2 crosses its unit circle
    # at 0.95 s, coordinate 1 at 0.97 s, both between the marks 0.9305 and
    # 1.0422 of the march, so the scan stops on one bracket that holds both
    pd = polydisc(2)
    scale = np.linspace(0.99, 1.01, 5)
    rot = np.exp(1j * np.array([0.3, -1.1]))
    u = np.zeros((3, scale.size, 2), dtype=complex)
    u[2, :, 0] = rot[0] / (0.97 * scale) ** 2
    u[1, :, 1] = rot[1] / (0.95 * scale)
    alpha = np.zeros((3, scale.size), dtype=complex)
    alpha[0] = 1.0
    cap = np.full(scale.size, 2.0)
    marks = dom._MARCH_START * dom._MARCH_GROWTH ** np.arange(50)
    assert not ((marks > 0.94 * 0.99) & (marks < 0.98 * 1.01)).any()
    lower, upper = dom._path_exits(pd, u, alpha, cap)
    assert (upper - lower <= dom._EXIT_TOL).all()
    mid = 0.5 * (lower + upper)
    np.testing.assert_allclose(mid, 0.95 * scale, rtol=0, atol=1e-12)

    def on_path(z):
        # the middle path, scale 1, at t = Re z
        t = z[:, 0].real
        return dom.contains(pd, np.stack([u[2, 2, 0] * t ** 2, u[1, 2, 1] * t], axis=-1))

    march = dom._first_exits(on_path, np.zeros(1, dtype=complex), np.ones((1, 1), dtype=complex),
                             cap=2.0)
    assert abs(mid[2] - march[0]) <= dom._EXIT_TOL


def test_projective_ball_witness_rows_pass_both_end_checks():
    # the ball-shaped witness rays of the benchmark's projective family ball:
    # rows that cross between the last mark below their cap and the cap must
    # keep brackets that hold, refined or not
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                         bounding_radius=100.0)
    rep = certify(d, seed=0)
    oracle = rep.witness.contains
    # the rays of the report's ball-shaped witness figure
    dirs = boundary_samples(ball(2), 12000, np.random.default_rng(_stream(0, 51, 1)))
    lower, upper = rep.witness.exits(dirs)
    assert oracle(lower[:, None] * dirs).all()
    assert not oracle(upper[:, None] * dirs).any()
    assert abs(lower.min() / math.sqrt(2) - rep.witness_s) <= dom._EXIT_TOL


def without_inner_radius(w):
    """Set w's inner radius to 0, as a witness image whose enclosure passes
    no mark has it: no scan start, no pilot and no screen."""
    object.__setattr__(w, "_inner", 0.0)


def test_witness_chunks_refine_only_below_the_running_bound(monkeypatch):
    # a witness of a projective image of ball(2) with no inner radius, so no
    # ray is screened: its 12 000 witness rays go in three chunks of at most
    # 4096, each of which builds paths for every row.  Newton gets only rows
    # whose lower end lies below the least upper end of the chunks before,
    # and the least exit is the one of refining every chunk on its own
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0], bounding_radius=100.0)
    rep = certify(d, seed=0)
    without_inner_radius(rep.witness)
    assert rep.witness._inner == 0.0
    exits = rep.witness.exits
    dirs = boundary_samples(ball(2), 12000, np.random.default_rng(0))
    # the least exits first: each ray past the first chunk exits more than a
    # mark of the march above the least exit, so the running bound leaves
    # Newton no row of the later chunks, which refine some rows on their own
    dirs = dirs[np.argsort(exits(dirs)[1])]
    path_exits, bracketed_root = dom._path_exits, dom._bracketed_root
    running, chunks, refined = [np.inf], [0], []

    def chunk_exits(d, u, alpha, cap, bound=np.inf, start=0.0):
        assert bound == running[0]
        lower, upper = path_exits(d, u, alpha, cap, bound, start)
        running[0] = min(running[0], upper.min())
        chunks[0] += 1
        return lower, upper

    def root(c, lo, hi):
        assert (lo < running[0]).all()
        refined.append(lo.size)
        return bracketed_root(c, lo, hi)

    monkeypatch.setattr(dom, "_path_exits", chunk_exits)
    monkeypatch.setattr(dom, "_bracketed_root", root)
    lower, _ = exits(dirs)
    assert chunks[0] == 3
    rows = sum(refined)
    assert rows > 0

    refined.clear()
    running[0] = np.inf
    monkeypatch.setattr(dom, "_path_exits", lambda d, u, alpha, cap, bound=np.inf, start=0.0:
                        path_exits(d, u, alpha, cap, start=start))
    alone, _ = exits(dirs)
    assert sum(refined) > rows
    assert lower.min() == alone.min()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_disc_enclosure_is_sound_for_the_scan_start_and_the_screen(n):
    # over affine and projective chains of catalog bodies: every mark of the
    # march up to the inner radius T is inside along every ray, every
    # screened row exits above its certified lower end, and each product of
    # discs that passes `_disc_product_inside` lies in the image, its
    # distinguished boundary included.  Affine parts near the DFT matrix make
    # the Gram term the lesser one over ball, l1 and lp bodies
    rng = np.random.default_rng(60 + n)
    closed, scanned = witness_path_fixtures(n, rng)
    origin = np.zeros(n, dtype=complex)
    screened = passed = 0
    projective = {False: 0, True: 0}
    for maps, near_dft in (("half_plane", False), ("disc", False), ("half_plane", True)):
        for name, d in {**closed, **scanned}.items():
            w = random_witness(d, maps, rng, near_dft)
            oracle = w.contains
            inner = w._inner
            if inner == 0.0:
                # no mark passes only where the image misses a point of the
                # first mark's polydisc (the cayley image under a random disc
                # witness at n = 6 reaches 0.007 along some rays)
                dirs = boundary_samples(polydisc(n), 2000, rng)
                assert not oracle(dom._MARCH_START * dirs).all(), (maps, name)
                continue
            for body in (ball(n), polydisc(n)):
                # past one chunk of paths, so that later chunks are screened
                dirs = boundary_samples(body, dom._PATH_COEFFS // (n * n + n) + 1500, rng)
                assert oracle(dom._marks(inner)[:, None, None] * dirs).all(), (maps, name)
                lower, upper = w.exits(dirs)
                cut = np.isposinf(upper)
                march = dom._first_exits(oracle, origin, dirs[cut], cap=1e8)
                assert (march > lower[cut]).all(), (maps, name)
                screened += cut.sum()
            phase = np.exp(2j * np.pi * rng.uniform(size=(200, n)))
            a = inner * rng.uniform(0, 1, (200, n)) * phase
            rad = inner * rng.uniform(0, 1.5, (200, n))
            ok = dom._disc_product_inside(w._enclosure, a.T, rad.T)
            edge = np.exp(2j * np.pi * rng.uniform(size=(64, ok.sum(), n)))
            edge[32:] *= np.sqrt(rng.uniform(size=(32, ok.sum(), n)))
            assert oracle(a[ok] + rad[ok] * edge).all(), (maps, name)
            passed += ok.sum()
            assert not ok.all(), (maps, name)
            projective[d._projective] += 1
    assert screened > 0 and passed > 0
    assert projective[True] >= 2


def _row_major_gram_bound(d, affine_inv):
    """The Gram term (H, kappa) as the row-major enclosure took it."""
    if d._projective or d._body.kind not in dom.CATALOG_KINDS or d._body._p == math.inf:
        return None
    n_inv = d._n_inv if d.kind in dom.IMAGE_KINDS else np.eye(d.n)
    gamma = 8 * (3 * d.n + 8) * math.ulp(1.0)
    mat, size = n_inv @ affine_inv, np.abs(n_inv) @ np.abs(affine_inv)
    return (np.abs(mat.conj().T @ mat) + gamma * (size.T @ size),
            d.n ** max(1.0 / d._body._p - 0.5, 0.0) * (1.0 + gamma))


def _row_major_disc_product_inside(d, mobius, affine_inv, gram, a, rad):
    """The disc enclosure as it was before it went coordinate-major: a and
    rad (m, n), every constant recomputed at each call, NumPy's reductions
    in place of the column-wise ones (the same bits); the reference that
    `domains._disc_product_inside` must match boolean for boolean."""
    p, q, r, s = mobius
    gamma = 8 * (3 * d.n + 8) * math.ulp(1.0)
    rad = rad + gamma * (np.abs(a) + rad)
    top = np.abs(a) + rad
    q1, s1 = p * a + q, r * a + s
    mod_s1, mod_r = np.abs(s1), np.abs(r)
    gap = mod_s1 - mod_r * rad
    with np.errstate(divide="ignore", invalid="ignore"):
        span = gap * (mod_s1 + mod_r * rad)
        centre = (q1 * s1.conj() - p * r.conj() * rad ** 2) / span
        rho = rad * np.abs(p * s - q * r) / span
        mag = (np.abs(p) * top + np.abs(q) + (np.abs(centre) + rho) * (mod_r * top + np.abs(s))
               ) / gap
    if d.kind in dom.IMAGE_KINDS:
        n_inv, z0 = d._n_inv, d._z0
    else:
        n_inv, z0 = np.eye(d.n), np.zeros(d.n)
    mat = n_inv @ affine_inv
    w = centre @ mat.T - n_inv @ z0
    err = (mag @ np.abs(affine_inv).T + np.abs(z0)) @ np.abs(n_inv).T
    g = d._body._p
    if g == math.inf:
        f = np.max(np.abs(w) + rho @ np.abs(mat).T, axis=-1)
        slack = np.max(err, axis=-1)
    else:
        h, kappa = gram
        with np.errstate(invalid="ignore"):
            torus = np.minimum(rho @ np.linalg.norm(mat, ord=g, axis=0),
                               kappa * np.sqrt(np.sum((rho @ h) * rho, axis=-1)))
        f = np.linalg.norm(w, ord=g, axis=-1) + torus
        slack = np.linalg.norm(err, ord=g, axis=-1)
    return np.all((gap > 0.0) & (top < 1.0), axis=-1) & (f + gamma * slack < 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_coordinate_major_enclosure_matches_the_row_major_one(n):
    # ball, polydisc, l1 and lp bodies, alone, under an affine map and
    # translated, with half-plane and disc coordinate maps: random products
    # about the pass/fail edge, products over a coordinate map's pole (gap
    # <= 0), products reaching the unit circle, the zero-centre marks of
    # `_inner_radius`, and uniform radii at the edge of the test; n = 9 takes
    # NumPy's pairwise sums
    rng = np.random.default_rng(80 + n)
    shear = np.eye(n, dtype=complex) + np.tril(np.full((n, n), 0.4 - 0.3j), -1)
    marks = dom._marks(1.0)[:-1]
    counts = np.zeros(2, dtype=int)
    for body in (ball(n), polydisc(n), l1ball(n), lp_ball(n, 1.5)):
        point = 0.2 * rng.normal(size=2 * n).view(complex) / n
        for d in (body, affine_image(body, shear, point), translate(body, point)):
            for maps, near_dft in (("half_plane", False), ("disc", False), ("half_plane", True)):
                w = random_witness(d, maps, rng, near_dft)
                r, s = w._mobius[2:]
                phase = np.exp(2j * np.pi * rng.uniform(size=(300, n)))
                a = 0.4 * rng.uniform(0, 1, (300, n)) * phase
                rad = 0.4 * rng.uniform(0, 1, (300, n))
                with np.errstate(divide="ignore"):
                    pole = np.where(r != 0, -s / r, 1e3)
                a[:20], rad[:20] = 0.95 * pole, 0.1 * np.abs(pole)
                a[20:40] = -0.9 * phase[20:40]
                rad[20:40] = 0.2
                gram = _row_major_gram_bound(d, w.inverse)
                # uniform radii about 0 within 2e-13 of the row-major edge,
                # which the rounding slack moves by about 5e-14
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if _row_major_disc_product_inside(d, w._mobius, w.inverse, gram,
                                                      np.zeros((1, n)), np.full((1, n), mid))[0]:
                        lo = mid
                    else:
                        hi = mid
                edge = lo * (1.0 + 1e-14 * np.arange(-20, 21))
                a = np.concatenate([a, np.zeros((marks.size + edge.size, n))])
                rad = np.concatenate([rad, np.repeat(marks[:, None], n, axis=1),
                                      np.repeat(edge[:, None], n, axis=1)])
                ref = _row_major_disc_product_inside(d, w._mobius, w.inverse, gram, a, rad)
                got = dom._disc_product_inside(w._enclosure, np.ascontiguousarray(a.T),
                                               np.ascontiguousarray(rad.T))
                np.testing.assert_array_equal(got, ref)
                assert not got[:40].any() and 0 < got[-edge.size:].sum() < edge.size
                counts += got.sum(), (~got).sum()
    assert (counts > 0).all()


def test_gathered_witness_chunks_on_l1ball6(monkeypatch):
    # the l1ball(6) report's witness rays at seed 0, both shapes: past its
    # pilot each shape builds the rays that the screen leaves in at most one
    # `_path_exits` call, no call builds more than one chunk of paths, and
    # every screen call takes at most one block of rays
    w = certify(l1ball(6), seed=0).witness
    assert w._inner > 0.0
    inside, screens = dom._disc_product_inside, []

    def screen(enclosure, a, rad):
        screens.append(a.shape[1])
        return inside(enclosure, a, rad)

    monkeypatch.setattr(dom, "_disc_product_inside", screen)
    sizes, chunk = path_rows_per_call(monkeypatch), dom._PATH_COEFFS // 42
    rays = 0
    for k, body in enumerate((polydisc(6), ball(6))):
        done = len(sizes)
        dirs = boundary_samples(body, 12000, np.random.default_rng(_stream(0, 51, k)))
        lower, upper = w.exits(dirs)
        built = sizes[done:]
        assert built[0] == dom._PILOT_ROWS
        assert 1 <= len(built) <= 2 and max(built) <= chunk
        assert np.isposinf(upper).sum() == dirs.shape[0] - sum(built)
        rays += dirs.shape[0] - dom._PILOT_ROWS
    assert len(sizes) <= 3
    assert max(screens) <= dom._SCREEN_ROWS and sum(screens) == rays


def _exact(values):
    """Complex floats as exact Gaussian rationals (re, im)."""
    return [(Fraction(complex(x).real), Fraction(complex(x).imag)) for x in values]


def _dot(xs, ys):
    """sum_j x_j y_j of Gaussian rationals."""
    return (sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(xs, ys)),
            sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(xs, ys)))


def _exact_gram_moduli_squared(n_inv, affine_inv):
    """|B^H B|^2 entrywise in exact rationals, B the exact product of the two
    float matrices."""
    left, right = [_exact(row) for row in n_inv], [_exact(col) for col in affine_inv.T]
    cols = [[_dot(row, col) for row in left] for col in right]  # the columns of B
    conj = [[(x[0], -x[1]) for x in col] for col in cols]
    return [[sum(v * v for v in _dot(cj, ck)) for ck in cols] for cj in conj]


def test_gram_bound_covers_the_exact_product_of_the_float_matrices():
    # H >= |B^H B| entrywise for B = N^-1 affine_inv in exact arithmetic:
    # the l1ball(6) frame's witness (B a scaled DFT matrix) and sheared
    # l1, lp and ball images under random affine parts; kappa is n^(1/p - 1/2)
    # for p < 2 and 1 from p = 2 on, widened outward
    rng = np.random.default_rng(70)
    shear = np.eye(6, dtype=complex) + np.tril(np.full((6, 6), 0.4 - 0.3j), -1)
    cases = [(certify(l1ball(6), seed=0).witness, 6 ** 0.5)]
    for d, kappa in ((affine_image(l1ball(6), shear), 6 ** 0.5),
                     (affine_image(lp_ball(4, 1.5), shear[:4, :4]), 4 ** (1 / 1.5 - 0.5)),
                     (affine_image(ball(3), shear[:3, :3]), 1.0),
                     (affine_image(lp_ball(3, 3.0), shear[:3, :3]), 1.0)):
        for near_dft in (False, True):
            cases.append((random_witness(d, "half_plane", rng, near_dft), kappa))
    for w, kappa in cases:
        d = w.domain
        h, got = w._enclosure.h, w._enclosure.kappa
        assert kappa < got <= kappa * (1 + 1e-12)
        n_inv = d._n_inv if d.kind == "affine_image" else np.eye(d.n)
        exact = _exact_gram_moduli_squared(n_inv, w.inverse)
        assert all(Fraction(h[j, k]) ** 2 >= exact[j][k]
                   for j in range(d.n) for k in range(d.n)), d.kind
    # a polydisc body keeps its exact supremum, and defining functions have
    # no enclosure
    assert random_witness(polydisc(3), "half_plane", rng)._enclosure.h is None
    w = certify(projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                 bounding_radius=100.0), seed=0).witness
    assert dom._enclosure(defining_domain(2, "abs(z1)**2+abs(z2)**2-1", "convex"), w._mobius,
                          w.inverse) is None


@pytest.mark.parametrize("n", [2, 3, 6])
def test_disc_enclosure_attains_the_torus_supremum_of_a_dft_l1_image(n):
    # B = DFT/n over l1ball(n), under the identity Mobius maps: a chirp zeta
    # gives every coordinate of B zeta the modulus 1/sqrt(n), so the product
    # of discs of radius rho about 0 reaches the l1 gauge sqrt(n) rho, the
    # Gram term's value; the triangle inequality reads n rho.  The test
    # passes the product just below rho = 1/sqrt(n) and fails it just above,
    # where its chirp point leaves the body
    d = l1ball(n)
    dft = np.fft.fft(np.eye(n)) / n
    identity = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex).repeat(n, axis=1)
    j = np.arange(n)
    chirp = np.exp(-1j * np.pi * (j * j if n % 2 == 0 else j * (j + 1)) / n)
    np.testing.assert_allclose(np.abs(dft @ chirp), n ** -0.5, rtol=1e-14)
    below, above = n ** -0.5 * (1.0 - 1e-9), n ** -0.5 * (1.0 + 1e-9)
    ok = dom._disc_product_inside(dom._enclosure(d, identity, dft), np.zeros((n, 2)),
                                  np.array([[below, above]] * n))
    assert ok.tolist() == [True, False]
    assert dom.contains(d, dft @ (below * chirp)) and not dom.contains(d, dft @ (above * chirp))


def _exact_divisor_squared(w, y):
    """|1 - e.u|^2 in exact rationals at the float point y of the witness
    image: u = N^-1 (affine_inv psi(y) - z0) from the float Mobius rows,
    matrices, z0 and e, each taken exactly."""
    d, one = w.domain, (Fraction(1), Fraction(0))
    psi = []
    for coeffs, yj in zip(w._mobius.T, _exact(y)):
        p, q, r, s = _exact(coeffs)
        num, den = _dot((p, q), (yj, one)), _dot((r, s), (yj, one))
        size = den[0] ** 2 + den[1] ** 2
        top = _dot((num,), ((den[0], -den[1]),))
        psi.append((top[0] / size, top[1] / size))
    z = [_dot(_exact(row), psi) for row in w.inverse]
    z = [(zk[0] - c[0], zk[1] - c[1]) for zk, c in zip(z, _exact(d._z0))]
    eu = _dot(_exact(d._e), [_dot(_exact(row), z) for row in d._n_inv])
    return (1 - eu[0]) ** 2 + eu[1] ** 2


def projective_witnesses(rng):
    """Witnesses of projective chains: the projective family ball's, as
    certify builds it, and random ones over the cayley fixtures at n = 2, 3
    and a sheared projective lp ball."""
    ball_family = projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                   bounding_radius=100.0)
    out = [certify(ball_family, seed=0).witness]
    for n in (2, 3):
        cayley = witness_path_fixtures(n, rng)[0]["cayley"]
        out += [random_witness(cayley, maps, rng) for maps in ("half_plane", "disc")]
    shear = np.eye(3, dtype=complex) + np.tril(np.full((3, 3), 0.4 - 0.3j), -1)
    lp = projective_image(lp_ball(3, 1.5), shear, np.zeros(3), [2.0, 0.3j, 0.0, -0.4],
                          bounding_radius=100.0)
    out.append(random_witness(lp, "half_plane", rng))
    return out


def test_projective_denominator_bound_holds_in_exact_arithmetic():
    # delta <= |1 - e.u| in exact rationals on the distinguished boundary of
    # products that pass, where |1 - e.u|, holomorphic and zero-free over a
    # product, takes its least modulus
    rng = np.random.default_rng(90)
    checked = 0
    for w in projective_witnesses(rng):
        n, inner = w.n, w._inner
        assert inner > 0.0
        phase = np.exp(2j * np.pi * rng.uniform(size=(100, n)))
        a = inner * rng.uniform(0, 1, (100, n)) * phase
        rad = inner * rng.uniform(0, 1.5, (100, n))
        ok = dom._disc_product_inside(w._enclosure, a.T, rad.T)
        _, num, den = dom._disc_product_bounds(w._enclosure, a.T, rad.T)
        assert 0 < ok.sum() < ok.size
        for k in np.flatnonzero(ok)[:12]:
            assert 0.0 <= num[k] < den[k]
            edge = np.exp(2j * np.pi * rng.uniform(size=(8, n)))
            for y in a[k] + rad[k] * edge:
                assert Fraction(den[k]) ** 2 <= _exact_divisor_squared(w, y)
                checked += 1
    assert checked >= 300


def test_projective_enclosure_edge_keeps_both_rounding_slacks():
    # w = z / (1 + 0.9 z_1) over ball(2) under the identity witness: along
    # the negative real z_1 axis the body's edge is 1 / (1 + 0.9) exactly,
    # and there the numerator and the denominator reach their bounds at one
    # point.  The points that pass stop short of it by the two rounding
    # slacks and the widened radii: 4.0 gamma relative (2.05 gamma without
    # the denominator's slack)
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [1.0, -0.9, 0.0])
    identity = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex).repeat(2, axis=1)
    enc = dom._enclosure(d, identity, np.eye(2, dtype=complex))
    assert enc.gamma == 8 * (4 * 2 + 10) * math.ulp(1.0)

    def passes(x):
        return dom._disc_product_inside(enc, np.array([[-x], [0.0]], dtype=complex),
                                        np.zeros((2, 1)))[0]

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    margin = float(1 - Fraction(lo) * (1 + Fraction(0.9))) / enc.gamma
    assert 3.0 <= margin <= 5.0
    assert dom.contains(d, np.array([-lo, 0.0]))


def test_disc_enclosure_clears_the_horizon_of_the_preimage():
    # a point product at u = (x, 0) with e.u = 1 - 0.99e-13, for an e far
    # outside the unit dual ball that no bounded chain has: its divisor lies
    # under `_preimage`'s horizon tolerance, where the oracle puts the point
    # at +inf.  With the rounding slack taken out (gamma = 0), its
    # denominator bound still clears the numerator bound, and the horizon
    # clearance alone keeps it from passing
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [1.0, -0.9, 0.0])
    identity = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex).repeat(2, axis=1)
    x = 1e-17
    e = np.array([(1.0 - 0.99e-13) / x, 0.0], dtype=complex)
    enc = dom._enclosure(d, identity, np.eye(2, dtype=complex))._replace(
        gamma=0.0, e=e, abs_e=np.abs(e), abs_eb=np.abs(e))
    a, rad = np.array([[x], [0.0]], dtype=complex), np.zeros((2, 1))
    valid, num, den = dom._disc_product_bounds(enc, a, rad)
    assert valid[0] and 0.0 < num[0] < den[0] < dom._HORIZON
    assert not dom._disc_product_inside(enc, a, rad)[0]
    chain = SimpleNamespace(_z0=np.zeros(2), _n_inv=np.eye(2), _projective=True, _e=e)
    assert not dom._preimage(chain, a.T)[1][0]


def test_projective_family_ball_witness_is_screened(monkeypatch):
    # the cconvex_images fixture's witness at seed 0: an inner radius, and a
    # screen that leaves few of its 24 000 rays a path (24 024 rows without)
    rep = certify(projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                   bounding_radius=100.0), seed=0)
    w = rep.witness
    assert w._inner > 0.0
    sizes = path_rows_per_call(monkeypatch)
    assert w.radii(12000, 0) == (rep.witness_s, rep.witness_s_hat)
    assert sum(sizes) <= 4000


def test_first_exits_gives_up_a_certified_row_at_the_least_held_upper_end():
    # unit-ball rays exiting at 1, 2 and 0.5; the first is bracketed, the
    # others carry certified lower ends (lower, +inf)
    points = [0]

    def inside(y):
        points[0] += y.shape[0]
        return np.linalg.norm(y, axis=-1) < 1.0

    origin = np.zeros(2, dtype=complex)
    dirs = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]], dtype=complex)
    tol = 0.4 * dom._EXIT_TOL

    def least(rows, lower, upper):
        points[0] = 0
        got = dom._first_exits(inside, origin, dirs[rows], 1e8, (np.array(lower), np.array(upper)),
                               least=True)
        return got, points[0]

    # the base and both ends of the one bracket: a certified row at or above
    # its upper end costs no oracle point
    alone = least([0], [1.0 - tol], [1.0 + tol])
    assert least([0, 1], [1.0 - tol, 1.5], [1.0 + tol, np.inf]) == alone
    assert least([0, 1], [1.0 - tol, 1.0 + tol], [1.0 + tol, np.inf]) == alone
    # one below it marches, and the least is the march's
    got, spent = least([0, 2], [1.0 - tol, 0.3], [1.0 + tol, np.inf])
    assert spent > alone[1]
    assert got == dom._first_exits(inside, origin, dirs[2:], 1e8)[0]
    # outside the least mode a certified row marches to its own exit
    ends = (np.array([1.0 - tol, 1.5, 0.3]), np.array([1.0 + tol, np.inf, np.inf]))
    every = dom._first_exits(inside, origin, dirs, 1e8, ends)
    march = dom._first_exits(inside, origin, dirs, 1e8)
    assert np.array_equal(every[1:], march[1:])


def test_screen_takes_most_witness_rows_after_the_pilot(polydisc_report):
    # the polydisc-shaped rays of polydisc(2)'s report: the pilot chunk builds
    # every path, and its least upper end screens the rest of the first 4096
    # rays as it does every later chunk
    dirs = boundary_samples(polydisc(2), 12000, np.random.default_rng(_stream(0, 51, 0)))
    lower, upper = polydisc_report.witness.exits(dirs)
    pilot, chunk = dom._PILOT_ROWS, dom._PATH_COEFFS // 6
    assert 0 < pilot < chunk
    assert np.isfinite(upper[:pilot]).all()
    assert np.isposinf(upper[pilot:chunk]).mean() >= 0.9
    assert np.isposinf(upper[pilot:]).mean() >= 0.9


def path_rows_per_call(monkeypatch):
    """The list that each later `_path_exits` call appends its path count to."""
    path_exits, sizes = dom._path_exits, []

    def counted(d, u, alpha, cap, bound=np.inf, start=0.0):
        sizes.append(u.shape[1])
        return path_exits(d, u, alpha, cap, bound, start)

    monkeypatch.setattr(dom, "_path_exits", counted)
    return sizes


def test_witness_without_an_inner_radius_keeps_the_plain_chunks(monkeypatch):
    # a witness with inner radius 0: no pilot and no screen, one
    # `_path_exits` call per chunk of _PATH_COEFFS coefficients
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0], bounding_radius=100.0)
    rep = certify(d, seed=0)
    without_inner_radius(rep.witness)
    assert rep.witness._inner == 0.0
    dirs = boundary_samples(ball(2), 12000, np.random.default_rng(0))
    sizes = path_rows_per_call(monkeypatch)
    lower, upper = rep.witness.exits(dirs)
    chunk = dom._PATH_COEFFS // 6
    assert sizes == [chunk] * (dirs.shape[0] // chunk) + [dirs.shape[0] % chunk]
    assert np.isfinite(upper).all()


def test_witness_pilot_is_at_most_one_chunk(monkeypatch):
    # at n = 10 a chunk of degree-10 paths holds 223 rays, fewer than the
    # pilot's 256: the pilot takes one chunk, and no call builds more paths
    n = 10
    w = random_witness(polydisc(n), "half_plane", np.random.default_rng(12))
    assert w._inner > 0.0
    sizes = path_rows_per_call(monkeypatch)
    w.exits(boundary_samples(polydisc(n), 1000, np.random.default_rng(13)))
    chunk = dom._PATH_COEFFS // (n * n + n)
    assert chunk < dom._PILOT_ROWS
    assert sizes[0] == chunk and max(sizes) <= chunk


# seed-0 witness figures (s, s_hat); a change to the exit engine that keeps
# its exits keeps these to _EXIT_TOL
_PINNED_WITNESSES = {
    "ball": (lambda: ball(2), None, 0.23570226039529585, 0.2612038749634186),
    "polydisc": (lambda: polydisc(2), None, 0.23570226039529585, 0.33333333333302223),
    "l1ball": (lambda: l1ball(2), None, 0.23570226039556685, 0.2739546324552925),
    "polydisc_cconvex": (lambda: polydisc(2), "cconvex", 0.7071067811862646, 0.9999999999995998),
    "projective_family_ball": (
        lambda: projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                 bounding_radius=100.0), None,
        0.5500827396003929, 0.5539372065124937),
    "shear": (lambda: affine_image(polydisc(2), np.array([[1.0, 0.0], [0.5 + 0.3j, 1.0]])),
              None, 0.23570226039528733, 0.3333333333330102),
}


@pytest.mark.parametrize("name", sorted(_PINNED_WITNESSES))
def test_witness_figures_are_pinned(name):
    make, cls, s, s_hat = _PINNED_WITNESSES[name]
    rep = certify(make(), convexity_class=cls, seed=0)
    assert abs(rep.witness_s - s) <= dom._EXIT_TOL
    assert abs(rep.witness_s_hat - s_hat) <= dom._EXIT_TOL


def test_cconvex_polydisc_witness_rays_do_not_stall_at_the_cap(monkeypatch):
    # every witness ray of the C-convex polydisc crosses at its unit-polydisc
    # clip, where its polynomial is rounding noise: no Newton rounds are spent there
    rounds = []  # one count per call of _bracketed_root
    in_root = [False]
    horner, bracketed_root = dom._horner, dom._bracketed_root

    def counted_horner(c, t):
        if in_root[0]:
            rounds[-1] += 1
        return horner(c, t)

    def counted_root(c, lo, hi):
        rounds.append(0)
        in_root[0] = True
        try:
            return bracketed_root(c, lo, hi)
        finally:
            in_root[0] = False

    monkeypatch.setattr(dom, "_horner", counted_horner)
    monkeypatch.setattr(dom, "_bracketed_root", counted_root)
    rep = certify(polydisc(2), convexity_class="cconvex", seed=0)
    assert rounds and max(rounds) <= 8
    assert 1.0 - 1e-12 < rep.witness_s_hat < 1.0


# -- certify: convex fixtures -------------------------------------------------

def test_certify_polydisc(polydisc_report):
    rep = polydisc_report
    consts = universal_bounds(2)
    assert rep.certified_s == consts.convex_ball
    assert rep.certified_s_hat == consts.convex_polydisc
    assert rep.certified_s_hat == pytest.approx(1.0 / 7.0)
    norm = rep.normalizer
    eye = np.eye(2)
    assert np.abs(norm.t_matrix.entries - eye).max() < 1e-9
    assert np.abs(norm.a_matrix.entries - eye).max() < 1e-9
    assert abs(rep.witness_s_hat - 1.0 / 3.0) < 1e-3
    for margin in rep.margins.values():
        assert margin.violations == 0


def test_certify_ball(ball_report):
    rep = ball_report
    consts = universal_bounds(2)
    assert rep.certified_s == consts.convex_ball
    assert rep.witness_s > tau(1.0 / np.sqrt(5.0)) / np.sqrt(2.0) - 1e-12
    assert rep.witness_s > rep.certified_s


def test_certify_l1ball(l1_report):
    rep = l1_report
    consts = universal_bounds(2)
    assert rep.certified_s == consts.convex_ball
    assert rep.certified_s_hat == consts.convex_polydisc
    assert np.allclose(rep.diagnostics["radii"], 1.0 / np.sqrt(2.0), atol=1e-6)
    assert rep.witness_s_hat > rep.certified_s_hat
    assert rep.witness_s > rep.certified_s


def test_certify_reports_are_strict(polydisc_report, ball_report, l1_report):
    for rep in (polydisc_report, ball_report, l1_report):
        assert rep.witness_s > rep.certified_s
        assert rep.witness_s_hat > rep.certified_s_hat
        assert rep.diagnostics["alpha_max"] < 1.0
        assert rep.margins["ball_in_sheared_simplex"].min_slack > 0.0


def test_certify_shear_margins_are_the_closed_forms(polydisc_report, projective_report):
    for rep in (polydisc_report, projective_report):
        inv = inverse_coefficients(rep.normalizer.a_matrix).entries
        for key, slack in zip(("pd_in_sheared_simplex", "ball_in_sheared_simplex"),
                              _shear_slacks(inv)):
            margin = rep.margins[key]
            assert (margin.samples, margin.violations, margin.min_slack) == (0, 0, slack)
        assert "closed_ball_strictness" not in rep.margins


# -- certify: C-convex fixtures -----------------------------------------------

def test_certify_projective_fixture(projective_report):
    rep = projective_report
    consts = universal_bounds(2)
    assert rep.certified_s == consts.cconvex_ball
    assert rep.certified_s_hat == consts.cconvex_polydisc
    assert rep.diagnostics["alpha_max"] <= 1.0 + 1e-9
    # a polydisc base under a projective map has no closed-form projection
    # disc, so there is no witness and nothing to cross-check
    assert rep.projections == (None, None)
    assert rep.diagnostics["matched_projections"] == [None, None]
    assert rep.witness is None
    assert rep.witness_s is None and rep.witness_s_hat is None
    assert "projection_discs" not in rep.margins


def test_certify_reports_the_frame_stage_counters(ball_report, projective_report):
    # each stage's search work as counts, never wall times: a catalog ball
    # takes every contact in closed form, its one ray and no round; the
    # projective fixture walks, and a second run reports the same counts
    assert ball_report.diagnostics["frame_stages"] == [
        {"search": "closed_form", "rounds": 0, "refines": 0, "exit_batches": 1}] * 2
    stages = projective_report.diagnostics["frame_stages"]
    assert [c["search"] for c in stages] == ["walked", "walked"]
    assert all(c["rounds"] > 0 and c["refines"] >= 1 for c in stages)
    assert all(type(v) is int for c in stages for k, v in c.items() if k != "search")
    assert certify(projective_fixture(), seed=0).diagnostics["frame_stages"] == stages


def test_certify_polydisc_as_cconvex(polydisc_cconvex_report):
    rep = polydisc_cconvex_report
    consts = universal_bounds(2)
    assert rep.certified_s == consts.cconvex_ball
    assert rep.witness is not None
    # the exact projections are the unit disc, so the witness is the identity
    for proj in rep.projections:
        assert proj.kind == "disc"
        assert abs(proj.center) < 1e-9
        assert abs(proj.radius - 1.0) < 1e-9
    assert abs(rep.witness_s_hat - 1.0) < 1e-9
    assert abs(rep.witness_s - 1.0 / math.sqrt(2.0)) < 1e-9
    margin = rep.margins["projection_discs"]
    assert (margin.samples, margin.violations) == (2 * 100_000, 0)
    assert margin.min_slack >= 0.0


def test_certify_projective_ball_gets_a_witness():
    # the ball-based member of the projective family, as the benchmark builds it
    d = projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                         bounding_radius=100.0)
    rep = certify(d, seed=0)
    consts = universal_bounds(2)
    assert rep.diagnostics["matched_projections"] == ["disc", "disc"]
    assert rep.witness is not None
    assert rep.witness_s > consts.cconvex_ball
    assert rep.witness_s_hat > consts.cconvex_polydisc
    margin = rep.margins["projection_discs"]
    assert margin.violations == 0 and margin.min_slack >= 0.0


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("make", [
    ball, polydisc, l1ball, lambda n: lp_ball(n, 1.5), lambda n: lp_ball(n, 3.0),
], ids=["ball", "polydisc", "l1ball", "lp_ball(1.5)", "lp_ball(3)"])
def test_certify_runs_on_every_catalog_kind_to_dimension_eight(make, n):
    rep = certify(make(n), seed=0)
    assert rep.witness_s > rep.certified_s
    assert rep.witness_s_hat > rep.certified_s_hat
    assert all(m.violations == 0 for m in rep.margins.values())


@pytest.mark.parametrize("matrix,radii", [
    (np.diag([1.0, 1e-5, 1.0]), [1e-5, 1.0, 1.0]),
    (np.array([[1.0, 0.0], [1e4, 1.0]]), [1e-4, 1e4]),
], ids=["thin_axis", "steep_shear"])
def test_certify_polydisc_images_with_small_contact_radii(matrix, radii):
    # below radius 4e-4 a contact's face coordinate sits more than 1e-9 under
    # 1; the face test measures against the largest modulus instead
    rep = certify(affine_image(polydisc(len(radii)), matrix))
    assert np.allclose(rep.diagnostics["radii"], radii, rtol=1e-6, atol=0)
    assert all(m.violations == 0 for m in rep.margins.values())


@pytest.mark.parametrize("budget", [
    {"samples": 0}, {"samples": -1}, {"rays": 0},
    pytest.param({"cloud_samples": 0}, id="no_cloud"),
    pytest.param({"cloud_samples": -5}, id="negative_cloud"),
    pytest.param({"spot_trials": -1}, id="negative_spot_trials"),
    pytest.param({"n_starts": -3}, id="negative_starts"),
    pytest.param({"rays": 2.5}, id="fractional_rays"),
    pytest.param({"samples": 2.5}, id="fractional_samples"),
    pytest.param({"seed": 1.5}, id="fractional_seed"),
    pytest.param({"seed": -1}, id="negative_seed"),
    pytest.param({"seed": True}, id="bool_seed"),
    # the report carries the seed as an integer
    pytest.param({"seed": np.random.SeedSequence(0)}, id="seed_sequence"),
])
def test_certify_rejects_nonpositive_budgets(budget):
    (name, _), = budget.items()
    with pytest.raises(ArgumentError, match=f"{name} must be a (positive|non-negative) integer"):
        certify(polydisc(2), convexity_class="cconvex", **{"spot_trials": 0, **budget})


def test_certify_zero_spot_trials_and_starts_keep_their_meaning():
    # no spot check, and the canonical frame starts only
    rep = certify(polydisc(2), samples=200, rays=200, spot_trials=0, n_starts=0)
    assert rep.diagnostics["radii"] == pytest.approx([1.0, 1.0])


def test_certify_class_mismatch():
    with pytest.raises(ClassMismatchError):
        certify(projective_fixture(), convexity_class="convex", seed=0)
    with pytest.raises(ArgumentError):
        certify(polydisc(2), convexity_class="starlike")


def test_certify_class_mismatch_without_spot_check_comes_from_the_normalizer():
    with pytest.raises(ClassMismatchError, match="supporting-hyperplane validation failed"):
        certify(projective_fixture(), convexity_class="convex", spot_trials=0, seed=0)


@pytest.mark.parametrize("make, cls", [(lambda: polydisc(2), None),
                                       (projective_fixture, None),
                                       (lambda: polydisc(2), "cconvex")])
def test_hyperplane_clearance_margin_is_the_normalizer_s(make, cls, monkeypatch):
    draws = []
    real = dom.interior_samples

    def counted(d, count, rng):
        draws.append(count)
        return real(d, count, rng)

    # the top-level interior draws of certify and of its normalizer
    monkeypatch.setattr(bounds_module, "interior_samples", counted)
    monkeypatch.setattr(frame_module, "interior_samples", counted)
    rep = certify(make(), convexity_class=cls, samples=300, rays=300, spot_trials=0,
                  cloud_samples=5000, seed=1)
    margin = rep.margins["hyperplane_clearance"]
    assert margin.min_slack == rep.normalizer.margins["hyperplane_clearance"] > 0
    assert margin.samples == 300 * rep.n and margin.violations == 0
    # the normalizer's one draw, plus the disc cross-check's when a disc exists
    assert draws == [300] + ([5000] if "projection_discs" in rep.margins else [])


def test_certify_spot_check_refuses_a_false_convex_declaration():
    # two bumps around z1 = +-1 joined by a waist: midpoints of interior
    # pairs leave the domain, so the midpoint spot check fails before the frame
    d = defining_domain(2, "abs(z1**2-1)+abs(z2)**2-1.1", "convex", bounding_radius=5.0)
    with pytest.raises(ClassMismatchError, match="spot checks contradict the convex declaration"):
        certify(d, seed=0)


# -- witness evaluation -------------------------------------------------------

def test_witness_eval_known_points(polydisc_report):
    w = polydisc_report.witness
    assert np.allclose(w(np.zeros(2)), 0.0, atol=1e-14)
    assert np.allclose(w(np.array([-1.0, 0.0])),
                       [-1.0 / 3.0, 0.0], atol=1e-12)
    assert np.allclose(w(np.array([0.3, 0.0])),
                       [0.3 / 1.7, 0.0], atol=1e-12)


def test_witness_eval_batch_shape(polydisc_report):
    w = polydisc_report.witness
    z = np.zeros((5, 4, 2), dtype=complex)
    assert w(z).shape == (5, 4, 2)


def test_witness_injectivity_sampling(l1_report):
    w = l1_report.witness
    rng = np.random.default_rng(2)
    from squeezecert.domains import interior_samples
    z = interior_samples(l1ball(2), 20_000, rng)
    img = w(z)
    a, b = img[:10_000], img[10_000:]
    za, zb = z[:10_000], z[10_000:]
    apart = np.linalg.norm(za - zb, axis=1) >= 1e-6
    assert np.all(np.linalg.norm(a[apart] - b[apart], axis=1) > 1e-12)


def test_witness_target_containment(polydisc_report):
    w = polydisc_report.witness
    rng = np.random.default_rng(4)
    from squeezecert.domains import interior_samples
    z = interior_samples(polydisc(2), 100_000, rng)
    img = w(z)
    assert np.max(np.abs(img)) < 1.0
    # the ball-target witness is the polydisc witness scaled by 1/sqrt(n)
    assert np.max(np.linalg.norm(img, axis=1)) / np.sqrt(2.0) < 1.0


def test_witness_map_has_only_domain_affine_and_maps(polydisc_report):
    w = polydisc_report.witness
    assert [f.name for f in dataclasses.fields(WitnessMap)] == [
        "domain", "affine", "inverse", "coordinate_maps"]
    assert not w.affine.flags.writeable
    assert not w.inverse.flags.writeable


def test_stored_arrays_are_read_only_copies_of_the_callers():
    # a frozen field or map datum is a copy: the caller may go on writing
    # into its own array, and the stored one refuses writes
    m = np.array([[1.0, 0.0], [0.4 - 0.3j, 1.0]])
    den = np.array([3.0, 0.5, 0.0], dtype=complex)
    d = projective_image(affine_image(polydisc(2), m), m, np.zeros(2, dtype=complex), den)
    inv = np.linalg.inv(m)
    w = WitnessMap(domain=polydisc(2), affine=m, inverse=inv,
                   coordinate_maps=tuple(riemann_catalog(half_plane()) for _ in range(2)))
    for mine, stored in ((m, d.matrix), (m, d.base.matrix), (den, d.denominator),
                         (m, w.affine), (inv, w.inverse)):
        assert stored is not mine and np.array_equal(stored, mine)
        assert mine.flags.writeable and not stored.flags.writeable
    m[1, 0] = 0.0
    assert d.matrix[1, 0] == 0.4 - 0.3j and w.affine[1, 0] == 0.4 - 0.3j


# the benchmark fixtures with a witness at seed 0: the eight convex catalog
# ones, the projective family ball and the C-convex polydisc
_WITNESS_FIXTURES = dict(zip(
    ["ball2", "ball3", "polydisc2", "l1ball2", "lp_ball2", "shear2", "translated_ball2", "l1ball6",
     "projective_family_ball2", "polydisc2_cconvex"],
    _bench_fixtures()[:8] + _bench_fixtures()[10:]))


@pytest.mark.parametrize("name", list(_WITNESS_FIXTURES))
def test_witness_round_trip(name):
    d = _WITNESS_FIXTURES[name]
    w = certify(d, seed=0).witness
    assert w is not None
    img = w(interior_samples(d, 2000, np.random.default_rng(0)))
    assert np.abs(img).max() < 1.0
    assert w.contains(img).all()
    assert np.abs(w.inverse @ w.affine - np.eye(d.n)).max() <= 1e-12


def test_witness_raises_its_map_domain_error_past_the_hyperplane(polydisc_report):
    # the half-plane witness sends (-1, 0) to (-1/3, 0); (1.5, 0) lies past
    # the normalized hyperplane Re w_1 = 1, outside the first coordinate map
    with pytest.raises(MapDomainError):
        polydisc_report.witness(np.array([1.5, 0.0]))


def test_witness_map_needs_mobius_coordinate_inverses():
    # the slit plane's inverse is the Koebe map, which no Mobius matrix writes
    maps = (riemann_catalog(half_plane()), riemann_catalog(slit_plane()))
    with pytest.raises(ArgumentError, match="Mobius"):
        WitnessMap(domain=polydisc(2), affine=np.eye(2), inverse=np.eye(2), coordinate_maps=maps)


@pytest.mark.parametrize("d, cls", [(l1ball(2), "convex"), (polydisc(2), "cconvex")])
def test_inscribed_ball_is_polydisc_witness_image_over_sqrt_n(d, cls):
    rep = certify(d, convexity_class=cls, samples=400, rays=300, seed=3, spot_trials=0)
    assert rep.witness is not None
    oracle = rep.witness.contains
    guess = rep.witness.exits
    # the ball witness is the polydisc witness map scaled by 1/sqrt(n)
    ball_estimate = inscribed_radius_estimate(oracle, 2, shape="ball", rays=300,
                                              seed=_stream(3, 51, 1), guess=guess)
    assert rep.witness_s == ball_estimate / math.sqrt(2)
    assert rep.witness_s_hat == inscribed_radius_estimate(
        oracle, 2, shape="polydisc", rays=300, seed=_stream(3, 51, 0), guess=guess)
    assert rep.witness.radii(300, 3) == (rep.witness_s, rep.witness_s_hat)


# -- serialization and determinism --------------------------------------------

def test_report_json_schema(projective_report):
    data = report_to_json(projective_report)
    assert data["schema"] == "squeeze-cert/1"
    assert data["class"] == "cconvex"
    assert data["witness"] == {"present": False, "s": None, "s_hat": None}
    assert data["projections"] == [None, None]
    json.dumps(data)


def test_report_json_projection_discs(polydisc_cconvex_report):
    data = report_to_json(polydisc_cconvex_report)
    for entry, disc in zip(data["projections"], polydisc_cconvex_report.projections):
        assert entry == {"kind": "disc", "center": [disc.center.real, disc.center.imag],
                         "radius": disc.radius}
    json.dumps(data)


def test_report_json_convex(polydisc_report):
    data = report_to_json(polydisc_report)
    assert set(data["witness"]) == {"present", "s", "s_hat"}
    assert data["witness"]["present"] is True
    assert data["witness"]["s_hat"] == polydisc_report.witness_s_hat
    assert data["projections"] == []
    json.dumps(data)


def test_certify_deterministic():
    a = report_to_json(certify(ball(2), samples=400, seed=3, rays=500,
                               spot_trials=50))
    b = report_to_json(certify(ball(2), samples=400, seed=3, rays=500,
                               spot_trials=50))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
