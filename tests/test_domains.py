"""Domain membership, ray exits, tangent functionals, and the JSON schema."""

import json

import numpy as np
import pytest

from squeezecert.domains import (
    ALL_KINDS,
    DomainSpec,
    affine_image,
    ball,
    boundary_residual,
    contains,
    convexity_spot_check,
    defining_domain,
    domain_from_json,
    domain_to_json,
    forward_map,
    interior_samples,
    l1ball,
    lp_ball,
    polydisc,
    projective_image,
    ray_exit,
    ray_exit_batch,
    tangent_functional,
    translate,
)
from squeezecert.errors import (
    ArgumentError,
    DomainFormatError,
    NonsmoothBoundaryError,
    RayCapError,
)


def cayley_polydisc():
    """Projective image of the unit bidisc under (w1, w2) -> (w1, w2)/(2 - w1)."""
    return projective_image(
        polydisc(2), np.eye(2), np.zeros(2), [2.0, -1.0, 0.0], bounding_radius=10.0)


# -- membership --------------------------------------------------------------

def test_catalog_membership():
    assert contains(ball(2), [0.5, 0.5])
    assert not contains(ball(2), [0.8, 0.7])
    assert contains(polydisc(2), [0.9, 0.9j])
    assert not contains(polydisc(2), [1.0, 0.0])
    assert contains(l1ball(2), [0.4, 0.5j])
    assert not contains(l1ball(2), [0.6, 0.5])
    assert contains(lp_ball(2, 3.0), [0.7, 0.7])
    assert not contains(lp_ball(2, 3.0), [0.9, 0.9])


def test_membership_batched_shapes():
    d = ball(3)
    z = np.zeros((4, 5, 3), dtype=complex)
    out = contains(d, z)
    assert out.shape == (4, 5) and out.all()
    with pytest.raises(ArgumentError):
        contains(d, np.zeros((2, 2), dtype=complex))


def test_affine_membership():
    # squash the ball by 1/2 in coordinate 2 and shift by 0.1
    mat = np.diag([1.0, 0.5])
    d = affine_image(ball(2), mat, [0.1, 0.0])
    assert contains(d, [0.1, 0.0])
    assert contains(d, [0.1, 0.49])
    assert not contains(d, [0.1, 0.51])
    assert d.convexity_class == "convex"


def test_projective_fixture_membership_reduction():
    d = cayley_polydisc()
    rng = np.random.default_rng(5)
    z = 1.2 * (rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2)))
    got = contains(d, z)
    expected = (np.abs(3.0 * z[:, 0] - 1.0) < 2.0) & (2.0 * np.abs(z[:, 1]) < np.abs(1.0 + z[:, 0]))
    assert np.array_equal(got, expected)


def test_projective_fixture_nonconvexity_triple():
    d = cayley_polydisc()
    hi = np.array([0.458j, 0.54])
    lo = np.array([-0.458j, 0.54])
    assert contains(d, hi) and contains(d, lo)
    assert not contains(d, 0.5 * (hi + lo))
    assert d.convexity_class == "cconvex"


def test_projective_horizon_is_outside():
    d = cayley_polydisc()
    # the preimage solve degenerates at z1 = -1; that point is simply outside
    assert not contains(d, [-1.0, 0.0])


def test_forward_map_round_trip():
    d = cayley_polydisc()
    rng = np.random.default_rng(11)
    w = interior_samples(polydisc(2), 200, rng)
    z = forward_map(d, w)
    assert contains(d, z).all()


# -- ray exits ---------------------------------------------------------------

def test_ray_exit_ball_unit_direction():
    d = ball(3)
    rng = np.random.default_rng(2)
    v = rng.normal(size=6).view(complex)
    v /= np.linalg.norm(v)
    t = ray_exit(d, np.zeros(3), v)
    assert abs(t - 1.0) < 1e-11


def test_ray_exit_catalog_values():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(ray_exit(polydisc(2), np.zeros(2), v) - np.sqrt(2.0)) < 1e-11
    assert abs(ray_exit(l1ball(2), np.zeros(2), v) - 1.0 / np.sqrt(2.0)) < 1e-11
    assert abs(ray_exit(ball(2), np.zeros(2), v) - 1.0) < 1e-11


def test_ray_exit_projective_fixture():
    d = cayley_polydisc()
    assert abs(ray_exit(d, np.zeros(2), np.array([0.0, 1.0])) - 0.5) < 1e-11
    assert abs(ray_exit(d, np.zeros(2), np.array([-1.0, 0.0])) - 1.0 / 3.0) < 1e-11
    assert abs(ray_exit(d, np.zeros(2), np.array([1.0, 0.0])) - 1.0) < 1e-11


def test_ray_exit_direction_scaling():
    d = l1ball(2)
    v = np.array([0.3 + 0.1j, -0.2])
    t1 = ray_exit(d, np.zeros(2), v)
    t2 = ray_exit(d, np.zeros(2), 2.0 * v)
    assert abs(t1 - 2.0 * t2) < 1e-10


def test_ray_exit_domain_scaling_homogeneity():
    base = l1ball(2)
    scaled = affine_image(base, 3.5 * np.eye(2))
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(20, 4)).view(complex)
    t_base = ray_exit_batch(base, np.zeros(2), dirs)
    t_scaled = ray_exit_batch(scaled, np.zeros(2), dirs)
    assert np.allclose(t_scaled, 3.5 * t_base, atol=1e-9)


def test_ray_exit_requires_interior_base():
    with pytest.raises(ArgumentError):
        ray_exit(ball(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_ray_exit_cap():
    # a half-plane-like defining set is unbounded along the negative axis
    d = defining_domain(2, "re(z1) - 1", "convex", bounding_radius=50.0)
    with pytest.raises(RayCapError):
        ray_exit(d, np.zeros(2), np.array([-1.0, 0.0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ray_exit_per_ray_bases_match_one_call_per_base(kind):
    d = one_of_each_kind()[kind]
    rng = np.random.default_rng(5)
    bases = 0.5 * interior_samples(d, 12, rng)
    dirs = rng.normal(size=(12, 4)).view(complex)
    batched = ray_exit_batch(d, bases, dirs)
    single = np.concatenate([ray_exit_batch(d, b, v[None, :]) for b, v in zip(bases, dirs)])
    assert np.array_equal(batched, single)


def test_ray_exit_per_ray_bases_must_all_be_inside():
    bases = np.array([[0.1, 0.0], [2.0, 0.0], [0.0, 0.2j]])
    dirs = np.eye(2, dtype=complex)[[0, 1, 0]]
    with pytest.raises(ArgumentError):
        ray_exit_batch(ball(2), bases, dirs)
    with pytest.raises(ArgumentError):
        ray_exit_batch(ball(2), bases[:2], dirs)


# -- interior sampling -------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: ball(2), lambda: polydisc(3), lambda: l1ball(3),
    lambda: lp_ball(2, 3.0), lambda: cayley_polydisc(),
    lambda: affine_image(ball(2), np.array([[1.0, 0.3j], [0.0, 0.5]])),
    lambda: defining_domain(2, "abs(z1)**2 + 4*abs(z2)**2 - 1", "convex", bounding_radius=5.0),
    lambda: lp_ball(6, 1.5),
])
def test_interior_samples_are_interior(make):
    d = make()
    pts = interior_samples(d, 2000, np.random.default_rng(17))
    assert pts.shape == (2000, d.n)
    assert contains(d, pts).all()


@pytest.mark.parametrize("n", [2, 3, 6])
def test_lp_sampler_at_p_one_is_the_l1_sampler(n):
    a = interior_samples(l1ball(n), 500, np.random.default_rng(n))
    b = interior_samples(lp_ball(n, 1.0), 500, np.random.default_rng(n))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,p", [(5, 1.5), (3, 3.0)])
def test_lp_sampler_radial_law(n, p):
    # uniform on the unit lp ball of real dimension 2n: P(gauge < s) = s^(2n)
    count = 20_000
    pts = interior_samples(lp_ball(n, p), count, np.random.default_rng(5))
    gauge = (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)
    for s in (0.7, 0.85, 0.93, 0.97):
        q = s ** (2 * n)
        assert abs(np.mean(gauge < s) - q) < 5.0 * np.sqrt(q * (1.0 - q) / count)


def test_lp_sampler_marginal_matches_rejection_from_polydisc():
    # the cone measure is checked against an independent exact law: uniform
    # polydisc points conditioned on the lp ball
    d = lp_ball(3, 3.0)
    rng = np.random.default_rng(6)
    ours = np.abs(interior_samples(d, 20_000, rng)[:, 0])
    cand = interior_samples(polydisc(3), 30_000, rng)
    ref = np.abs(cand[contains(d, cand)][:, 0])
    for r in (0.3, 0.5, 0.7, 0.85):
        p_ours, p_ref = np.mean(ours < r), np.mean(ref < r)
        sigma = np.sqrt(p_ref * (1 - p_ref) * (1 / ours.size + 1 / ref.size))
        assert abs(p_ours - p_ref) < 5.0 * sigma


# -- tangent functionals -----------------------------------------------------

def test_tangent_ball():
    tf = tangent_functional(ball(2), np.array([1.0, 0.0]), "real_supporting")
    assert np.allclose(tf.coefficients, [1.0, 0.0])
    assert tf.value == pytest.approx(1.0)
    assert tf.min_margin > 0


def test_tangent_polydisc_face_and_corner():
    tf = tangent_functional(polydisc(2), np.array([1.0, 0.3]), "complex_avoiding")
    assert np.allclose(tf.coefficients, [1.0, 0.0])
    with pytest.raises(NonsmoothBoundaryError):
        tangent_functional(polydisc(2), np.array([1.0, 1.0]), "complex_avoiding")


def test_tangent_l1ball():
    tf = tangent_functional(l1ball(2), np.array([0.5, 0.5]), "real_supporting")
    assert np.allclose(tf.coefficients, [1.0, 1.0])
    assert tf.value == pytest.approx(1.0)
    with pytest.raises(NonsmoothBoundaryError):
        tangent_functional(l1ball(2), np.array([1.0, 0.0]), "real_supporting")


def test_tangent_affine_pullback():
    mat = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    d = affine_image(ball(2), mat)
    tf = tangent_functional(d, np.array([2.0, 0.0]), "real_supporting")
    # hyperplane {Re z1 = 2} has coefficients along e1
    lam = tf.coefficients / np.linalg.norm(tf.coefficients)
    assert abs(abs(lam[0]) - 1.0) < 1e-12


def test_tangent_projective_fixture():
    d = cayley_polydisc()
    tf = tangent_functional(d, np.array([-1.0 / 3.0, 0.0]), "complex_avoiding",
                            samples=2000, seed=4)
    lam = tf.coefficients
    assert abs(lam[1]) < 1e-12
    assert tf.min_margin > 0


def test_tangent_defining_gradient():
    d = defining_domain(2, "abs(z1)**2 + 4*abs(z2)**2 - 1", "convex", bounding_radius=5.0)
    tf = tangent_functional(d, np.array([0.0, 0.5]), "real_supporting")
    lam = tf.coefficients / np.linalg.norm(tf.coefficients)
    assert abs(abs(lam[1]) - 1.0) < 1e-12
    tf2 = tangent_functional(d, np.array([1.0, 0.0]), "real_supporting")
    assert np.allclose(tf2.coefficients, [2.0, 0.0], atol=1e-12)


def test_tangent_requires_boundary_point():
    with pytest.raises(ArgumentError):
        tangent_functional(ball(2), np.array([0.5, 0.0]), "real_supporting")


def test_boundary_residual_signs():
    d = cayley_polydisc()
    assert boundary_residual(d, np.array([-1.0 / 3.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert boundary_residual(d, np.array([0.0, 0.2])) < 0
    assert boundary_residual(ball(2), np.array([1.1, 0.0])) > 0


DELTA = 0.3 + 0.2j


def one_of_each_kind():
    return {
        "ball": ball(2),
        "polydisc": polydisc(2),
        "l1ball": l1ball(2),
        "lp_ball": lp_ball(2, 3.0),
        "affine_image": affine_image(ball(2), [[1.0, 0.5j], [0.0, 2.0]], [0.1, -0.2j]),
        # w -> w / (2 - w1 + DELTA w2): a generic denominator rounds in the
        # reconstruction check, which the Cayley image's does not
        "projective_image": projective_image(
            polydisc(2), np.eye(2), np.zeros(2), [2.0, -1.0, DELTA], bounding_radius=10.0),
        "defining_function": defining_domain(2, "abs(z1)**2 + abs(z2)**4 - 1", "convex"),
    }


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_kernel_is_membership_and_row_independent(kind):
    d = one_of_each_kind()[kind]
    rng = np.random.default_rng(3)
    g = rng.normal(size=(60, 4)).view(complex)
    radii = np.repeat([0.3, 0.9, 1.5, 2.5], 15)[:, None]
    # DELTA z2 - z1 = 1 is the horizon of the projective image: no preimage there
    horizon = np.array([[DELTA * s - 1.0, s] for s in (0.0, 0.5j, 2.0)])
    # images of the base points `pre` near the pole 2 - w1 + DELTA w2 = 0,
    # |z| from 1e6 to 1e10, where a preimage solve loses digits to rounding
    w2 = rng.normal(size=42) + 1j * rng.normal(size=42)
    eps = 10.0 ** -rng.uniform(6, 10, size=42)
    pre = np.column_stack([2.0 + DELTA * w2 - eps, w2])
    near_pole = pre / eps[:, None]
    z = np.concatenate([radii * g / np.linalg.norm(g, axis=1, keepdims=True), horizon,
                        near_pole])
    res = boundary_residual(d, z)
    inside = contains(d, z)
    assert inside.any() and not inside.all()
    assert np.array_equal(inside, res < 0)
    rows = np.array([boundary_residual(d, p) for p in z])
    assert all(isinstance(r, float) for r in rows)
    np.testing.assert_array_equal(res, rows)
    assert np.array_equal(boundary_residual(d, z.reshape(5, 21, 2)), res.reshape(5, 21))
    if kind == "projective_image":
        assert np.isinf(res[60:63]).all() and np.isfinite(res[:60]).all()
        # every near-pole point has its preimage and the base residual there
        np.testing.assert_allclose(res[63:], np.abs(pre).max(axis=1) - 1.0, rtol=1e-12, atol=0)


# -- declared class spot checks ---------------------------------------------

def test_convexity_spot_checks_pass_for_catalog():
    assert convexity_spot_check(ball(2), trials=100, seed=1) == 0
    assert convexity_spot_check(l1ball(3), trials=100, seed=1) == 0
    assert convexity_spot_check(cayley_polydisc(), trials=50, seed=1) == 0


# -- construction and schema -------------------------------------------------

def test_construction_errors():
    with pytest.raises(DomainFormatError):
        DomainSpec(n=1, kind="ball", convexity_class="convex")
    with pytest.raises(DomainFormatError):
        DomainSpec(n=2, kind="blob", convexity_class="convex")
    with pytest.raises(DomainFormatError):
        lp_ball(2, 0.5)
    with pytest.raises(DomainFormatError):
        affine_image(ball(2), np.zeros((2, 2)))
    with pytest.raises(DomainFormatError):
        projective_image(polydisc(2), np.eye(2), np.zeros(2), [0.0, 1.0, 0.0])
    with pytest.raises(DomainFormatError):
        # degenerate: the image of the bidisc lies in the line z2 = 0
        projective_image(polydisc(2), [[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [1.0, 0.0, 0.0])
    # the gate is on M - c d^T / d0, not on M: w -> (1, w2) / (2 + w1) is valid
    d = projective_image(polydisc(2), [[0.0, 0.0], [0.0, 1.0]], [1.0, 0.0], [2.0, 1.0, 0.0])
    assert contains(d, [0.5, 0.0])
    with pytest.raises(DomainFormatError):
        defining_domain(2, "re(z3)", "convex")
    with pytest.raises(DomainFormatError):
        defining_domain(2, "import os", "convex")


def test_translate_recenters():
    d = translate(ball(2), [0.5, 0.0])
    assert contains(d, [0.0, 0.0])
    assert contains(d, [0.49, 0.0])
    assert not contains(d, [0.51, 0.0])


def test_json_round_trip_projective():
    d = cayley_polydisc()
    blob = json.dumps(domain_to_json(d), sort_keys=True)
    d2 = domain_from_json(json.loads(blob))
    rng = np.random.default_rng(23)
    z = 1.5 * (rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)))
    assert np.array_equal(contains(d, z), contains(d2, z))
    assert json.dumps(domain_to_json(d2), sort_keys=True) == blob


def test_json_round_trip_all_kinds():
    specs = [
        ball(2), polydisc(3), l1ball(2), lp_ball(2, 2.5),
        affine_image(l1ball(2), np.array([[1.0, 0.2j], [0.0, 1.0]]), [0.1, 0.0]),
        defining_domain(2, "abs(z1)**2 + abs(z2)**2 - 1", "convex", bounding_radius=4.0),
    ]
    for d in specs:
        d2 = domain_from_json(domain_to_json(d))
        assert d2.kind == d.kind and d2.n == d.n
        assert d2.convexity_class == d.convexity_class
        rng = np.random.default_rng(1)
        pts = interior_samples(d, 100, rng)
        assert contains(d2, pts).all()


def test_json_rejects_bad_payloads():
    with pytest.raises(DomainFormatError):
        domain_from_json({"n": 2})
    with pytest.raises(DomainFormatError):
        domain_from_json({"n": 2, "kind": "ball", "extra": 1})
    with pytest.raises(DomainFormatError):
        domain_from_json({"n": 2, "kind": "defining_function", "rho": "re(z1)"})
    with pytest.raises(DomainFormatError):
        domain_from_json([1, 2])
