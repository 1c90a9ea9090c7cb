"""Domain membership, ray exits, tangent functionals, and the JSON schema."""

import json

import numpy as np
import pytest

from squeezecert import domains as dom
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


def test_ray_exit_checks_the_base_before_the_cap():
    # the cap 2e-3 is below the first march mark, so no march step runs
    tiny = ball(2, bounding_radius=1e-3)
    with pytest.raises(ArgumentError, match="inside the domain"):
        ray_exit(tiny, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(RayCapError):
        ray_exit(tiny, np.zeros(2), np.array([1.0, 0.0]))


def test_ray_exit_from_a_projective_horizon_is_an_argument_error():
    # the base sits on the horizon z1 = 1 of w -> w / (2 + w1) and the ray
    # runs along it, so its closed-form path has a zero denominator
    d = projective_image(l1ball(2), np.eye(2), np.zeros(2), np.array([2.0, 1.0, 0.0]),
                         bounding_radius=10.0)
    with pytest.raises(ArgumentError, match="inside the domain"):
        ray_exit(d, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_ray_exit_with_guesses_makes_two_membership_passes(monkeypatch):
    sizes = []
    real = dom.contains

    def counted(d, z):
        sizes.append(len(z))
        return real(d, z)

    monkeypatch.setattr(dom, "contains", counted)
    ray_exit_batch(cayley_polydisc(), np.array([0.1, 0.05j]), np.eye(2, dtype=complex))
    # the base rides on the lower bracket ends; then the upper ends
    assert sizes == [1 + 2, 2]


def test_ray_exit_cap():
    # a half-plane-like defining set is unbounded along the negative axis
    d = defining_domain(2, "re(z1) - 1", "convex", bounding_radius=50.0)
    with pytest.raises(RayCapError):
        ray_exit(d, np.zeros(2), np.array([-1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_ray_exit_rejects_nonfinite_directions(bad):
    # a nan direction must not read as an exit at the base point, nor an
    # infinite one warn inside the norm
    with pytest.raises(ArgumentError, match="finite"):
        ray_exit(ball(2), np.zeros(2), [bad, 0.0])
    with pytest.raises(ArgumentError, match="finite"):
        ray_exit_batch(polydisc(2), np.zeros(2), [[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ray_exit_per_ray_bases_match_one_call_per_base(kind):
    d = one_of_each_kind()[kind]
    rng = np.random.default_rng(5)
    bases = 0.5 * interior_samples(d, 12, rng)
    dirs = rng.normal(size=(12, 4)).view(complex)
    batched = ray_exit_batch(d, bases, dirs)
    single = np.concatenate([ray_exit_batch(d, b, v[None, :]) for b, v in zip(bases, dirs)])
    assert np.array_equal(batched, single)


@pytest.mark.parametrize("scale", [1e9, 1e100, 1e200, 1e-300])
def test_ray_exits_at_any_direction_scale(scale):
    # each exit along e1 is 1/scale; the march start and the exit tolerance
    # hold for directions of order one, so far scales are brought there
    bodies = [ball(2), l1ball(2),
              defining_domain(2, "abs(z1)**2+abs(z2)**2-1", "convex", bounding_radius=5.0)]
    for d in bodies:
        t = ray_exit(d, np.zeros(2), [scale, 0.0])
        assert abs(t * scale - 1.0) < 1e-12, d.kind
        assert contains(d, [t * scale, 0.0])


def closed_form_fixtures(n, rng):
    """Bodies with a closed-form exit, and per-ray bases inside each."""
    shear = np.eye(n, dtype=complex) + np.tril(np.full((n, n), 0.4 - 0.3j), -1)
    # |d| sums to 1 < d0 = 2: the denominator stays off the closed polydisc
    d = rng.normal(size=2 * n).view(complex)
    den = np.concatenate([[2.0], d / np.abs(d).sum()])
    pball = projective_image(
        ball(n), np.eye(n) + 0.2 * rng.normal(size=(n, 2 * n)).view(complex),
        0.1 * rng.normal(size=2 * n).view(complex), den)
    pdisc = projective_image(polydisc(n), np.eye(n), np.zeros(n), den)
    # 1 - 0.95 w1 nearly vanishes at w1 = 1, 20x closer to the horizon than at 0
    near = projective_image(ball(n), np.eye(n), np.zeros(n), np.eye(n + 1)[0] - 0.95 * np.eye(n + 1)[1])
    bodies = {
        "ball": ball(n), "polydisc": polydisc(n), "l1ball": l1ball(n), "lp_ball": lp_ball(n, 1.5),
        "shear": affine_image(polydisc(n), shear), "translate": translate(ball(n), np.full(n, 0.3)),
        "projective_ball": pball, "projective_polydisc": pdisc,
        "affine_of_projective": affine_image(pdisc, shear, np.full(n, 0.05j)),
        "affine_lp": affine_image(translate(lp_ball(n, 1.5), np.full(n, 0.2)), shear),
        "near_horizon": near,
    }
    m = 40
    # bases near the horizon: base points with w1 close to 1
    w = 0.1 * interior_samples(ball(n), m, rng)
    w[:, 0] = 0.98 * np.exp(1j * rng.uniform(-0.3, 0.3, size=m))
    bases = {name: forward_map(near, w) if body is near else interior_samples(body, m, rng)
             for name, body in bodies.items()}
    return bodies, bases


def test_exact_exits_agree_with_the_march_and_pass_their_brackets():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        bodies, per_ray = closed_form_fixtures(n, rng)
        for name, d in bodies.items():
            dirs = rng.normal(size=(per_ray[name].shape[0], 2 * n)).view(complex)
            for bases in (np.zeros(n, dtype=complex), per_ray[name]):
                lower, upper = dom._exact_exits(d, bases, dirs, 1e8)
                assert np.isfinite(upper).all(), (n, name)
                assert (upper - lower <= dom._EXIT_TOL).all(), (n, name)
                march = dom._first_exits(lambda z: contains(d, z), bases, dirs, cap=1e8)
                assert np.abs(0.5 * (lower + upper) - march).max() <= dom._EXIT_TOL, (n, name)
                below = bases + lower[:, None] * dirs
                above = bases + upper[:, None] * dirs
                assert contains(d, below).all() and not contains(d, above).any(), (n, name)


def test_wrong_exit_guesses_fall_back_to_the_march():
    rng = np.random.default_rng(29)
    bodies, _ = closed_form_fixtures(3, rng)
    for name in ("ball", "lp_ball", "projective_polydisc"):
        d = bodies[name]

        def inside(z):
            return contains(d, z)

        origin = np.zeros(3, dtype=complex)
        dirs = rng.normal(size=(12, 6)).view(complex)
        march = dom._first_exits(inside, origin, dirs, cap=1e3)
        lower, upper = dom._exact_exits(d, origin, dirs, 1e3)
        wrongs = [(2.0 * lower, 2.0 * upper), (0.5 * lower, 0.5 * upper), (upper, lower)]
        wrongs += [(np.full(12, v), np.full(12, v)) for v in (np.inf, np.nan, -1.0, 2e3)]
        for wrong in wrongs:
            assert np.array_equal(dom._first_exits(inside, origin, dirs, cap=1e3, bracket=wrong),
                                  march)
        # rows decide alone: right brackets are kept, wrong ones march
        even = np.arange(12) % 2 == 0
        mixed = np.where(even, lower, 2.0 * lower), np.where(even, upper, 2.0 * upper)
        got = dom._first_exits(inside, origin, dirs, cap=1e3, bracket=mixed)
        assert np.array_equal(got[1::2], march[1::2])
        assert np.array_equal(got[::2], lower[::2])


def test_bisection_stops_at_one_ulp_past_the_tolerance():
    # past t ~ 8e3 an ulp of t exceeds _EXIT_TOL, so the bracket cannot
    # shrink to the tolerance; it ends one ulp wide with its lower end inside
    origin = np.zeros(2, dtype=complex)
    edge = dom._first_exits(lambda z: np.abs(z[:, 0]) < 2e4, origin,
                            np.eye(2, dtype=complex)[:1], cap=1e8)
    assert edge[0] == np.nextafter(2e4, 0.0)
    d = affine_image(ball(2), 1e4 * np.eye(2))
    v = np.array([1.0, 0.3j])
    t = ray_exit(d, origin, v)
    assert contains(d, t * v) and not contains(d, np.nextafter(t, np.inf) * v)


def test_kinds_without_a_closed_form_give_no_guess():
    dirs = np.eye(2, dtype=complex)
    origin = np.zeros(2, dtype=complex)
    curved = defining_domain(2, "abs(z1)**2 + abs(z2)**4 - 1", "convex")
    assert dom._exact_exits(curved, origin, dirs, 1e3) is None


@pytest.mark.parametrize("base", [l1ball(3), lp_ball(3, 1.5)], ids=["l1ball", "lp_ball"])
def test_projective_l1_and_lp_rays_match_the_march_bit_for_bit(base):
    # the tilted denominator leaves no ray a flat norm exit: each takes the
    # grid scan's bracket, two consecutive marks of the march, which passes
    # membership at both ends, so the exits are the marched ones
    d = projective_image(base, np.eye(3) + 0.2j * np.eye(3, k=1), np.full(3, 0.05),
                         [2.0, 0.5, 0.5j, -0.3], bounding_radius=10.0)
    rng = np.random.default_rng(61)
    dirs = rng.normal(size=(500, 6)).view(complex)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origin = np.zeros(3, dtype=complex)
    march = dom._first_exits(lambda z: contains(d, z), origin, dirs, cap=1e8)
    assert np.array_equal(ray_exit_batch(d, origin, dirs), march)
    lower, upper = dom._exact_exits(d, origin, dirs, 1e3)
    assert np.array_equal(upper, np.where(lower > 0.0, lower * dom._MARCH_GROWTH,
                                          dom._MARCH_START))
    assert contains(d, lower[:, None] * dirs).all()
    assert not contains(d, upper[:, None] * dirs).any()
    assert ((lower <= march) & (march < upper)).all()


def test_ray_exit_per_ray_bases_must_all_be_inside():
    bases = np.array([[0.1, 0.0], [2.0, 0.0], [0.0, 0.2j]])
    dirs = np.eye(2, dtype=complex)[[0, 1, 0]]
    with pytest.raises(ArgumentError):
        ray_exit_batch(ball(2), bases, dirs)
    with pytest.raises(ArgumentError):
        ray_exit_batch(ball(2), bases[:2], dirs)


# -- coordinate projections --------------------------------------------------

def _shear(n, s):
    return np.eye(n) + s * np.tril(np.ones((n, n)), -1)


def _denominator(n, *head):
    den = np.zeros(n + 1, dtype=complex)
    den[:len(head)] = head
    return den


def _projective_ball(n):
    return projective_image(ball(n), _shear(n, 0.3 - 0.2j), 0.1 * np.ones(n),
                            _denominator(n, 1.5, 0.3j, -0.2), bounding_radius=100.0)


def _dft(n):
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


_DISC_CHAINS = {
    "projective_family_ball": lambda n: projective_image(
        ball(n), np.eye(n), np.zeros(n), _denominator(n, 2.0, 0.5), bounding_radius=100.0),
    "projective_ball": _projective_ball,
    "affine_l1ball": lambda n: affine_image(l1ball(n), _dft(n), 0.1 * np.ones(n)),
    "affine_lp_ball": lambda n: affine_image(lp_ball(n, 1.5), _dft(n)),
    "affine_lp3_ball": lambda n: affine_image(lp_ball(n, 3.0), _shear(n, 0.5)),
    "translated_projective_ball": lambda n: translate(_projective_ball(n), 0.1j * np.ones(n)),
    "affine_of_projective_ball": lambda n: affine_image(_projective_ball(n), _shear(n, -0.4)),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("chain", sorted(_DISC_CHAINS))
def test_projection_discs_hold_the_projected_samples(chain, n):
    # every projected interior sample lies inside the exact disc, and the
    # samples reach its edge, so the disc is neither too small nor too large
    d = _DISC_CHAINS[chain](n)
    pts = interior_samples(d, 100_000, np.random.default_rng(0))
    for j in range(n):
        center, radius = dom._projection_disc(d, np.eye(n)[j])
        reach = np.abs(pts[:, j] - center).max() / radius
        assert 0.95 < reach < 1.0


def test_projection_discs_of_the_projective_family_ball():
    d = _DISC_CHAINS["projective_family_ball"](2)
    for row, (center, radius) in zip(np.eye(2), [(-2 / 15, 8 / 15), (0.0, np.sqrt(4 / 15))]):
        got = dom._projection_disc(d, row)
        assert abs(got[0] - center) < 1e-15 and abs(got[1] - radius) < 1e-15


@pytest.mark.parametrize("d", [
    pytest.param(projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                  bounding_radius=100.0), id="projective_polydisc"),
    pytest.param(projective_image(polydisc(3), _shear(3, 0.3), np.zeros(3),
                                  _denominator(3, 2.0, 0.0, -0.5j),
                                  bounding_radius=100.0), id="projective_polydisc3"),
    pytest.param(projective_image(l1ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                  bounding_radius=100.0), id="projective_l1ball"),
    pytest.param(projective_image(lp_ball(2, 1.5), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                                  bounding_radius=100.0), id="projective_lp_ball"),
    pytest.param(defining_domain(2, "abs(z1)**2+abs(z2)**4-1", "convex"), id="defining"),
])
def test_projection_discs_without_closed_form(d):
    for row in np.eye(d.n):
        assert dom._projection_disc(d, row) is None


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
    tf = tangent_functional(d, np.array([-1.0 / 3.0, 0.0]), "complex_avoiding")
    lam = tf.coefficients
    assert abs(lam[1]) < 1e-12


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


@pytest.mark.parametrize("trials", [0, -1, True, 2.5])
@pytest.mark.parametrize("make", [ball, lambda n: cayley_polydisc()], ids=["convex", "cconvex"])
def test_convexity_spot_check_refuses_bad_trial_counts(make, trials):
    with pytest.raises(ArgumentError, match="trials must be a positive integer"):
        convexity_spot_check(make(2), trials=trials)


# -- construction and schema -------------------------------------------------

def test_construction_errors():
    with pytest.raises(DomainFormatError):
        DomainSpec(n=1, kind="ball", convexity_class="convex")
    with pytest.raises(DomainFormatError):
        DomainSpec(n=2, kind="blob", convexity_class="convex")
    with pytest.raises(DomainFormatError):
        lp_ball(2, 0.5)
    # bool subclasses int; True is no exponent and no radius
    with pytest.raises(DomainFormatError):
        lp_ball(2, True)
    with pytest.raises(DomainFormatError):
        ball(2, bounding_radius=True)
    # a non-finite exponent or bounding radius is no body and no ray cap
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainFormatError):
            lp_ball(2, bad)
        with pytest.raises(DomainFormatError):
            ball(2, bounding_radius=bad)
        with pytest.raises(DomainFormatError):
            defining_domain(2, "abs(z1)**2 - 1", "convex", bounding_radius=bad)
    with pytest.raises(DomainFormatError):
        domain_from_json(json.loads('{"n": 2, "kind": "lp_ball", "p": Infinity}'))
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


@pytest.mark.parametrize("base, den", [
    (polydisc(2), [1.0, 0.5, 0.5]),   # the horizon meets the corner (-1, -1)
    (ball(2), [1.0, 1.0, 0.0]),
    (l1ball(2), [1.0, 1.0, 0.0]),
    (lp_ball(2, 1.5), [1.0, -1.0j, 0.0]),
])
def test_projective_denominator_vanishing_on_the_closed_base_is_refused(base, den):
    with pytest.raises(DomainFormatError, match="vanishes on the closed base"):
        projective_image(base, np.eye(2), np.zeros(2), den)


def test_nested_projective_denominator_vanishing_on_the_closed_body_is_refused():
    # over ball(2) scaled by 2 the denominator 1 + 0.6 w1 reads 1 + 1.2 v1 on
    # the innermost ball, which vanishes at v1 = -1/1.2
    scaled = affine_image(ball(2), 2.0 * np.eye(2))
    with pytest.raises(DomainFormatError, match="the image is unbounded"):
        projective_image(scaled, np.eye(2), np.zeros(2), [1.0, 0.6, 0.0])
    with pytest.raises(DomainFormatError, match="the image is unbounded"):
        projective_image(ball(2), np.eye(2), np.zeros(2), [1.0, 1.2, 0.0])
    # over the ball shifted by -1/2, 1 + c w1 = (1 - c/2) + c v1: bounded
    # exactly when |1 - c/2| > |c|, so c = 0.6 passes and c = 0.7 does not
    shifted = translate(ball(2), [0.5, 0.0])
    assert contains(projective_image(shifted, np.eye(2), np.zeros(2), [1.0, 0.6, 0.0]),
                    [0.1, 0.0])
    with pytest.raises(DomainFormatError, match="the image is unbounded"):
        projective_image(shifted, np.eye(2), np.zeros(2), [1.0, 0.7, 0.0])


def test_projective_denominator_off_the_closed_base_is_accepted():
    # |d0| just above the dual norm of d, and d = 0
    assert contains(projective_image(polydisc(2), np.eye(2), np.zeros(2), [1.0, 0.5, 0.49]),
                    [0.5, 0.0])
    assert contains(projective_image(ball(2), np.eye(2), np.zeros(2), [3.0, 0.0, 0.0]),
                    [0.3, 0.0])


# the optional fields each kind takes, written out independently of the table
KIND_FIELDS = {
    "ball": set(), "polydisc": set(), "l1ball": set(), "lp_ball": {"p"},
    "affine_image": {"base", "matrix", "offset"},
    "projective_image": {"base", "matrix", "offset", "denominator"},
    "defining_function": {"rho"},
}


@pytest.mark.parametrize("name", ["p", "base", "matrix", "offset", "denominator", "rho"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_each_kind_takes_exactly_its_fields(kind, name):
    values = {"p": 1.5, "base": ball(2), "matrix": np.eye(2), "offset": np.zeros(2),
              "denominator": [2.0, 0.5, 0.0], "rho": "abs(z1)**2 + abs(z2)**2 - 1"}
    cls = "convex" if kind == "defining_function" else None
    valid = {f: values[f] for f in KIND_FIELDS[kind]}
    assert DomainSpec(n=2, kind=kind, convexity_class=cls, **valid).kind == kind
    if name in valid:
        del valid[name]
        message = f"{kind} requires {name}"
    else:
        valid[name] = values[name]
        message = f"{kind} takes no {name}"
    with pytest.raises(DomainFormatError, match=f"^{message}$"):
        DomainSpec(n=2, kind=kind, convexity_class=cls, **valid)


def test_kind_tables_are_derived_from_the_fields():
    assert ALL_KINDS == tuple(KIND_FIELDS)
    assert dom.CATALOG_KINDS == ("ball", "polydisc", "l1ball", "lp_ball")
    assert dom.IMAGE_KINDS == ("affine_image", "projective_image")


def test_default_class_is_derived():
    cconvex_pd = DomainSpec(n=2, kind="polydisc", convexity_class="cconvex")
    assert [d.convexity_class for d in (ball(2), lp_ball(2, 3.0), cconvex_pd)] == \
        ["convex", "convex", "cconvex"]
    # an affine image takes its base's class, a projective image is C-convex
    assert affine_image(cconvex_pd, np.eye(2)).convexity_class == "cconvex"
    assert affine_image(ball(2), np.eye(2)).convexity_class == "convex"
    assert cayley_polydisc().convexity_class == "cconvex"
    assert projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                            convexity_class="convex").convexity_class == "convex"
    # a defining function declares its class, in code and in JSON
    with pytest.raises(DomainFormatError, match="convexity_class"):
        DomainSpec(n=2, kind="defining_function", rho="re(z1)")
    with pytest.raises(DomainFormatError, match="convexity_class"):
        domain_from_json({"n": 2, "kind": "defining_function", "rho": "re(z1)"})
    blob = {"n": 2, "kind": "affine_image", "base": domain_to_json(cconvex_pd),
            "map": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "offset": [[0, 0], [0, 0]]}}
    assert domain_from_json(blob).convexity_class == "cconvex"
    blob["map"]["denominator"] = [[2, 0], [0.5, 0], [0, 0]]
    blob["kind"], blob["base"] = "projective_image", domain_to_json(ball(2))
    assert domain_from_json(blob).convexity_class == "cconvex"


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_denominators_are_format_errors(bad):
    with pytest.raises(DomainFormatError, match="finite"):
        projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, bad, 0.0])


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
