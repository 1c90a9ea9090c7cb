"""Contact frame and normalizer tests.

Worked examples pin the catalog fixtures to their closed-form frames; the
invariant tests exercise generic affine and projective images where the
search has no canonical direction to fall back on.
"""
import numpy as np
import pytest

from squeezecert import frame as frame_mod
from squeezecert.domains import (
    affine_image,
    ball,
    defining_domain,
    interior_samples,
    l1ball,
    lp_ball,
    polydisc,
    projective_image,
    ray_exit_batch,
    translate,
)
from squeezecert.errors import (
    ArgumentError,
    FrameDegenerateError,
    NonsmoothBoundaryError,
    TriangularityError,
    ValidationFailureError,
)
from squeezecert.frame import (
    ContactFrame,
    Normalizer,
    _circular,
    _pattern_level,
    _u_to_coeffs,
    build_frame,
    build_normalizer,
    frame_to_json,
    min_boundary_point,
    normalizer_to_json,
)
from squeezecert.numerics import _stream


def cayley_polydisc():
    # image of the bidisc under w -> w / (2 - w_1); bounded, not convex
    return projective_image(polydisc(2), np.eye(2), np.zeros(2),
                            [2.0, -1.0, 0.0], bounding_radius=10.0)


# -- direction search ---------------------------------------------------------

def test_search_polydisc_picks_first_axis():
    res = min_boundary_point(polydisc(2), seed=0)
    assert abs(res.radius - 1.0) < 1e-9
    assert np.allclose(res.direction, [1.0, 0.0], atol=1e-9)


def test_search_l1ball_equal_modulus_direction():
    res = min_boundary_point(l1ball(2), seed=0)
    assert abs(res.radius - 1.0 / np.sqrt(2.0)) < 1e-6
    assert np.allclose(res.direction, np.array([1.0, 1.0]) / np.sqrt(2.0),
                       atol=1e-9)


def test_search_ball_subspace_returns_first_basis_vector():
    basis = np.zeros((2, 3), dtype=complex)
    basis[0, 1] = 1.0
    basis[1, 2] = 1.0
    res = min_boundary_point(ball(3), subspace_basis=basis, seed=0)
    assert abs(res.radius - 1.0) < 1e-9
    assert np.allclose(res.direction, basis[0], atol=1e-9)


def test_search_ball_rotated_subspace_ties_canonically():
    # every direction ties on the ball; the combination candidates let the
    # tie-break recover a coordinate axis even from a rotated basis
    basis = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0]], dtype=complex)
    basis /= np.sqrt(2.0)
    res = min_boundary_point(ball(3), subspace_basis=basis, seed=0)
    assert abs(res.radius - 1.0) < 1e-9
    assert np.allclose(res.direction, [0.0, 1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("make", [
    lambda: affine_image(polydisc(2), np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]])),
    cayley_polydisc,
    lambda: translate(ball(3), np.array([0.2 - 0.1j, 0.15j, -0.25 + 0.05j])),
])
def test_search_probes_each_pattern_once(make, monkeypatch):
    # a survivor that did not move keeps its pattern until the step halves,
    # so probing it again would repeat rays whose exits are already known
    d = make()
    batches = []
    inner = frame_mod.ray_exit_batch

    def logged(dom, base, dirs, *args, **kwargs):
        batches.append(np.array(dirs))
        return inner(dom, base, dirs, *args, **kwargs)

    monkeypatch.setattr(frame_mod, "ray_exit_batch", logged)
    min_boundary_point(d, seed=0)
    # the pattern loop runs from the second call to the first one-ray call
    loop = batches[1:next(i for i, b in enumerate(batches) if len(b) == 1)]
    width = 4 * d.n
    patterns = [b[i:i + width].tobytes() for b in loop for i in range(0, len(b), width)]
    assert len(patterns) > 100
    assert len(set(patterns)) == len(patterns)


def _probe_per_move(evaluate, m, survivors, surv_vals, step, steps, cap):
    # the plain compass level: one pattern probe per move, at most `cap` moves
    moves = 0
    live = np.arange(survivors.shape[0])
    while moves < cap:
        cand = survivors[live, None, :] + step * steps[None, :, :]
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        vals = evaluate(_u_to_coeffs(cand.reshape(-1, 2 * m), m)).reshape(live.size, -1)
        best = np.argmin(vals, axis=1)
        best_vals = vals[np.arange(live.size), best]
        improve = best_vals < surv_vals[live] - 1e-15
        if not improve.any():
            break
        survivors[live[improve]] = cand[improve, best[improve]]
        surv_vals[live[improve]] = best_vals[improve]
        live = live[improve]
        moves += 1
    return moves


@pytest.mark.parametrize("make", [lambda: polydisc(2), cayley_polydisc])
@pytest.mark.parametrize("step", [0.25, 0.0625])
@pytest.mark.parametrize("cap", [400, 2])
def test_pattern_walk_takes_the_moves_of_one_probe_per_move(make, step, cap):
    d = make()
    m = 2

    def evaluate(coeffs):
        return ray_exit_batch(d, np.zeros(m, dtype=complex), coeffs)

    rng = np.random.default_rng(7)
    start = rng.normal(size=(12, 2 * m))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    start_vals = evaluate(_u_to_coeffs(start, m))
    steps = np.concatenate([np.eye(2 * m), -np.eye(2 * m)])

    ref, ref_vals = start.copy(), start_vals.copy()
    ref_moves = _probe_per_move(evaluate, m, ref, ref_vals, step, steps, cap)
    got, got_vals = start.copy(), start_vals.copy()
    assert _pattern_level(evaluate, m, got, got_vals, step, steps, cap) == ref_moves
    assert np.array_equal(got, ref) and np.array_equal(got_vals, ref_vals)


def test_search_refines_once(monkeypatch):
    # only the best survivor of the compass walk is refined; on a body with
    # no tied canonical candidate it is the contact
    d = affine_image(polydisc(2), np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]]))
    refines = []
    inner = frame_mod._stationary_refine

    def counted(*args):
        refines.append(inner(*args))
        return refines[-1]

    monkeypatch.setattr(frame_mod, "_stationary_refine", counted)
    res = min_boundary_point(d, seed=0)
    assert len(refines) == 1
    v, val = refines[0]
    assert res.radius == val
    assert np.allclose(res.direction, v / np.linalg.norm(v), rtol=0, atol=1e-15)


def test_search_rejects_non_orthonormal_basis():
    basis = np.array([[1.0, 1.0]], dtype=complex)
    with pytest.raises(ArgumentError):
        min_boundary_point(polydisc(2), subspace_basis=basis)


def test_search_deterministic_across_runs():
    a = min_boundary_point(l1ball(2), seed=3)
    b = min_boundary_point(l1ball(2), seed=3)
    assert np.array_equal(a.direction, b.direction)
    assert a.radius == b.radius


# -- frames for the worked examples ------------------------------------------

def test_polydisc_frame_and_normalizer_are_identity():
    d = polydisc(2)
    fr = build_frame(d, seed=0)
    assert np.allclose(fr.contacts, np.eye(2), atol=1e-9)
    assert np.allclose(fr.radii, [1.0, 1.0], atol=1e-9)
    nz = build_normalizer(d, fr)
    for mat in (nz.t_matrix.entries, nz.a_matrix.entries, nz.composite):
        assert np.abs(mat - np.eye(2)).max() < 1e-9


def test_l1ball_frame_and_normalizer():
    d = l1ball(2)
    fr = build_frame(d, seed=0)
    root2 = np.sqrt(2.0)
    assert np.allclose(fr.radii, [1 / root2, 1 / root2], atol=1e-6)
    assert np.allclose(fr.contacts, [[0.5, 0.5], [0.5, -0.5]], atol=1e-9)
    nz = build_normalizer(d, fr)
    assert np.allclose(nz.t_matrix.entries, [[1, 1], [1, -1]], atol=1e-9)
    assert np.abs(nz.a_matrix.entries - np.eye(2)).max() < 1e-9


def test_ball3_frame_is_orthonormal_triple():
    d = ball(3)
    fr = build_frame(d, seed=0)
    assert np.allclose(fr.radii, [1.0, 1.0, 1.0], atol=1e-9)
    gram = fr.contacts @ np.conj(fr.contacts.T)
    assert np.abs(gram - np.eye(3)).max() < 1e-9
    nz = build_normalizer(d, fr)
    assert np.abs(nz.a_matrix.entries - np.eye(3)).max() < 1e-9
    assert np.allclose(nz.t_matrix.entries, np.conj(fr.contacts), atol=1e-9)


def test_projective_fixture_frame_and_normalizer():
    d = cayley_polydisc()
    fr = build_frame(d, seed=0)
    assert np.allclose(fr.contacts, [[-1 / 3, 0.0], [0.0, 0.5]], atol=1e-9)
    assert np.allclose(fr.radii, [1 / 3, 0.5], atol=1e-9)
    nz = build_normalizer(d, fr)
    assert np.allclose(nz.t_matrix.entries, [[-3.0, 0.0], [0.0, 2.0]], atol=1e-7)
    assert np.allclose(nz.a_matrix.entries, [[1.0, 0.0], [1 / 3, 1.0]], atol=1e-7)
    assert nz.margins["alpha_max"] <= 1.0 + 1e-9


def test_sheared_polydisc_frame_matches_closed_form():
    # for z = (w1, s*w1 + w2) the nearest boundary point solves a one-line
    # least squares problem: w1 = -s/(1+s^2), w2 = 1, up to a phase flip
    s = 0.7
    M = np.array([[1.0, 0.0], [s, 1.0]], dtype=complex)
    d = affine_image(polydisc(2), M, np.zeros(2))
    fr = build_frame(d, seed=0)
    q = 1.0 + s * s
    assert abs(fr.radii[0] - 1.0 / np.sqrt(q)) < 1e-9
    assert abs(fr.radii[1] - np.sqrt(q)) < 1e-9
    assert np.allclose(np.abs(fr.contacts[0]), [s / q, 1.0 / q], atol=1e-9)
    nz = build_normalizer(d, fr)
    alpha = nz.a_matrix.entries[1, 0]
    assert abs(alpha - s / q) < 1e-9
    assert nz.margins["triangularity_residual"] < 1e-10


@pytest.mark.parametrize("point", [
    np.array([0.3 + 0.2j, -0.1 + 0.25j]),
    np.array([0.2 - 0.1j, 0.15j, -0.25 + 0.05j]),
])
def test_translated_ball_frame_matches_closed_form(point):
    # the nearest boundary point of the ball around -p lies along p/|p|, and
    # every direction complex-orthogonal to p exits at sqrt(1 - |p|^2); no
    # canonical start lies on either, so the search alone has to find them
    d = translate(ball(point.size), point)
    fr = build_frame(d, seed=0)
    rho = np.linalg.norm(point)
    radii = [1.0 - rho] + [np.sqrt(1.0 - rho**2)] * (point.size - 1)
    assert np.abs(fr.radii - radii).max() < 2e-12
    assert np.abs(fr.contacts[0] - (1.0 - rho) * point / rho).max() < 2e-12


# -- frame invariants ---------------------------------------------------------

FIXTURES = [
    ("polydisc", lambda: polydisc(2)),
    ("l1ball", lambda: l1ball(2)),
    ("ball3", lambda: ball(3)),
    ("shear", lambda: affine_image(
        polydisc(2), np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]]), np.zeros(2))),
    ("projective", cayley_polydisc),
]


@pytest.mark.parametrize("name,make", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_frame_invariants(name, make):
    d = make()
    fr = build_frame(d, seed=0)
    gram = fr.contacts @ np.conj(fr.contacts.T)
    off = gram - np.diag(np.diagonal(gram))
    assert np.abs(off).max() < 1e-9 * fr.radii.max() ** 2
    assert np.all(np.diff(fr.radii) > -1e-9)
    assert fr.bases[0].shape == (d.n, d.n)
    for j, b in enumerate(fr.bases):
        assert b.shape == (d.n - j, d.n)
        assert np.allclose(b @ np.conj(b.T), np.eye(d.n - j), atol=1e-9)
    if name in ("polydisc", "l1ball", "ball3", "shear"):
        # circular domains fix each contact's phase: its lead coordinate is real positive
        for c in fr.contacts:
            lead = c[np.flatnonzero(np.abs(c) > 1e-9 * np.abs(c).max())[0]]
            assert abs(lead.imag) <= 1e-15 * abs(lead) and lead.real > 0


@pytest.mark.parametrize("make,expected", [
    (lambda: ball(2), True),
    (lambda: polydisc(2), True),
    (lambda: l1ball(2), True),
    (lambda: lp_ball(2, 1.5), True),
    (lambda: affine_image(polydisc(2), np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]])), True),
    (lambda: translate(ball(2), np.array([0.3, -0.2j])), False),
    (cayley_polydisc, False),
    (lambda: defining_domain(2, "abs(z1)**2 + abs(z2)**2 - 1", "convex"), False),
    # the composite map decides: a linear chain, a projective map that is
    # linear, and a linear layer over a projective one
    (lambda: affine_image(affine_image(l1ball(2), 2.0 * np.eye(2)), [[1.0, 0.5j], [0.0, 1.0]]),
     True),
    (lambda: projective_image(ball(2), np.eye(2), np.zeros(2), [3.0, 0.0, 0.0]), True),
    (lambda: affine_image(cayley_polydisc(), np.eye(2)), False),
], ids=["ball", "polydisc", "l1ball", "lp_ball", "shear", "translated", "projective", "defining",
        "linear_chain", "linear_projective", "linear_over_projective"])
def test_circular_domains(make, expected):
    assert _circular(make()) is expected


@pytest.mark.parametrize("make,seed", [
    (lambda: l1ball(4), 2),
    (lambda: lp_ball(4, 1.5), 1),
    (lambda: lp_ball(5, 1.5), 0),
    (lambda: l1ball(6), 0),
    (lambda: lp_ball(7, 1.5), 0),
    (lambda: lp_ball(8, 1.5), 0),
    (lambda: lp_ball(8, 1.5), 1),
    (lambda: l1ball(8), 2),
], ids=["l1ball(4)@2", "lp_ball(4)@1", "lp_ball(5)@0", "l1ball(6)@0",
        "lp_ball(7)@0", "lp_ball(8)@0", "lp_ball(8)@1", "l1ball(8)@2"])
def test_tied_contacts_pass_the_normalizer(make, seed):
    # the contacts of these bodies tie along whole manifolds of minimizers;
    # whichever refined one the search keeps, the later contacts must lie in
    # its tangent hyperplane to the triangularity gate
    d = make()
    nz = build_normalizer(d, build_frame(d, seed=seed), seed=seed)
    assert nz.margins["triangularity_residual"] <= 1e-8


def _shear(n):
    return affine_image(polydisc(n), np.eye(n, dtype=complex)
                        + np.tril(np.full((n, n), 0.4 - 0.3j), -1))


# known failures past n = 8: the shear's stage 2 misses its global minimum
# (0.878093 against 0.869156), and the compass budget runs out on the tied
# manifolds of the l1 and lp balls; the fix removes these markers
@pytest.mark.parametrize("make,seed", [
    pytest.param(lambda: _shear(9), 0, marks=pytest.mark.xfail(
        strict=True, raises=FrameDegenerateError, reason="missed stage minimum")),
    pytest.param(lambda: l1ball(10), 0, marks=pytest.mark.xfail(
        strict=True, raises=TriangularityError, reason="move budget on a tied manifold")),
    pytest.param(lambda: lp_ball(13, 1.5), 1, marks=pytest.mark.xfail(
        strict=True, raises=TriangularityError, reason="move budget on a tied manifold")),
], ids=["shear(9)@0", "l1ball(10)@0", "lp_ball(13)@1"])
def test_frames_past_dimension_eight(make, seed):
    d = make()
    nz = build_normalizer(d, build_frame(d, seed=seed), seed=seed)
    assert nz.margins["triangularity_residual"] <= 1e-8


@pytest.mark.parametrize("name,make", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_normalizer_invariants(name, make):
    d = make()
    fr = build_frame(d, seed=0)
    nz = build_normalizer(d, fr)
    n = d.n
    t = nz.t_matrix.entries
    for j in range(n):
        assert np.allclose(t @ fr.contacts[j], np.eye(n)[j], atol=1e-9)
    a = nz.a_matrix.entries
    assert np.abs(np.triu(a, 1)).max() == 0.0
    assert np.allclose(np.diagonal(a), 1.0)
    mags = np.abs(np.tril(a, -1))
    assert mags.max() <= 1.0 + 1e-9
    assert nz.margins["triangularity_residual"] <= 1e-8


@pytest.mark.parametrize("name,make", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_normalized_hyperplanes_clear_the_domain(name, make):
    # in normalized coordinates row j's hyperplane is {Re Z_j = 1} for the
    # convex flavor and {Z_j = 1} for the complex one; interior samples must
    # stay on the proper side, respectively off the plane
    d = make()
    nz = build_normalizer(d, build_frame(d, seed=0))
    z = interior_samples(d, 400, np.random.default_rng(11))
    big_z = z @ nz.composite.T
    if d.convexity_class == "convex":
        assert big_z.real.max() < 1.0 + 1e-9
    else:
        assert np.abs(big_z - 1.0).min() > 1e-9


@pytest.mark.parametrize("name,make", [f for f in FIXTURES if f[0] != "projective"],
                         ids=[f[0] for f in FIXTURES if f[0] != "projective"])
def test_simplex_sits_inside_t_image(name, make):
    # T maps the domain over the set {sum |w_j| < 1}; push simplex samples
    # back through the contacts and check membership
    d = make()
    fr = build_frame(d, seed=0)
    rng = np.random.default_rng(5)
    n = d.n
    w = rng.normal(size=(300, n)) + 1j * rng.normal(size=(300, n))
    w *= (rng.uniform(size=(300, 1)) ** (1 / (2 * n))
          / np.abs(w).sum(axis=1, keepdims=True)) * 0.999
    z = w @ fr.contacts
    from squeezecert.domains import contains
    assert np.all(contains(d, z))


def test_unitary_rotation_preserves_radii():
    theta = 0.4
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    fr0 = build_frame(l1ball(2), seed=0)
    fr1 = build_frame(affine_image(l1ball(2), u, np.zeros(2)), seed=0)
    assert np.allclose(fr0.radii, fr1.radii, atol=1e-6)


def test_frame_deterministic_same_seed():
    d = cayley_polydisc()
    a = build_frame(d, seed=7)
    b = build_frame(d, seed=7)
    assert np.array_equal(a.contacts, b.contacts)
    assert np.array_equal(a.radii, b.radii)


# -- error paths --------------------------------------------------------------

def test_frame_requires_origin_inside():
    d = translate(polydisc(2), np.array([5.0, 0.0]))
    with pytest.raises(ArgumentError):
        build_frame(d)


def test_normalizer_rejects_nonminimal_contact():
    # orthogonal boundary pair of the bidisc whose first point is not a
    # closest point; its face hyperplane cannot contain the second contact
    contacts = np.array([[1.0, 0.5], [-0.5, 1.0]], dtype=complex)
    radii = np.array([np.sqrt(1.25), np.sqrt(1.25)])
    bases = (np.eye(2, dtype=complex),
             np.array([[-0.5, 1.0]], dtype=complex) / np.sqrt(1.25))
    fr = ContactFrame(contacts=contacts, radii=radii, bases=bases,
                      search_flags=())
    with pytest.raises(TriangularityError):
        build_normalizer(polydisc(2), fr)


def test_normalizer_propagates_corner_contacts():
    # corners of the l1 ball have no single supporting face
    contacts = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    radii = np.array([1.0, 1.0])
    bases = (np.eye(2, dtype=complex),
             np.array([[0.0, 1.0]], dtype=complex))
    fr = ContactFrame(contacts=contacts, radii=radii, bases=bases,
                      search_flags=())
    with pytest.raises(NonsmoothBoundaryError):
        build_normalizer(l1ball(2), fr)


# -- the normalized hyperplane check ------------------------------------------

def test_normalizer_refuses_the_projective_fixture_declared_convex():
    # its contact's real supporting half-plane cuts the nonconvex domain
    d = projective_image(polydisc(2), np.eye(2), np.zeros(2), [2.0, -1.0, 0.0],
                         bounding_radius=10.0, convexity_class="convex")
    fr = build_frame(d, seed=0)
    with pytest.raises(ValidationFailureError, match="real_supporting invariant"):
        build_normalizer(d, fr)


@pytest.mark.parametrize("make", [
    lambda: ball(3), lambda: l1ball(2), cayley_polydisc,
    lambda: defining_domain(2, "abs(z1)**2 + 4*abs(z2)**2 - 1", "convex", bounding_radius=5.0),
], ids=["ball", "l1ball", "projective", "defining"])
def test_normalizer_checks_every_hyperplane_on_one_interior_draw(make, monkeypatch):
    d = make()
    fr = build_frame(d, seed=0)
    counts = []
    real = frame_mod.interior_samples

    def counted(dom, count, rng):
        counts.append(count)
        return real(dom, count, rng)

    monkeypatch.setattr(frame_mod, "interior_samples", counted)
    nz = build_normalizer(d, fr, samples=300, seed=2)
    assert counts == [300]
    # the clearance is that of the normalized images w = composite z
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(2, 21)))
    imgs = real(d, 300, rng) @ nz.composite.T
    clear = 1.0 - imgs.real if d.convexity_class == "convex" else np.abs(imgs - 1.0)
    assert 0.0 < nz.margins["hyperplane_clearance"]
    assert nz.margins["hyperplane_clearance"] == pytest.approx(clear.min(), rel=1e-12)


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -5}, {"samples": True},
                                    {"samples": 2.5}, {"seed": -1}])
def test_normalizer_refuses_bad_counts(kwargs):
    d = polydisc(2)
    fr = build_frame(d, seed=0)
    with pytest.raises(ArgumentError, match="must be a"):
        build_normalizer(d, fr, **kwargs)


def test_stream_keys_an_integer_seed_or_extends_a_spawn_key():
    ints = _stream(3, 4, 5)
    assert ints.entropy == (3, 4, 5) and ints.spawn_key == ()
    parent = np.random.SeedSequence(7, spawn_key=(1,))
    child = _stream(parent, 21)
    assert (child.entropy, child.spawn_key) == (7, (1, 21))
    assert np.array_equal(child.generate_state(4),
                          np.random.SeedSequence(7, spawn_key=(1, 21)).generate_state(4))


def test_frame_and_normalizer_take_a_seed_sequence():
    d = affine_image(l1ball(2), np.array([[1.0, 0.0], [0.4 - 0.3j, 1.0]]))
    runs = []
    for _ in range(2):
        seed = np.random.SeedSequence(5)
        fr = build_frame(d, seed=seed)
        runs.append((fr, build_normalizer(d, fr, samples=200, seed=seed)))
    (fr0, nz0), (fr1, nz1) = runs
    assert np.array_equal(fr0.contacts, fr1.contacts)
    assert np.array_equal(nz0.a_matrix.entries, nz1.a_matrix.entries)
    assert nz0.margins == nz1.margins


@pytest.mark.parametrize("call", [
    lambda: build_frame(polydisc(2), n_starts=-1),
    lambda: build_frame(polydisc(2), n_starts=True),
    lambda: build_frame(polydisc(2), seed=-1),
    lambda: min_boundary_point(polydisc(2), n_starts=-1),
    lambda: min_boundary_point(polydisc(2), n_starts=1.5),
], ids=["frame_negative", "frame_bool", "frame_seed", "search_negative", "search_float"])
def test_frame_search_refuses_bad_counts(call):
    with pytest.raises(ArgumentError, match="must be a non-negative integer"):
        call()


# -- serialization ------------------------------------------------------------

def test_frame_json_round_structure():
    d = l1ball(2)
    fr = build_frame(d, seed=0)
    doc = frame_to_json(fr)
    assert doc["radii"] == [float(r) for r in fr.radii]
    assert doc["contacts"][0][0] == [fr.contacts[0, 0].real, fr.contacts[0, 0].imag]
    nz = build_normalizer(d, fr)
    ndoc = normalizer_to_json(nz)
    assert set(ndoc) == {"frame", "t_matrix", "t_inverse", "a_matrix",
                         "functionals", "margins"}
    assert ndoc["functionals"][0]["flavor"] == "real_supporting"
    assert set(ndoc["functionals"][0]) == {"point", "coefficients", "flavor", "value"}
    assert ndoc["margins"]["hyperplane_clearance"] == nz.margins["hyperplane_clearance"] > 0
    assert all(isinstance(v, float) for v in ndoc["margins"].values())
