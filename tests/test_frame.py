"""Contact frame and normalizer tests.

Worked examples pin the catalog fixtures to their closed-form frames; the
invariant tests exercise generic affine and projective images where the
search has no canonical direction to fall back on.
"""
import sys

import numpy as np
import pytest

from squeezecert import bounds as bounds_mod, domains as dom, frame as frame_mod, verify
from squeezecert.domains import (
    DomainSpec,
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
    NonsmoothBoundaryError,
    TriangularityError,
    ValidationFailureError,
)
from squeezecert.frame import (
    ContactFrame,
    Normalizer,
    _canonical_coeffs,
    _circular,
    _compass_search,
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


def test_search_ball_rotated_subspace_returns_a_unit_span_direction():
    # every direction of the span ties on the ball, and any of them is a
    # contact: the search returns one unit direction inside the span
    basis = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0]], dtype=complex)
    basis /= np.sqrt(2.0)
    res = min_boundary_point(ball(3), subspace_basis=basis, seed=0)
    assert abs(res.radius - 1.0) <= 1e-12
    assert abs(np.linalg.norm(res.direction) - 1.0) <= 1e-12
    in_span = (res.direction @ np.conj(basis.T)) @ basis
    assert np.abs(in_span - res.direction).max() <= 1e-12


def walked_shear():
    # the shear of the closed-form tests, moved off the origin so that its
    # contacts are searched: an offset leaves no closed form
    return affine_image(polydisc(2), np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]]),
                        np.array([0.05, -0.03j]))


@pytest.mark.parametrize("make", [
    lambda: walked_shear(),  # a lambda, so the case keeps its test id
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


def test_walk_exit_batches_make_one_membership_call_each(monkeypatch):
    # every walk ray has a closed-form bracket that holds within _EXIT_TOL, so
    # one membership call takes the base and both ends and settles the batch
    projective = next(d for d, params in verify._family_domains("projective", 2, 4, 0)
                      if params["denominator_1"] != [0.0, 0.0])
    calls, per_batch = [0], []
    contains, inner = dom.contains, frame_mod.ray_exit_batch

    def counted(d, z):
        calls[0] += 1
        return contains(d, z)

    def logged(d, base, dirs):
        calls[0] = 0
        out = inner(d, base, dirs)
        per_batch.append(calls[0])
        return out

    monkeypatch.setattr(dom, "contains", counted)
    monkeypatch.setattr(frame_mod, "ray_exit_batch", logged)
    # the l1 ball's contacts have a closed form; switched off, its stages walk
    monkeypatch.setattr(frame_mod, "_closed_form_coeffs", lambda d, basis: None)
    for d in (l1ball(6), projective):
        per_batch.clear()
        stages = build_frame(d, seed=0).stages
        assert all(c["search"] == "walked" and c["rounds"] > 0 for c in stages)
        assert len(per_batch) == sum(c["exit_batches"] for c in stages)
        assert set(per_batch) == {1}


def _probe_per_move(evaluate, m, survivors, surv_vals, step, steps, cap):
    # the plain compass level: one pattern probe per move, at most `cap`
    # moves; returns the moves and which survivors moved
    moves = 0
    moved = np.zeros(survivors.shape[0], dtype=bool)
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
        moved[live[improve]] = True
        live = live[improve]
        moves += 1
    return moves, moved


def _walk_by_levels(d, basis, evaluate, step, budget):
    # the compass search as levels under a move budget: a level spends one
    # probe per move plus the one that found no gain, and a level that runs
    # out of moves ends the walk.  A level that ends refines its best
    # survivor if that one did not move in it, and a converged refine is the
    # contact; a survivor refined and not moved since keeps its refine
    m = basis.shape[0]
    starts = dom._sphere_draw(np.random.default_rng(0), frame_mod.DEFAULT_STARTS_PER_DIM * m, m)
    coeffs = np.concatenate([_canonical_coeffs(basis), starts])
    values = evaluate(coeffs)
    order = np.argsort(values, kind="stable")[:12]
    survivors = np.concatenate([coeffs[order].real, coeffs[order].imag], axis=1)
    surv_vals = values[order].copy()
    steps = np.concatenate([np.eye(2 * m), -np.eye(2 * m)])
    rounds, refined = 0, {}

    def refine(i):
        if i not in refined:
            refined[i] = frame_mod._stationary_refine(
                d, basis, _u_to_coeffs(survivors[i], m), surv_vals[i], evaluate)
        return refined[i]

    while step > 1e-5 and budget > 0:
        moves, moved = _probe_per_move(evaluate, m, survivors, surv_vals, step, steps, budget)
        refined = {i: r for i, r in refined.items() if not moved[i]}
        if moves >= budget:
            rounds += budget
            break
        rounds += moves + 1
        budget -= moves + 1
        top = int(np.argmin(surv_vals))
        if not moved[top] and refine(top)[2]:
            c_best, val_best, _ = refined[top]
            # the other survivors, in order of exit, until one agrees
            agree = False
            for i in np.argsort(surv_vals, kind="stable"):
                if i != top and (surv_vals[i] <= val_best + frame_mod.AGREE_TOL
                                 or refine(i)[1] <= val_best + frame_mod.AGREE_TOL):
                    agree = True
                    break
            return c_best, val_best, agree, rounds, len(refined)
        step *= 0.5
    top = int(np.argmin(surv_vals))
    c_best, val_best, _ = refine(top)
    surv_vals[top] = val_best
    agree = np.count_nonzero(surv_vals <= surv_vals.min() + frame_mod.AGREE_TOL) >= 2
    return c_best, val_best, agree, rounds, len(refined)


def tied_ball():
    # every direction ties and the residual is rounding noise, so no refine
    # converges and the walk runs to its floor
    return ball(4)


@pytest.mark.parametrize("make", [lambda: polydisc(2), cayley_polydisc, tied_ball])
@pytest.mark.parametrize("step", [0.25, 0.0625])
@pytest.mark.parametrize("cap", [400, 2, 75])
def test_pattern_walk_takes_the_moves_of_one_probe_per_move(make, step, cap, monkeypatch):
    # the round loop against levels of one probe per move: the same exit
    # batches, contact, agreement and counts, bit for bit; a budget of 2
    # rounds runs out inside the first level, one of 75 from step 0.0625
    # after the step halved, while from step 0.25 a refine ends the walk first
    d = make()
    basis = np.eye(d.n, dtype=complex)
    batches = {"walk": [], "levels": []}

    def logged(key):
        def evaluate(coeffs):
            batches[key].append(coeffs.tobytes())
            return ray_exit_batch(d, np.zeros(d.n, dtype=complex), coeffs @ basis)
        return evaluate

    monkeypatch.setattr(frame_mod, "_WALK_STEP", step)
    monkeypatch.setattr(frame_mod, "_WALK_ROUNDS", cap)
    got = _compass_search(d, basis, _canonical_coeffs(basis), None, 0, logged("walk"))
    ref = _walk_by_levels(d, basis, logged("levels"), step, cap)
    assert batches["walk"] == batches["levels"]
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("lands", [3, None])
def test_early_stop_refines_the_other_survivors_until_one_agrees(lands, monkeypatch):
    # after a converged refine ends the walk, the other survivors have not
    # walked to the end: each is refined in turn, least exit first, until one
    # lands within AGREE_TOL of the contact; if none does, the search flags
    d = cayley_polydisc()
    calls = []

    def refine(d, basis, coeff, value, evaluate):
        # the first call converges; the `lands`-th refined survivor lands on
        # the contact's exit, every other one stays where it was
        calls.append(value)
        landed = len(calls) - 1 == lands
        return coeff, calls[0] if landed else value, len(calls) == 1

    monkeypatch.setattr(frame_mod, "_stationary_refine", refine)
    # with no window, only a refined survivor can agree
    monkeypatch.setattr(frame_mod, "AGREE_TOL", 0.0)
    res = min_boundary_point(d, seed=0)
    others = calls[1:]
    assert others == sorted(others) and min(others) > calls[0]
    assert len(others) == (lands or 11)
    assert res.flags == (() if lands else ("search_disagreement",))
    assert res.counts["refines"] == len(calls)


def test_search_refines_once(monkeypatch):
    # only the best survivor of the compass walk is refined: its refine
    # converges at a level end, which ends the walk, and it is the contact
    d = walked_shear()
    refines = []
    inner = frame_mod._stationary_refine

    def counted(*args):
        refines.append(inner(*args))
        return refines[-1]

    monkeypatch.setattr(frame_mod, "_stationary_refine", counted)
    res = min_boundary_point(d, seed=0)
    assert len(refines) == 1
    v, val, converged = refines[0]
    assert converged
    assert res.counts["refines"] == 1
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


# -- closed-form contacts -----------------------------------------------------

def _random_map(shape, n, draw):
    # a unit lower shear, or a unitary times a positive diagonal
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(n, draw, shape == "shear")))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if shape == "shear":
        return np.eye(n) + 0.5 * np.tril(g, -1)
    q, _ = np.linalg.qr(g)
    return q @ np.diag(rng.uniform(0.3, 2.0, size=n))


@pytest.mark.parametrize("draw", range(2))
@pytest.mark.parametrize("shape", ["shear", "unitary_diagonal"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("body", [polydisc, ball])
def test_closed_form_contacts_match_the_walk(body, n, shape, draw, monkeypatch):
    # the walk, run on the same linear image with the closed form switched
    # off, is the oracle: every stage's least exit, in its own subspace
    d = affine_image(body(n), _random_map(shape, n, draw))
    fr = build_frame(d, seed=0)
    monkeypatch.setattr(frame_mod, "_closed_form_coeffs", lambda d, basis: None)
    for stage, basis in enumerate(fr.bases):
        exact = min_boundary_point(d, basis, seed=_stream(0, stage))
        walked = min_boundary_point(d, basis, seed=_stream(0, stage))
        g = basis @ np.linalg.inv(d.matrix).T
        gauge = (np.linalg.norm(g, axis=0).max() if body is polydisc
                 else np.linalg.svd(g, compute_uv=False)[0])
        assert abs(exact.radius - 1.0 / gauge) <= 1e-9
        assert abs(exact.radius - walked.radius) <= 1e-9
        assert abs(abs(np.vdot(exact.direction, walked.direction)) - 1.0) <= 1e-9
        assert exact.flags == ()


@pytest.mark.parametrize("make", [
    lambda: polydisc(2), lambda: ball(3),
    lambda: DomainSpec(n=2, kind="polydisc", convexity_class="cconvex"),
], ids=["polydisc(2)", "ball(3)", "cconvex_polydisc(2)"])
def test_closed_form_keeps_the_canonical_contact(make):
    # the closed form reads e_1 off the identity map; its radius is the
    # engine's exit, the lower end of a bracket within 1e-12 of 1
    d = make()
    e1 = np.eye(d.n, dtype=complex)[0]
    res = min_boundary_point(d, seed=0)
    assert np.array_equal(res.direction, e1)
    assert res.radius == ray_exit_batch(d, np.zeros(d.n), e1[None])[0]
    assert abs(res.radius - 1.0) <= 1e-12


def test_closed_form_is_for_linear_images_and_catalog_lp_balls_only():
    shear = np.array([[1.0, 0.0], [0.6 + 0.2j, 1.0]])
    for d in (affine_image(ball(2), shear), l1ball(2)):
        assert frame_mod._closed_form_coeffs(d, np.eye(2)) is not None
    for d in (affine_image(l1ball(2), shear), affine_image(polydisc(2), shear, [0.05, 0.0]),
              cayley_polydisc(),
              projective_image(ball(2), np.eye(2), np.zeros(2), [3.0, 0.5, 0.0])):
        assert frame_mod._closed_form_coeffs(d, np.eye(2)) is None


def _holder_radius(d):
    # an lp ball's least exit over any subspace that holds a DFT column
    # (p < 2) or a coordinate axis (p >= 2)
    p = 1.0 if d.kind == "l1ball" else d.p
    return d.n ** (0.5 - 1.0 / p) if p < 2.0 else 1.0


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_lp_contacts_match_the_walk(n, p, monkeypatch):
    # the walk, run with the closed form switched off, is the oracle: it finds
    # no exit below the Hoelder radius in any stage's subspace
    d = l1ball(n) if p == 1.0 else lp_ball(n, p)
    fr = build_frame(d, seed=0)
    assert all(frame_mod._closed_form_coeffs(d, basis) is not None for basis in fr.bases)
    exact = [min_boundary_point(d, basis, seed=_stream(0, stage))
             for stage, basis in enumerate(fr.bases)]
    monkeypatch.setattr(frame_mod, "_closed_form_coeffs", lambda d, basis: None)
    for stage, (basis, res) in enumerate(zip(fr.bases, exact)):
        walked = min_boundary_point(d, basis, seed=_stream(0, stage))
        assert abs(res.radius - _holder_radius(d)) <= 1e-9
        assert res.radius <= walked.radius + 1e-9
        assert res.flags == ()


def test_closed_form_frames_send_one_ray_per_stage(monkeypatch):
    # a closed-form stage evaluates its own ray and nothing beside it
    batches = []
    inner = frame_mod.ray_exit_batch

    def logged(d, base, dirs, *args, **kwargs):
        batches.append(len(dirs))
        return inner(d, base, dirs, *args, **kwargs)

    monkeypatch.setattr(frame_mod, "ray_exit_batch", logged)
    build_frame(l1ball(6), seed=0)
    assert batches == [1] * 6


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
    # the first contact is the one closest point; every phase of the second
    # is an equally close contact, so it, T and A are pinned up to phase
    assert np.allclose(fr.contacts[0], [-1 / 3, 0.0], atol=1e-9)
    assert np.allclose(np.abs(fr.contacts[1]), [0.0, 0.5], atol=1e-9)
    assert np.allclose(fr.radii, [1 / 3, 0.5], atol=1e-9)
    nz = build_normalizer(d, fr)
    assert np.allclose(np.abs(nz.t_matrix.entries), [[3.0, 0.0], [0.0, 2.0]], atol=1e-7)
    assert np.allclose(np.abs(nz.a_matrix.entries), [[1.0, 0.0], [1 / 3, 1.0]], atol=1e-7)
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


def _shear(n, body=polydisc):
    return affine_image(body(n), np.eye(n, dtype=complex)
                        + np.tril(np.full((n, n), 0.4 - 0.3j), -1))


WALKED = ([(f"l1ball({n})", lambda n=n: l1ball(n), seed) for n in range(2, 9) for seed in range(3)]
          + [(f"lp_ball({n})", lambda n=n: lp_ball(n, 1.5), seed)
             for n in range(2, 9) for seed in range(3)]
          + [(f"{name}({n})", lambda n=n, make=make: make(n), 0)
             for name, make in (("ball", ball), ("polydisc", polydisc), ("shear", _shear))
             for n in range(2, 9)])


@pytest.mark.parametrize("make,seed", [(make, seed) for _, make, seed in WALKED],
                         ids=[f"{name}@{seed}" for name, _, seed in WALKED])
def test_tied_contacts_pass_the_normalizer(make, seed, monkeypatch):
    # every frame of the walk to n = 8, the closed forms switched off: the
    # contacts of the l1 and lp balls and the ball tie along whole manifolds
    # of minimizers, those of the polydisc and the shear along phase circles
    # past the first stage.  Whichever refined one the walk keeps, the later
    # contacts must lie in its tangent hyperplane to the triangularity gate
    d = make()
    monkeypatch.setattr(frame_mod, "_closed_form_coeffs", lambda d, basis: None)
    nz = build_normalizer(d, build_frame(d, seed=seed), seed=seed)
    assert nz.margins["triangularity_residual"] <= 1e-8


# the compass budget runs out on the tied manifolds of the l1 and lp balls
# past n = 8; their closed-form contacts hold there
@pytest.mark.parametrize("make,seed", [
    (lambda: _shear(9), 0),
    (lambda: l1ball(10), 0),
    (lambda: lp_ball(13, 1.5), 1),
], ids=["shear(9)@0", "l1ball(10)@0", "lp_ball(13)@1"])
def test_frames_past_dimension_eight(make, seed):
    d = make()
    nz = build_normalizer(d, build_frame(d, seed=seed), seed=seed)
    assert nz.margins["triangularity_residual"] <= 1e-8


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("n", range(9, 17))
def test_closed_form_lp_frames_to_dimension_sixteen(n, p, seed, monkeypatch):
    # every stage of a catalog l1 or lp ball takes its contact in closed form
    d = l1ball(n) if p == 1.0 else lp_ball(n, p)

    def walk(*args):
        raise AssertionError("a stage walked")

    monkeypatch.setattr(frame_mod, "_compass_search", walk)
    fr = build_frame(d, seed=seed)
    assert np.abs(fr.radii - _holder_radius(d)).max() <= 1e-9
    nz = build_normalizer(d, fr, seed=seed)
    assert nz.margins["triangularity_residual"] <= 1e-8


@pytest.mark.parametrize("body", [polydisc, ball])
@pytest.mark.parametrize("n", range(9, 17))
def test_closed_form_shear_frames_to_dimension_sixteen(body, n):
    # linear images of the ball and polydisc take their contacts in closed
    # form, so the frame holds past the reach of the compass walk
    d = _shear(n, body)
    nz = build_normalizer(d, build_frame(d, seed=0))
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


def test_no_two_purposes_share_a_stream(monkeypatch):
    # each call site of `_stream` is one purpose: the frame stages, the spot
    # check, the normalizer's draw, the containment and projection checks and
    # the probe's family sweep.  SeedSequence pads keys with zeros, so keys
    # are compared by their generate_state words; a 16-dimensional body has
    # frame stages 0..15 and the probe's certify runs stages 0..9
    words = {}

    def stream(*args):
        seq = _stream(*args)
        caller = sys._getframe(1)
        site = (caller.f_code.co_filename, caller.f_lineno)
        words.setdefault(site, set()).add(tuple(seq.generate_state(4)))
        return seq

    for module in (frame_mod, bounds_mod, verify):
        monkeypatch.setattr(module, "_stream", stream)
    small = {"samples": 50, "rays": 50}
    bounds_mod.certify(DomainSpec(n=16, kind="polydisc", convexity_class="cconvex"),
                       spot_trials=4, cloud_samples=100, **small)
    verify.kappa_probe("shears", n=10, budget=1, **small)
    assert len(words) == 6
    sites = list(words)
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            assert not words[a] & words[b], (a, b)


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
