"""Image chains: the composite map each DomainSpec builds at construction,
checked against a layer-by-layer walk of the chain kept here as a reference."""

import numpy as np
import pytest

from squeezecert import domains as dom
from squeezecert.domains import (
    IMAGE_KINDS,
    affine_image,
    ball,
    boundary_residual,
    contains,
    interior_samples,
    l1ball,
    lp_ball,
    polydisc,
    projective_image,
    ray_exit_batch,
    tangent_functional,
    translate,
)
from squeezecert.planar import half_plane, riemann_catalog

# the body kernels the reference walk ends in, taken before any patching
_BODY_RESIDUAL = dom._residual
_BODY_FUNCTIONAL = dom._functional_coefficients


# -- reference: one layer at a time -----------------------------------------

def _layer_map(d):
    """The layer's own denominator and the data of its own preimage."""
    den = np.eye(1, d.n + 1, dtype=complex)[0] if d.denominator is None else d.denominator
    z0 = d.offset / den[0]
    n_mat = d.matrix - np.outer(z0, den[1:])
    return den, z0, den[0] * np.linalg.inv(n_mat), den[1:] / den[0]


def _layer_preimage(d, z):
    _, z0, n_inv, e = _layer_map(d)
    u = (z - z0) @ n_inv.T
    if d.denominator is None:
        return u, None
    div = 1.0 - np.einsum("...j,j->...", u, e)
    ok = np.abs(div) > 1e-13 * (1.0 + np.abs(u).max(axis=-1))
    return u / np.where(ok, div, 1.0)[..., None], ok


def _walk_residual(d, z):
    if d.kind not in IMAGE_KINDS:
        return _BODY_RESIDUAL(d, z)
    w, ok = _layer_preimage(d, z)
    if ok is None:
        return _walk_residual(d.base, w)
    res = np.full(z.shape[0], np.inf)
    res[ok] = _walk_residual(d.base, w[ok])
    return res


def _walk_pull_back(d, u, alpha):
    while d.kind in IMAGE_KINDS:
        _, z0, n_inv, e = _layer_map(d)
        u = np.einsum("ij,kj->ik", u - alpha[:, None] * z0, n_inv)
        if d.denominator is not None:
            alpha = alpha - np.einsum("ij,j->i", u, e)
        d = d.base
    return d, u, alpha


def _walk_functional(d, a):
    if d.kind not in IMAGE_KINDS:
        return _BODY_FUNCTIONAL(d, a)
    den = _layer_map(d)[0]
    w, _ = _layer_preimage(d, a)
    lam_base = _walk_functional(d.base, w)
    jac = (d.matrix - a[:, None] * den[None, 1:]) / (den[0] + w @ den[1:])
    return np.conj(np.linalg.inv(jac)).T @ lam_base


def _walked(monkeypatch, fn, *args):
    """fn(*args) with every reader walking the chain one layer at a time."""
    with monkeypatch.context() as mp:
        mp.setattr(dom, "_residual", _walk_residual)
        mp.setattr(dom, "_pull_back", _walk_pull_back)
        mp.setattr(dom, "_functional_coefficients", _walk_functional)
        return fn(*args)


# -- chains ------------------------------------------------------------------

def _shear(n, s):
    mat = np.eye(n, dtype=complex)
    mat[1, 0] = s
    return mat


def _projective_ball2():
    # the domain of demos/projective_ball2.json
    return projective_image(ball(2), np.eye(2), np.zeros(2), [2.0, 0.5, 0.0],
                            bounding_radius=100.0)


def _projective_polydisc(n):
    den = np.zeros(n + 1, dtype=complex)
    den[0], den[1] = 2.0, 0.5 - 0.3j
    return projective_image(polydisc(n), _shear(n, 0.2j), 0.05 * np.ones(n), den,
                            bounding_radius=100.0)


NESTED = {
    "translate_projective_ball": lambda: translate(_projective_ball2(), [0.1, 0.05j]),
    "affine_affine_l1ball": lambda: affine_image(
        affine_image(l1ball(2), _shear(2, 0.4 - 0.1j), [0.05, 0.0]),
        0.5 * np.eye(2) + 0.1j, [0.0, 0.1]),
    "affine_projective_polydisc": lambda: affine_image(
        _projective_polydisc(2), _shear(2, 0.3), [0.1, 0.0]),
    "affine_projective_polydisc3": lambda: affine_image(
        _projective_polydisc(3), 0.7 * _shear(3, -0.2), [0.0, 0.05j, 0.0]),
    "translate_affine_projective_polydisc": lambda: translate(
        affine_image(_projective_polydisc(2), _shear(2, 0.3)), [0.05, -0.05]),
    "affine_affine_affine_l1ball": lambda: affine_image(
        affine_image(affine_image(l1ball(2), _shear(2, 0.4)), 2.0 * np.eye(2), [0.1, 0.0]),
        _shear(2, -0.3j).T, [0.0, 0.2]),
    "projective_affine_ball": lambda: projective_image(
        affine_image(ball(2), 2.0 * np.eye(2)), np.eye(2), np.zeros(2), [1.0, 0.3, 0.1j]),
    "projective_translate_lp_ball": lambda: projective_image(
        translate(lp_ball(2, 1.5), [0.2, 0.0]), np.eye(2), np.zeros(2), [3.0, 0.5, 0.0]),
}

SINGLE = {
    "ball": lambda: ball(3),
    "polydisc": lambda: polydisc(2),
    "l1ball": lambda: l1ball(3),
    "lp_ball": lambda: lp_ball(2, 1.5),
    "affine_lp_ball": lambda: affine_image(lp_ball(2, 3.0), _shear(2, 0.5j), [0.1, 0.0]),
    "affine_polydisc": lambda: affine_image(polydisc(2), _shear(2, 0.3 - 0.2j), [0.05, -0.1j]),
    "projective_ball": _projective_ball2,
    "projective_polydisc": lambda: _projective_polydisc(3),
    "projective_l1ball": lambda: projective_image(l1ball(2), np.eye(2), np.zeros(2),
                                                  [2.0, 0.5, 0.0]),
}


def _probe(d, seed):
    """Interior points, boundary points reached by rays from them, points
    past the boundary, and each ray (bases, directions)."""
    rng = np.random.default_rng(seed)
    bases = interior_samples(d, 60, rng)
    dirs = rng.normal(size=(60, 2 * d.n)).view(complex)
    t = ray_exit_batch(d, bases, dirs)[:, None]
    return bases, dirs, bases + t * dirs, bases + 1.5 * t * dirs


def _close(new, ref, tol=1e-12):
    """Agreement within tol relative to each value's size (1 at least),
    with infinite values at the same places."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert np.array_equal(np.isinf(new), np.isinf(ref))
    fin = np.isfinite(ref)
    assert np.all(np.abs(new[fin] - ref[fin]) <= tol * np.maximum(1.0, np.abs(ref[fin])))


# -- nested chains agree with the walk ---------------------------------------

@pytest.mark.parametrize("name", sorted(NESTED))
def test_nested_chains_agree_with_the_layer_walk(name, monkeypatch):
    d = NESTED[name]()
    assert d._body is not d and d._body.kind not in IMAGE_KINDS
    bases, dirs, edge, past = _probe(d, 1)
    pts = np.concatenate([bases, edge, past])
    res = boundary_residual(d, pts)
    ref = _walked(monkeypatch, boundary_residual, d, pts)
    _close(res, ref)
    off = np.abs(ref) > 1e-9
    assert off.sum() >= 100
    np.testing.assert_array_equal(contains(d, pts[off]),
                                  _walked(monkeypatch, contains, d, pts[off]))
    _close(ray_exit_batch(d, bases, dirs), _walked(monkeypatch, ray_exit_batch, d, bases, dirs))
    for a in edge[:10]:
        lam = tangent_functional(d, a, "real_supporting").coefficients
        lam_ref = _walked(monkeypatch, tangent_functional, d, a, "real_supporting").coefficients
        assert np.linalg.norm(lam - lam_ref) <= 1e-12 * np.linalg.norm(lam_ref)


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_single_layer_chains_match_the_layer_walk_bit_for_bit(name, monkeypatch):
    d = SINGLE[name]()
    bases, dirs, edge, past = _probe(d, 2)
    pts = np.concatenate([bases, edge, past])
    np.testing.assert_array_equal(boundary_residual(d, pts),
                                  _walked(monkeypatch, boundary_residual, d, pts))
    np.testing.assert_array_equal(contains(d, pts), _walked(monkeypatch, contains, d, pts))
    np.testing.assert_array_equal(ray_exit_batch(d, bases, dirs),
                                  _walked(monkeypatch, ray_exit_batch, d, bases, dirs))
    # witness-image rays: half-plane Mobius coordinate maps under a fixed affine_inv
    mobius = np.array([riemann_catalog(half_plane()).inverse_mobius] * d.n).T
    affine_inv = 0.6 * _shear(d.n, 0.2 - 0.1j)
    enclosure = dom._enclosure(d, mobius, affine_inv)
    inner = dom._inner_radius(enclosure)
    np.testing.assert_array_equal(
        dom._mobius_path_exits(d, mobius, affine_inv, enclosure, inner, dirs),
        _walked(monkeypatch, dom._mobius_path_exits, d, mobius, affine_inv, enclosure, inner,
                dirs))
    for a in edge[:10]:
        if d.kind in ("polydisc", "l1ball"):
            break  # ray exits land on faces, where these bodies have corners
        np.testing.assert_array_equal(
            tangent_functional(d, a, "real_supporting").coefficients,
            _walked(monkeypatch, tangent_functional, d, a, "real_supporting").coefficients)


# -- the composite map -------------------------------------------------------

def test_a_body_is_its_own_chain():
    d = lp_ball(3, 1.5)
    assert d._body is d and not d._projective
    np.testing.assert_array_equal(d._hom, np.eye(4))


def test_the_composite_is_the_product_of_the_layer_maps():
    d = NESTED["translate_affine_projective_polydisc"]()
    hom = np.eye(3, dtype=complex)
    layer = d
    while layer.kind in IMAGE_KINDS:
        den = _layer_map(layer)[0]
        hom = hom @ np.vstack([den, np.column_stack([layer.offset, layer.matrix])])
        layer = layer.base
    assert d._body is layer and d._projective
    np.testing.assert_allclose(d._hom, hom, rtol=0, atol=1e-15)
    # an affine layer over a projective one keeps the horizon of the chain
    assert affine_image(_projective_ball2(), np.eye(2))._projective
    assert not NESTED["affine_affine_l1ball"]()._projective
