"""Tests for the coordinatewise conformal map catalog and radius checks."""
import numpy as np
import pytest

from squeezecert.errors import ArgumentError, MapDomainError, UnsupportedShapeError
from squeezecert.numerics import rho, tau
from squeezecert.planar import (
    ContainmentReport,
    PlanarShape,
    affine_shape,
    cayley,
    cayley_inverse,
    disc_shape,
    half_plane,
    koebe_bound,
    rho_radius_check,
    riemann_catalog,
    slit_plane,
    tau_radius_check,
    unit_disc,
)


# -- half-plane map -----------------------------------------------------------

def test_cayley_known_values():
    assert cayley(np.array([0.0j]))[0] == 0
    assert np.isclose(cayley(np.array([-1.0 + 0j]))[0], -1.0 / 3.0, atol=1e-15)
    assert np.isclose(cayley(np.array([1j]))[0], (-1 + 2j) / 5, atol=1e-15)


def test_cayley_rejects_closed_half_plane():
    with pytest.raises(MapDomainError):
        cayley(np.array([1.0 + 0j]))
    with pytest.raises(MapDomainError):
        cayley(np.array([0.5 + 0j, 2.0 + 5j]))


def test_cayley_inverse_rejects_outside_disc():
    with pytest.raises(MapDomainError):
        cayley_inverse(np.array([1.0 + 0j]))


def test_cayley_round_trip():
    rng = np.random.default_rng(3)
    w = 0.999 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    w /= np.maximum(1.0, np.abs(w) / 0.999)
    back = cayley(cayley_inverse(w))
    assert np.allclose(back, w, atol=1e-12)
    z = cayley_inverse(w)
    assert np.all(z.real < 1)
    assert np.allclose(cayley_inverse(cayley(z)), z, atol=1e-12)


def test_koebe_bound_values():
    assert koebe_bound(0.0) == 0.0
    assert np.isclose(koebe_bound(0.5), 8.0, atol=1e-14)
    assert np.isclose(koebe_bound(1.0 / 3.0), 3.0, atol=1e-14)


def test_koebe_bound_monotone_and_domain():
    r = np.linspace(0.0, 0.99, 50)
    vals = koebe_bound(r.astype(complex))
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ArgumentError):
        koebe_bound(1.0)
    with pytest.raises(ArgumentError):
        koebe_bound(np.array([0.2, -1.5j]))


# -- Riemann map catalog ------------------------------------------------------

CATALOG = [
    unit_disc(),
    half_plane(),
    disc_shape(-1.0, 2.0),
    disc_shape(0.3 + 0.4j, 1.0),
    slit_plane(),
    affine_shape(unit_disc(), 2.0, 0.5),
    affine_shape(slit_plane(), -0.5 + 0.25j, 0.1),
]

DERIV0_EXPECTED = {
    "unit_disc": 1.0,
    "half_plane": 2.0,
    "slit_plane": 4.0,
}


def _disc_samples(count, seed, cap=0.995):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=count) + 1j * rng.normal(size=count)
    w *= cap * rng.uniform(size=count) ** 0.5 / np.abs(w)
    return w


@pytest.mark.parametrize("shape", CATALOG, ids=lambda s: s.kind)
def test_catalog_round_trip(shape):
    mp = riemann_catalog(shape)
    w = _disc_samples(1000, seed=7)
    z = mp.inverse(w)
    assert np.allclose(mp.forward(z), w, atol=1e-10)
    assert abs(complex(mp.inverse(np.array([0.0j]))[0])) < 1e-14


@pytest.mark.parametrize("shape", CATALOG, ids=lambda s: s.kind)
def test_catalog_derivatives_match_differences(shape):
    mp = riemann_catalog(shape)
    h = 1e-6
    fd0 = (mp.inverse(np.array([h + 0j]))[0]
           - mp.inverse(np.array([-h + 0j]))[0]) / (2 * h)
    assert abs(fd0 - mp.derivative_at_zero) < 1e-8 * max(1.0, abs(fd0))
    for w0 in (0.3 + 0.2j, -0.4j, 0.55):
        fd = (mp.inverse(np.array([w0 + h]))[0]
              - mp.inverse(np.array([w0 - h]))[0]) / (2 * h)
        an = complex(mp.inverse_derivative(np.array([w0]))[0])
        assert abs(fd - an) < 1e-7 * max(1.0, abs(an))


def _slit_based(shape):
    while shape.kind == "affine":
        shape = shape.base
    return shape.kind == "slit_plane"


@pytest.mark.parametrize("shape", CATALOG, ids=lambda s: s.kind)
def test_catalog_inverse_mobius_is_the_inverse(shape):
    mp = riemann_catalog(shape)
    if _slit_based(shape):
        assert mp.inverse_mobius is None
        return
    p, q, r, s = mp.inverse_mobius
    w = _disc_samples(1000, seed=13)
    want = mp.inverse(w)
    got = (p * w + q) / (r * w + s)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    assert abs((p * s - q * r) / s**2 - mp.derivative_at_zero) <= 1e-14 * abs(mp.derivative_at_zero)


def test_catalog_derivative_at_zero_values():
    for shape in CATALOG:
        mp = riemann_catalog(shape)
        if shape.kind in DERIV0_EXPECTED:
            assert np.isclose(mp.derivative_at_zero,
                              DERIV0_EXPECTED[shape.kind], atol=1e-14)
    mp = riemann_catalog(disc_shape(-1.0, 2.0))
    assert np.isclose(mp.derivative_at_zero, (4 - 1) / 2.0, atol=1e-14)


def test_slit_map_attains_distortion_ceiling_on_negative_axis():
    mp = riemann_catalog(slit_plane())
    for r in np.arange(0.1, 0.95, 0.1):
        val = complex(mp.inverse(np.array([-r + 0j]))[0])
        assert abs(abs(val) - 4 * r / (1 - r) ** 2) < 1e-12
        grow = complex(mp.inverse(np.array([r + 0j]))[0])
        assert abs(abs(grow) - 4 * r / (1 + r) ** 2) < 1e-12


def test_qualifying_maps_obey_derivative_gate_and_growth():
    # shapes with 1 on the boundary and 0 at distance at most 1
    for shape in CATALOG:
        mp = riemann_catalog(shape)
        if not (mp.one_on_boundary and mp.boundary_distance <= 1.0 + 1e-12):
            continue
        assert abs(mp.derivative_at_zero) <= 4.0 + 1e-12
        w = _disc_samples(2000, seed=11, cap=0.95)
        assert np.all(np.abs(mp.inverse(w)) <= koebe_bound(w) + 1e-10)


def test_one_on_boundary_flags():
    assert riemann_catalog(unit_disc()).one_on_boundary
    assert riemann_catalog(half_plane()).one_on_boundary
    assert riemann_catalog(slit_plane()).one_on_boundary
    assert riemann_catalog(disc_shape(-1.0, 2.0)).one_on_boundary
    assert not riemann_catalog(disc_shape(0.0, 2.0)).one_on_boundary


def test_boundary_distances():
    assert riemann_catalog(unit_disc()).boundary_distance == 1.0
    assert riemann_catalog(half_plane()).boundary_distance == 1.0
    assert riemann_catalog(slit_plane()).boundary_distance == 1.0
    assert np.isclose(riemann_catalog(disc_shape(-1.0, 2.0)).boundary_distance, 1.0)
    aff = affine_shape(unit_disc(), 2.0, 0.5)
    assert np.isclose(riemann_catalog(aff).boundary_distance,
                      riemann_catalog(disc_shape(0.5, 2.0)).boundary_distance)


def test_affine_matches_recentred_disc():
    # scaling and shifting the unit disc is the same domain as a plain disc
    aff = riemann_catalog(affine_shape(unit_disc(), 2.0, 0.5))
    direct = riemann_catalog(disc_shape(0.5, 2.0))
    w = _disc_samples(400, seed=23)
    assert np.allclose(np.sort_complex(aff.inverse(w)),
                       np.sort_complex(aff.inverse(w)))
    assert np.isclose(abs(aff.derivative_at_zero),
                      abs(direct.derivative_at_zero), atol=1e-12)
    z = aff.inverse(w)
    assert np.allclose(direct.forward(z), direct.forward(z))
    assert np.allclose(np.abs(aff.forward(z)), np.abs(direct.forward(z)),
                       atol=1e-10)


def test_shape_constructors_validate():
    with pytest.raises(ArgumentError):
        disc_shape(2.0, 1.0)
    with pytest.raises(ArgumentError):
        disc_shape(0.0, -1.0)
    with pytest.raises(ArgumentError):
        affine_shape(unit_disc(), 0.0, 0.0)
    with pytest.raises(ArgumentError):
        affine_shape(unit_disc(), 1.0, 5.0)


def test_unknown_shape_kind_rejected():
    with pytest.raises(UnsupportedShapeError):
        riemann_catalog(PlanarShape(kind="annulus"))


def test_map_domain_errors():
    mp = riemann_catalog(slit_plane())
    with pytest.raises(MapDomainError):
        mp.forward(np.array([2.0 + 0j]))
    with pytest.raises(MapDomainError):
        mp.inverse(np.array([1.2 + 0j]))
    disc_map = riemann_catalog(disc_shape(0.3 + 0.4j, 1.0))
    with pytest.raises(MapDomainError):
        disc_map.forward(np.array([2.0 + 2j]))


# -- radius containment checks ------------------------------------------------

@pytest.mark.parametrize("c", [1.0 / 3.0, 1.0 / np.sqrt(5.0), 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_radius_containment(n, c):
    report = tau_radius_check(n, c, samples=20_000, seed=5)
    assert report.violations == 0
    assert 0.0 <= report.min_slack < 1e-6


@pytest.mark.parametrize("c", [1.0 / 3.0, 1.0 / np.sqrt(5.0), 1.0])
def test_rho_radius_containment_slit(c):
    maps = [riemann_catalog(slit_plane()) for _ in range(2)]
    report = rho_radius_check(maps, c, samples=20_000, seed=5)
    assert report.violations == 0
    assert 0.0 <= report.min_slack < 1e-6


def test_rho_radius_mixed_catalog():
    maps = [riemann_catalog(half_plane()), riemann_catalog(unit_disc()),
            riemann_catalog(slit_plane())]
    report = rho_radius_check(maps, 1.0, samples=20_000, seed=9)
    assert report.violations == 0
    assert report.min_slack >= 0.0


def test_rho_radius_rejects_small_shape():
    maps = [riemann_catalog(disc_shape(0.0, 0.5))]
    with pytest.raises(ArgumentError):
        rho_radius_check(maps, 1.0, samples=100, seed=0)


def test_radius_check_argument_validation():
    with pytest.raises(ArgumentError):
        tau_radius_check(0, 0.5)
    for n in (2.5, True):
        with pytest.raises(ArgumentError, match="n must be a positive integer"):
            tau_radius_check(n, 0.5)
    with pytest.raises(ArgumentError):
        tau_radius_check(2, 0.0)
    with pytest.raises(ArgumentError):
        tau_radius_check(2, 1.5)
    with pytest.raises(ArgumentError):
        tau_radius_check(2, 0.5, samples=0)
    with pytest.raises(ArgumentError):
        rho_radius_check([], 0.5)


@pytest.mark.parametrize("counts", [
    pytest.param({"samples": 2.5}, id="fractional_samples"),
    pytest.param({"samples": 0}, id="no_samples"),
    pytest.param({"seed": -1}, id="negative_seed"),
    pytest.param({"seed": 0.5}, id="fractional_seed"),
    pytest.param({"samples": True}, id="bool_samples"),
    pytest.param({"seed": False}, id="bool_seed"),
])
@pytest.mark.parametrize("check", [
    pytest.param(lambda **kw: tau_radius_check(2, 0.5, **kw), id="tau"),
    pytest.param(lambda **kw: rho_radius_check([riemann_catalog(slit_plane())] * 2, 0.5, **kw),
                 id="rho"),
])
def test_radius_checks_reject_bad_counts(check, counts):
    (name, _), = counts.items()
    with pytest.raises(ArgumentError, match=f"{name} must be a (positive|non-negative) integer"):
        check(**counts)


def test_rho_radius_smaller_than_tau_radius():
    for c in np.linspace(0.05, 0.95, 10):
        assert rho(c) < tau(c)
    r_tau = tau_radius_check(2, 0.5, samples=10, seed=0).radius
    r_rho = rho_radius_check([riemann_catalog(slit_plane())] * 2, 0.5,
                             samples=10, seed=0).radius
    assert r_rho < r_tau


def test_radius_check_reports_deterministic():
    a = tau_radius_check(2, 0.5, samples=500, seed=42)
    b = tau_radius_check(2, 0.5, samples=500, seed=42)
    assert a == b
    assert isinstance(a, ContainmentReport)
    assert set(a.as_dict()) == {"check", "n", "parameter", "radius",
                                "samples", "violations", "min_slack"}
