"""Universal constants against an independent extended-precision oracle."""

import math

import mpmath as mp
import pytest

from squeezecert import c_const, constants_csv, rho, tau, universal_bounds
from squeezecert.errors import ArgumentError


def oracle_row(n):
    """Evaluate all eight columns at 60 digits, straight from the formulas."""
    with mp.workdps(60):
        c = mp.sqrt((mp.mpf(4) ** n - 1) / 3)
        rn = mp.sqrt(n)
        two_n = mp.mpf(2) ** n
        return {
            "c_n": c,
            "convex_ball": 1 / (rn * (2 * c + 1)),
            "convex_polydisc": 1 / (mp.mpf(2) ** (n + 1) - 1),
            "cconvex_ball": 1 / (rn * (mp.sqrt(c) + mp.sqrt(c + 1)) ** 2),
            "cconvex_polydisc": 1 / (mp.sqrt(two_n) + mp.sqrt(two_n - 1)) ** 2,
            "weak_ball": 1 / (rn * (4 * c + 2)),
            "weak_polydisc": 1 / (mp.mpf(2) ** (n + 2) - 2),
        }


@pytest.mark.parametrize("n", range(2, 17))
def test_matches_extended_precision(n):
    row = universal_bounds(n).as_dict()
    oracle = oracle_row(n)
    for key, expected in oracle.items():
        rel = abs(row[key] - float(expected)) / float(expected)
        assert rel <= 1e-12, (n, key, rel)


_BOUNDS = ("convex_ball", "convex_polydisc", "cconvex_ball", "cconvex_polydisc",
           "weak_ball", "weak_polydisc")


@pytest.mark.parametrize("n", range(2, 65))
def test_bounds_are_rounded_down(n):
    # a certified lower bound must not exceed its exact value: each of the six
    # lies at or below its 60-digit value, within 4 ulps; c_n is the nearest double
    row = universal_bounds(n).as_dict()
    oracle = oracle_row(n)
    with mp.workdps(60):
        for key in _BOUNDS:
            assert mp.mpf(row[key]) <= oracle[key], (n, key)
            assert oracle[key] - mp.mpf(row[key]) <= 4 * math.ulp(row[key]), (n, key)
        assert abs(mp.mpf(row["c_n"]) - oracle["c_n"]) <= 0.5 * math.ulp(row["c_n"]), n


def test_spot_values_n2():
    u = universal_bounds(2)
    assert abs(u.c_n - 2.2360680) < 5e-8
    assert abs(u.convex_ball - 0.1292195) < 5e-8
    assert u.convex_polydisc == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert abs(u.cconvex_ball - 0.0651584) < 5e-8
    assert abs(u.cconvex_polydisc - 0.0717968) < 5e-8
    assert u.weak_polydisc == pytest.approx(1.0 / 14.0, abs=1e-15)


def test_c_const_values_and_guards():
    assert c_const(2) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert c_const(3) == pytest.approx(math.sqrt(21.0), rel=1e-15)
    # largest admissible dimension still evaluates to a finite double
    assert math.isfinite(c_const(512))
    for bad in (1, 0, -3, 513, 2.5, "2"):
        with pytest.raises(ArgumentError):
            c_const(bad)


@pytest.mark.parametrize("flag", [True, False])
def test_dimension_refuses_bools(flag):
    # a bool is an int to Python; it must not pass as dimension 1 or 0
    with pytest.raises(ArgumentError, match=f"dimension must be an integer, got {flag}"):
        universal_bounds(flag)


def test_tau_rho_values_and_domains():
    assert abs(tau(1.0 / math.sqrt(5.0)) - 0.1827440) < 5e-8
    assert tau(1.0 / 3.0) == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert rho(1.0 / 3.0) == pytest.approx(1.0 / (2.0 + math.sqrt(3.0)) ** 2, rel=1e-14)
    assert rho(1.0) == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)) ** 2, rel=1e-14)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ArgumentError):
            tau(bad)
    for bad in (0.0, 1.0 + 1e-12, -1.0):
        with pytest.raises(ArgumentError):
            rho(bad)


@pytest.mark.parametrize("n", range(2, 17))
def test_cross_identities(n):
    u = universal_bounds(n)
    rn = math.sqrt(n)
    assert u.convex_ball == pytest.approx(tau(1.0 / u.c_n) / rn, rel=1e-15)
    assert u.cconvex_ball == pytest.approx(rho(1.0 / u.c_n) / rn, rel=1e-15)
    assert u.convex_polydisc == pytest.approx(tau(1.0 / (2**n - 1)), rel=1e-15)
    assert u.cconvex_polydisc == pytest.approx(rho(1.0 / (2**n - 1)), rel=1e-15)


@pytest.mark.parametrize("n", range(2, 17))
def test_strict_orderings(n):
    u = universal_bounds(n)
    assert u.convex_ball > u.cconvex_ball > u.weak_ball
    assert u.convex_polydisc > u.cconvex_polydisc > u.weak_polydisc


def test_bounds_strictly_decrease_in_n():
    rows = [universal_bounds(n) for n in range(2, 17)]
    for prev, cur in zip(rows, rows[1:]):
        for key in ("convex_ball", "convex_polydisc", "cconvex_ball",
                    "cconvex_polydisc", "weak_ball", "weak_polydisc"):
            assert getattr(cur, key) < getattr(prev, key)
        assert cur.c_n > prev.c_n


def test_csv_header_and_roundtrip():
    text = constants_csv(4)
    lines = text.strip().split("\n")
    assert lines[0] == ("n,c_n,convex_ball,convex_polydisc,cconvex_ball,cconvex_polydisc,"
                        "weak_ball,weak_polydisc")
    assert len(lines) == 4
    for line, n in zip(lines[1:], range(2, 5)):
        cells = line.split(",")
        assert cells[0] == str(n)
        u = universal_bounds(n)
        # 17 significant digits must round-trip to the exact double
        assert float(cells[1]) == u.c_n
        assert float(cells[2]) == u.convex_ball
        assert float(cells[5]) == u.cconvex_polydisc
        assert float(cells[7]) == u.weak_polydisc
