"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line and enforcing its stated tolerance and runtime."""
import json
import math
import time

import mpmath
import numpy as np

from squeezecert.bounds import certify, containment_check, report_to_json
from squeezecert.domains import affine_image, ball, contains, l1ball, polydisc, projective_image
from squeezecert.numerics import (
    c_const,
    constants_table,
    count_inverse_monomials,
    inverse_coefficients,
    unit_lower,
    universal_bounds,
)
from squeezecert.planar import (
    rho_radius_check,
    riemann_catalog,
    slit_plane,
    tau_radius_check,
    unit_disc,
    half_plane,
    disc_shape,
    affine_shape,
)
from squeezecert.verify import kappa_probe, suite_lemmas, suite_star, suite_strictness


def _gate(number, name, started, budget, checks):
    elapsed = time.monotonic() - started
    checks = list(checks) + [(f"runtime {elapsed:.1f}s within {budget:.0f}s",
                              elapsed < budget)]
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}"
          + (f"  [{'; '.join(failed)}]" if failed else ""), flush=True)
    assert not failed, f"criterion {number} ({name}) failed: {failed}"


def test_criterion_1_constants_table():
    t0 = time.monotonic()
    checks = []
    mpmath.mp.dps = 50
    for row in constants_table(10):
        n = row.n
        c = mpmath.sqrt((mpmath.mpf(4) ** n - 1) / 3)
        rn = mpmath.sqrt(n)
        ref = {
            "c_n": c,
            "convex_ball": 1 / (rn * (2 * c + 1)),
            "convex_polydisc": mpmath.mpf(1) / (2 ** (n + 1) - 1),
            "cconvex_ball": 1 / (rn * (mpmath.sqrt(c) + mpmath.sqrt(c + 1)) ** 2),
            "cconvex_polydisc": 1 / (mpmath.sqrt(2 ** n) + mpmath.sqrt(2 ** n - 1)) ** 2,
            "weak_ball": 1 / (rn * (4 * c + 2)),
            "weak_polydisc": mpmath.mpf(1) / (2 ** (n + 2) - 2),
        }
        for field, target in ref.items():
            rel = abs(getattr(row, field) - target) / abs(target)
            checks.append((f"n={n} {field} rel err {float(rel):.2e}", rel <= 1e-12))
        checks.append((f"n={n} ordering ball", row.convex_ball > row.cconvex_ball > row.weak_ball))
        checks.append((f"n={n} ordering polydisc",
                       row.convex_polydisc > row.cconvex_polydisc > row.weak_polydisc))
    two = universal_bounds(2)
    spots = [
        ("c_2", two.c_n, 2.2360680),
        ("convex_ball", two.convex_ball, 0.1292195),
        ("convex_polydisc", two.convex_polydisc, 0.1428571),
        ("cconvex_ball", two.cconvex_ball, 0.0651584),
        ("cconvex_polydisc", two.cconvex_polydisc, 0.0717968),
        ("weak_polydisc", two.weak_polydisc, 0.0714286),
    ]
    for label, value, display in spots:
        checks.append((f"spot {label} rounds to {display}", round(value, 7) == display))
    _gate(1, "constants table", t0, 1.0, checks)


def test_criterion_2_polydisc_pipeline():
    t0 = time.monotonic()
    rep = certify(polydisc(2), seed=0)
    t = rep.normalizer.t_matrix.entries
    a = rep.normalizer.a_matrix.entries
    eye = np.eye(2)
    checks = [
        ("frame radii (1,1)", np.abs(rep.normalizer.frame.radii - 1.0).max() < 1e-9),
        ("T identity", np.abs(t - eye).max() < 1e-9),
        ("A identity", np.abs(a - eye).max() < 1e-9),
        ("certified s_hat >= 1/7", rep.certified_s_hat >= 1 / 7 - 1e-15),
        ("witness polydisc radius 1/3",
         rep.witness_s_hat is not None and abs(rep.witness_s_hat - 1 / 3) <= 1e-3),
    ]
    _gate(2, "polydisc pipeline", t0, 10.0, checks)


def test_criterion_3_l1ball_pipeline():
    t0 = time.monotonic()
    rep = certify(l1ball(2), seed=0)
    radii = rep.normalizer.frame.radii
    t = rep.normalizer.t_matrix.entries
    a = rep.normalizer.a_matrix.entries
    expected_t = np.array([[1.0, 1.0], [1.0, -1.0]])
    consts = universal_bounds(2)
    checks = [
        ("radii 1/sqrt(2)", np.abs(radii - 1 / math.sqrt(2)).max() <= 1e-6),
        ("T = [[1,1],[1,-1]] from the DFT contacts",
         np.abs(t - expected_t).max() < 1e-9),
        ("A identity", np.abs(a - np.eye(2)).max() < 1e-9),
        ("certified s equals the universal constant", rep.certified_s == consts.convex_ball),
        ("certified s_hat equals the universal constant",
         rep.certified_s_hat == consts.convex_polydisc),
    ]
    _gate(3, "l1 ball pipeline", t0, 30.0, checks)


def test_criterion_4_lemma_suite():
    t0 = time.monotonic()
    rep = suite_lemmas(dims=(2, 3, 4, 5), trials=1000, samples=1000, seed=0)
    checks = [
        ("zero violations across 10^3 shears per dimension and the sampled radius checks",
         rep.violations == 0),
        ("worst margin above -1e-10", rep.worst_margin >= -1e-10),
    ]
    # tightness of the all-(-1) shear: the equal-modulus corner of the small
    # polydisc lands on the simplex boundary, so the margin collapses
    for n in (2, 3, 4, 5):
        alpha = np.tril(-np.ones((n, n)), -1) + np.eye(n)
        inv = inverse_coefficients(unit_lower(alpha)).entries
        tight = containment_check(affine_image(polydisc(n), 1.0 / (2.0 ** n - 1.0) * np.eye(n)),
                                  inv, l1ball(n), samples=1000, seed=0)
        checks.append((f"n={n} all-(-1) worst margin <= 1e-6",
                       0.0 <= tight.min_slack <= 1e-6))
        ball_rep = containment_check(affine_image(ball(n), 1.0 / c_const(n) * np.eye(n)), inv,
                                     l1ball(n), samples=1000, seed=0)
        checks.append((f"n={n} ball containment clean", ball_rep.violations == 0))
    _gate(4, "triangular containment suite", t0, 120.0, checks)


def test_criterion_5_star_suite():
    t0 = time.monotonic()
    checks = []
    for n in range(2, 9):
        counts = count_inverse_monomials(n)
        expected = np.zeros((n, n), dtype=object)
        for j in range(n):
            for k in range(j):
                expected[j, k] = 2 ** (j - k - 1)
        checks.append((f"n={n} symbolic monomial counts",
                       all(counts[j, k] == expected[j, k]
                           for j in range(n) for k in range(j))))
    inv3 = inverse_coefficients(unit_lower(np.tril(-np.ones((3, 3)), -1) + np.eye(3)))
    checks.append(("all-(-1) n=3 inverse is [[1,0,0],[1,1,0],[2,1,1]] exactly",
                   np.array_equal(inv3.entries,
                                  np.array([[1, 0, 0], [1, 1, 0], [2, 1, 1]], dtype=complex))))
    rep = suite_star(dims=(2, 3, 4, 5), trials=2500, seed=0)
    checks.append(("10^4 random coefficient-bound checks clean", rep.violations == 0))
    _gate(5, "triangular coefficient suite", t0, 60.0, checks)


def test_criterion_6_koebe_cayley_suite():
    t0 = time.monotonic()
    checks = []
    slit = riemann_catalog(slit_plane())
    for r in np.arange(0.1, 0.95, 0.1):
        err = abs(abs(slit.inverse(-r)) - 4 * r / (1 - r) ** 2)
        checks.append((f"slit map distortion at r={r:.1f}", err < 1e-12))
    qualifying = [
        riemann_catalog(unit_disc()),
        riemann_catalog(half_plane()),
        riemann_catalog(slit_plane()),
        riemann_catalog(disc_shape(0.0, 1.0)),
        riemann_catalog(affine_shape(slit_plane(), -1.0, 0.0)),
    ]
    for m in qualifying:
        if not m.one_on_boundary:
            continue
        checks.append((f"{m.shape.kind} derivative bound",
                       abs(m.derivative_at_zero) <= 4.0 + 1e-10))
    for c in (1 / 3, 1 / math.sqrt(5), 1.0):
        trep = tau_radius_check(2, c, samples=100_000, seed=0)
        checks.append((f"tau containment c={c:.4f}", trep.violations == 0))
        rrep = rho_radius_check([slit, slit], c, samples=100_000, seed=0)
        checks.append((f"rho containment c={c:.4f}", rrep.violations == 0))
    _gate(6, "distortion and radius suite", t0, 60.0, checks)


def test_criterion_7_cconvex_fixture():
    t0 = time.monotonic()
    d = projective_image(polydisc(2), np.eye(2), np.zeros(2),
                         [2.0, -1.0, 0.0], bounding_radius=10.0)
    inside_a = np.array([0.458j, 0.54])
    inside_b = np.array([-0.458j, 0.54])
    midpoint = np.array([0.0, 0.54])
    rep = certify(d, seed=0)
    consts = universal_bounds(2)
    checks = [
        ("first triple point inside", bool(contains(d, inside_a))),
        ("second triple point inside", bool(contains(d, inside_b))),
        ("midpoint outside (non-convexity)", not contains(d, midpoint)),
        ("all |alpha| within 1 + 1e-9",
         rep.diagnostics["alpha_max"] <= 1.0 + 1e-9),
        # exact doubles 0.06515837617431255 / 0.07179676972449082, each
        # the largest double at or below its bound
        ("certified s = 0.0651584", round(rep.certified_s, 7) == 0.0651584
         and rep.certified_s == consts.cconvex_ball),
        ("certified s_hat = 0.0717968", round(rep.certified_s_hat, 7) == 0.0717968
         and rep.certified_s_hat == consts.cconvex_polydisc),
        ("witness presence noted in report",
         "matched_projections" in rep.diagnostics),
    ]
    _gate(7, "C-convex nonconvex fixture", t0, 60.0, checks)


def test_criterion_8_strictness_and_probe():
    t0 = time.monotonic()
    strict = suite_strictness(seed=0)
    probe = kappa_probe("shears", n=2, budget=100, seed=0)
    checks = [
        ("strictness suite clean", strict.violations == 0),
        ("every witness-certificate gap positive", strict.worst_margin > 0.0),
        ("probe kept every witness above the universal s",
         probe.min_witness_s is not None and probe.min_witness_s > probe.universal_s),
        ("probe kept every witness above the universal s_hat",
         probe.min_witness_s_hat is not None
         and probe.min_witness_s_hat > probe.universal_s_hat),
        ("probe swept its full budget", probe.witness_runs == 100),
    ]
    _gate(8, "strictness and kappa probe", t0, 300.0, checks)


def test_criterion_9_determinism():
    t0 = time.monotonic()
    first = json.dumps(report_to_json(certify(polydisc(2), seed=0)), sort_keys=True)
    second = json.dumps(report_to_json(certify(polydisc(2), seed=0)), sort_keys=True)
    star_a = json.dumps(suite_star(dims=(2, 3), trials=50, seed=0).as_dict(), sort_keys=True)
    star_b = json.dumps(suite_star(dims=(2, 3), trials=50, seed=0).as_dict(), sort_keys=True)
    probe_a = json.dumps(kappa_probe("shears", n=2, budget=2, seed=0).as_dict(),
                         sort_keys=True)
    probe_b = json.dumps(kappa_probe("shears", n=2, budget=2, seed=0).as_dict(),
                         sort_keys=True)
    ball_a = json.dumps(report_to_json(certify(ball(2), seed=7)), sort_keys=True)
    ball_b = json.dumps(report_to_json(certify(ball(2), seed=7)), sort_keys=True)
    checks = [
        ("pipeline report byte-identical", first == second),
        ("suite report byte-identical", star_a == star_b),
        ("probe report byte-identical", probe_a == probe_b),
        ("nonzero-seed report byte-identical", ball_a == ball_b),
    ]
    _gate(9, "determinism", t0, 120.0, checks)
