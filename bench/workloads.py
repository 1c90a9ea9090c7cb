"""The benchmark's four workloads: inputs from a seed, the ops, and their checks.

Every workload is one process, one thread, closed loop: the next op starts
only after the last one returned.  A round runs every fixture of the
workload once (cconvex_images: twice) and rounds repeat the same inputs.
A run is a fixed number of whole rounds, the number that fills the
requested seconds at the workload's nominal round time: a partial round
would change the input mix, and a count set by the clock would change the
amount of work between two commits.
Programs receive only the generated inputs; the seed decides the parameters
of the seeded fixtures and the order.

An op fails when it raises a SqueezeCertError, when the CLI exits non-zero,
or when one of the output checks below does not hold.  Failures are named by
exception class or by check.

Around every op, outside its timing, the recorder times a fixed reference
kernel (numpy and interpreter work that calls nothing of the package), so
that each op's latency can be read at a fixed machine speed: on a shared
host the speed of a core drifts by tens of percent over seconds to minutes.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import squeezecert
from squeezecert import cli, verify
from squeezecert.errors import SqueezeCertError
from squeezecert.numerics import universal_bounds

VIOLATION_TOL = -1e-10
RADIUS_TOL = 1e-9

# settings for the smoke run; the measured workloads use the program defaults
TINY_CERTIFY = {"samples": 100, "rays": 200, "spot_trials": 10, "cloud_samples": 6000}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


# -- machine speed ---------------------------------------------------------------

# the reference kernel's median time on the shared 2-core Xeon VM the benchmark
# was tuned on: op times are reported as if every op ran at that speed
REF_SECONDS = 0.065

_REF_RNG = np.random.default_rng(20231012)
_REF_POINTS = _REF_RNG.normal(size=(20000, 4))
_REF_MATRIX = _REF_RNG.normal(size=(4, 4)) / 2.0


def reference_time():
    """Wall seconds of a fixed kernel: half interpreter loop, half numpy batches.

    It mixes the two kinds of work the package does and calls none of its
    code, so no change to the package moves it; only the machine does.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(250_000):
        acc += (i * 0.37) % 1.0
    x = _REF_POINTS
    for _ in range(48):
        y = x @ _REF_MATRIX
        r = np.sqrt((y * y).sum(axis=1))
        acc += float(r.max())
        x = y / r.max()
    return time.perf_counter() - start


@dataclass
class Recorder:
    """Latency and outcome of every op, failures by name.

    `ref_times[i]` is the mean reference-kernel time just before and just
    after op i, both timed outside the op.
    """

    latencies: list = field(default_factory=list)
    ref_times: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    failed_ops: list = field(default_factory=list)
    tracer: object = None  # stamps its spans with the current op's index
    _ref_before: float = None

    def op(self, label, run, check, reraise=False):
        """Time run(), check its output, record the outcome; returns run()'s value.

        A SqueezeCertError is recorded and, with `reraise`, raised again for a
        caller that cannot go on without the value.
        """
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)
        if self._ref_before is None:
            self._ref_before = reference_time()
        start = time.perf_counter()
        try:
            out = run()
        except SqueezeCertError as exc:
            self._record(label, time.perf_counter() - start, type(exc).__name__)
            if reraise:
                raise
            return None
        latency = time.perf_counter() - start
        try:
            check(out)
        except CheckFailed as exc:
            self._record(label, latency, f"check:{exc}")
            return out
        self._record(label, latency, None)
        return out

    def _record(self, label, latency, failure):
        after = reference_time()
        self.ref_times.append(0.5 * (self._ref_before + after))
        self._ref_before = after
        self.latencies.append(latency)
        self.labels.append(label)
        if failure is not None:
            self.failures[failure] += 1
            self.failed_ops.append((label, failure))

    @property
    def scaled(self):
        """Op latencies at the reference speed: wall latency x REF_SECONDS / ref time."""
        return [lat * REF_SECONDS / ref for lat, ref in zip(self.latencies, self.ref_times)]

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failed_ops)


# -- output checks ---------------------------------------------------------------


def _require(ok, name):
    if not ok:
        raise CheckFailed(name)


def check_certificate(n, cls, s, s_hat, witness_s, witness_s_hat, margins, radius0,
                      expected_radius):
    """Checks shared by certify reports and CLI bound reports.

    `margins` maps a margin name to (violations, min_slack).
    """
    consts = universal_bounds(n)
    want = ((consts.convex_ball, consts.convex_polydisc) if cls == "convex"
            else (consts.cconvex_ball, consts.cconvex_polydisc))
    _require((s, s_hat) == want, "certified_constants")
    for violations, min_slack in margins.values():
        _require(violations == 0 and min_slack >= VIOLATION_TOL, "margins")
    if witness_s is not None:
        _require(witness_s > s and witness_s_hat > s_hat, "witness_above_certified")
    if expected_radius is not None:
        _require(abs(radius0 - expected_radius) <= RADIUS_TOL, "frame_radius")


def check_report(report, cls, expected_radius):
    check_certificate(
        report.n, cls, report.certified_s, report.certified_s_hat,
        report.witness_s, report.witness_s_hat,
        {k: (m.violations, m.min_slack) for k, m in report.margins.items()},
        report.diagnostics["radii"][0], expected_radius)


def check_report_json(data, cls, expected_radius):
    result = data["result"]
    witness = result["witness"]
    check_certificate(
        result["n"], cls, result["certified"]["s"], result["certified"]["s_hat"],
        witness["s"], witness["s_hat"],
        {k: (m["violations"], m["min_slack"]) for k, m in result["margins"].items()},
        result["diagnostics"]["radii"][0], expected_radius)


def check_suite(report):
    _require(report.violations == 0 and report.worst_margin >= VIOLATION_TOL,
             "suite_violations")


def first_radius(d):
    """Closed-form first-stage frame radius (the euclidean inradius) of a catalog body."""
    if d.kind in ("ball", "polydisc"):
        return 1.0
    if d.kind == "l1ball":
        return 1.0 / math.sqrt(d.n)
    if d.kind == "lp_ball" and d.p < 2.0:
        return d.n ** (0.5 - 1.0 / d.p)
    return None


# -- workloads -------------------------------------------------------------------------


@dataclass
class Workload:
    """A round of tasks built from a seed; each task records one or more ops."""

    name: str
    tasks: list
    inputs: list  # JSON-able description of each task's input, in run order
    round_s: float  # nominal seconds per round on a shared 2-core Xeon VM
    install: object = None  # callable(recorder) -> callable restoring what it patched


def _order(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


def convex_catalog(seed, workdir, tiny=False):
    """certify at default settings on convex catalog and affine kinds, n = 2, 3, 6."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 101)))
    raw = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    shear = np.eye(2, dtype=complex)
    shear[1, 0] = 0.9 * raw / max(1.0, abs(raw))
    g = rng.normal(size=4).view(complex)
    point = 0.5 * rng.uniform() ** 0.25 * g / np.linalg.norm(g)
    fixtures = [
        ("ball(2)", squeezecert.ball(2)),
        ("ball(3)", squeezecert.ball(3)),
        ("polydisc(2)", squeezecert.polydisc(2)),
        ("l1ball(2)", squeezecert.l1ball(2)),
        ("lp_ball(2,1.5)", squeezecert.lp_ball(2, 1.5)),
        ("sheared_polydisc(2)", squeezecert.affine_image(squeezecert.polydisc(2), shear)),
        ("translated_ball(2)", squeezecert.translate(squeezecert.ball(2), point)),
        ("l1ball(6)", squeezecert.l1ball(6)),
    ]
    kwargs = {}
    if tiny:
        fixtures, kwargs = fixtures[2:3], TINY_CERTIFY

    def task(label, d):
        def run_task(rec):
            rec.op(label, lambda: squeezecert.certify(d, **kwargs),
                   lambda rep: check_report(rep, "convex", first_radius(d)))
        return run_task

    fixtures = _order(rng, fixtures)
    return Workload("convex_catalog", [task(*f) for f in fixtures],
                    [[label, squeezecert.domain_to_json(d)] for label, d in fixtures], 17.0)


def cconvex_images(seed, workdir, tiny=False):
    """In-process ``squeezecert bound SPEC --out REPORT`` on C-convex fixtures."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 102)))
    eye, zero = np.eye(2), np.zeros(2)
    pd, bl = squeezecert.polydisc(2), squeezecert.ball(2)
    cconvex_pd = squeezecert.DomainSpec(n=2, kind="polydisc", convexity_class="cconvex")
    fixtures = [
        # criterion 7's nonconvex fixture
        ("projective_polydisc(2)", squeezecert.projective_image(
            pd, eye, zero, [2.0, -1.0, 0.0], bounding_radius=10.0), None),
        # projective-family members
        ("projective_family_polydisc(2)", squeezecert.projective_image(
            pd, eye, zero, [2.0, 0.5, 0.0], bounding_radius=100.0), None),
        ("projective_family_ball(2)", squeezecert.projective_image(
            bl, eye, zero, [2.0, 0.5, 0.0], bounding_radius=100.0), None),
        ("polydisc(2)_cconvex", cconvex_pd, 1.0),
    ]
    # the seed sets each bound's run seed (its samples, starts and rays) and
    # the order; the fixtures are fixed, as a seeded shape moves an op's cost
    extra, passes = ["--seed", str(seed)], 2
    if tiny:
        fixtures, extra, passes = fixtures[3:], extra + ["--samples", "100"], 1
    os.makedirs(workdir, exist_ok=True)
    bound = []
    for idx, (label, d, radius) in enumerate(fixtures):
        spec = os.path.join(workdir, f"spec{idx}.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(squeezecert.domain_to_json(d), fh)
        out = os.path.join(workdir, f"report{idx}.json")
        bound.append((label, d, _cli_task(label, ["bound", spec, "--out", out] + extra, out,
                                          radius)))
    # four ops of 2-6 s: two passes, each in its own seeded order, give the
    # median and tail of a round more than one op of each fixture
    bound = [b for _ in range(passes) for b in _order(rng, bound)]
    return Workload("cconvex_images", [task for _, _, task in bound],
                    [[label, squeezecert.domain_to_json(d), seed] for label, d, _ in bound],
                    38.0)


def _cli_task(label, argv, out, radius):
    def run():
        if os.path.exists(out):
            os.remove(out)
        code = cli.main(argv)
        if code != 0:
            return code, None
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)

    def check(result):
        code, data = result
        _require(code == 0, f"exit_code_{code}")
        check_report_json(data, "cconvex", radius)

    def run_task(rec):
        rec.op(label, run, check)

    return run_task


def kappa_sweep(seed, workdir, tiny=False):
    """kappa_probe over the shears and projective families, n = 2, probe defaults.

    Each swept domain is one op, timed by wrapping ``verify.certify``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 103)))
    probes = [("shears", 1 if tiny else 8), ("projective", 1 if tiny else 4)]
    extra = {"rays": 100, "samples": 100, "cloud_samples": 6000} if tiny else {}

    def task(family, budget):
        def run_task(rec):
            try:
                verify.kappa_probe(family, n=2, budget=budget, seed=seed, **extra)
            except SqueezeCertError:
                pass  # the op that raised is already recorded
        return run_task

    def install(rec):
        inner = verify.certify

        def timed_certify(d, convexity_class=None, **kwargs):
            return rec.op(
                f"kappa:{d.kind}", lambda: inner(d, convexity_class=convexity_class, **kwargs),
                lambda rep: check_report(rep, convexity_class or d.convexity_class, None),
                reraise=True)

        verify.certify = timed_certify

        def restore():
            verify.certify = inner
        return restore

    probes = _order(rng, probes)
    return Workload("kappa_sweep", [task(*p) for p in probes],
                    [[family, budget, seed] for family, budget in probes], 18.0, install)


def suites(seed, workdir, tiny=False):
    """suite_star and suite_lemmas at the acceptance sizes, one dimension per op."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 104)))
    star = {"trials": 20} if tiny else {"trials": 2500}
    lemmas = {"trials": 10, "samples": 50} if tiny else {"trials": 1000, "samples": 1000}
    dims = (2,) if tiny else (2, 3, 4, 5)
    runs = [("suite_star", n, star) for n in dims] + [("suite_lemmas", n, lemmas) for n in dims]

    def task(suite, n, kwargs):
        def run_task(rec):
            # looked up per call, so a traced run reaches the wrapped binding
            rec.op(f"{suite}(n={n})",
                   lambda: getattr(verify, suite)(dims=(n,), seed=seed, **kwargs), check_suite)
        return run_task

    runs = _order(rng, runs)
    return Workload("suites", [task(*r) for r in runs],
                    [[suite, n, seed] for suite, n, _ in runs], 6.5)


WORKLOADS = {
    "convex_catalog": convex_catalog,
    "cconvex_images": cconvex_images,
    "kappa_sweep": kappa_sweep,
    "suites": suites,
}


def run_rounds(workload, seconds, recorder):
    """Run the whole rounds that fill `seconds`; returns the timed wall time."""
    rounds = max(1, round(seconds / workload.round_s))
    restore = workload.install(recorder) if workload.install else None
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            for task in workload.tasks:
                task(recorder)
        return time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
