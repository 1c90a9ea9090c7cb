"""Tests of the benchmark itself: ``python3 -m pytest bench``.

Tiny-size smoke runs of every workload, the metric names against
BENCHMARK.json, the tracer's rebinding in every importing module, and the
refusal to run without the package sources.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
import metrics

run.import_package()

import squeezecert  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "squeezecert" or k.startswith("squeezecert."))]


def wrapped_bindings():
    return [(m.__name__, attr) for m in package_modules()
            for attr, value in vars(m).items() if hasattr(value, "__wrapped__")]


def test_config_is_generated_from_the_tables():
    assert CONFIG == metrics.benchmark_config()
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_reports_every_configured_metric(name, traced, tmp_path):
    work = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    rec, _wall, tracer = run.measure(work, 0.0, traced)
    assert rec.attempted >= 1 and rec.failed == 0, rec.failed_ops
    assert len(rec.ref_times) == rec.attempted and min(rec.ref_times) > 0
    values, _pct = run.collect(rec, 0.5, tracer)
    line = run.result_line(rec, values)
    wanted = CONFIG["per_layer"] if traced else CONFIG["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert line["correct"] is True
    assert wrapped_bindings() == [], "a run left wrappers installed"
    if traced:
        run.write_spans(tmp_path / "spans.jsonl", tracer.spans)
        spans = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert len(spans) == len(tracer.spans) > 0
        ids = {s["id"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
        # kappa_probe's own calls between swept domains belong to no op
        assert {s["op"] for s in spans} - {None} == set(range(rec.attempted))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    build = workloads.WORKLOADS[name]
    first = build(5, tmp_path / "a").inputs
    assert first == build(5, tmp_path / "b").inputs
    assert first != build(6, tmp_path / "c").inputs


def test_tracer_replaces_every_importing_binding():
    originals = {id(fn): fn for _name, fn in tracing.public_functions(tracing.layer_modules())}
    bindings = [(m, attr, value) for m in package_modules()
                for attr, value in vars(m).items() if id(value) in originals]
    # the names the package re-imports: these need rebinding beyond their home module
    assert {(m.__name__, attr) for m, attr, _ in bindings} >= {
        ("squeezecert.frame", "ray_exit_batch"), ("squeezecert.frame", "contains"),
        ("squeezecert.bounds", "contains"), ("squeezecert.verify", "certify"),
        ("squeezecert.cli", "certify"), ("squeezecert", "ray_exit_batch")}
    disc = squeezecert.ball(2)
    tracer = tracing.Tracer()
    with tracer:
        for mod, attr, original in bindings:
            assert getattr(mod, attr).__wrapped__ is original, (mod.__name__, attr)
        squeezecert.frame.ray_exit_batch(disc, [0, 0], [[1, 0], [0, 1j]])
    assert wrapped_bindings() == []
    for mod, attr, original in bindings:
        assert getattr(mod, attr) is original
    assert [s[1] for s in tracer.spans] == ["domains.ray_exit_batch"]
    counts = tracer.spans[0][7]
    assert counts["rays"] == 2 and counts["contains.calls"] >= 2


def test_failures_are_named_and_wrong_answers_are_incorrect():
    rec = workloads.Recorder()

    def raises():
        raise squeezecert.TriangularityError("row tail")

    def wrong(_out):
        raise workloads.CheckFailed("margins")

    rec.op("a", raises, lambda out: None)
    assert run.result_line(rec, {})["correct"] is True
    rec.op("b", lambda: 1, wrong)
    rec.op("c", lambda: 1, lambda out: None)
    assert rec.failures == {"TriangularityError": 1, "check:margins": 1}
    line = run.result_line(rec, {})
    assert (line["attempted"], line["failed"], line["correct"]) == (3, 2, False)
    with pytest.raises(squeezecert.TriangularityError):
        rec.op("d", raises, lambda out: None, reraise=True)


def test_latencies_are_scaled_to_the_reference_speed():
    ref = workloads.REF_SECONDS
    rec = workloads.Recorder(latencies=[1.0, 3.0], ref_times=[ref, 1.5 * ref])
    assert rec.scaled == [1.0, 2.0]


def test_tail_is_the_ninetieth_percentile_below_a_hundred_ops():
    assert metrics.tail([3.0]) == (3.0, 100.0)
    assert metrics.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0)
    assert metrics.tail(list(range(11))) == (9.0, 90.0)
    values = list(range(200))
    assert metrics.tail(values) == (189, 95.0)


def test_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.5 for v in parent]
    slower = [v * 1.5 for v in parent]
    assert metrics.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert metrics.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert metrics.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.6]
    assert metrics.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        CONFIG["command"] + ["--workload", "suites", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
