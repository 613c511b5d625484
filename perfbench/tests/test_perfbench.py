"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "0.3", "--size", "tiny", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--trace", "0")
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    text = proc.stdout
    assert "failed_share       0.000000" in text
    assert '"kernel_backend": "pure"' in text or '"kernel_backend": "fast"' in text


def test_traced_counts_repeat_between_runs():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [name for name, (unit, _) in run.PER_LAYER.items() if unit in run.EXACT_UNITS]
    lines = [
        result_line(bench("--workload", "theorem1-dim4", "--seed", "5", "--trace", "1"))
        for _ in range(2)
    ]
    for line in lines:
        assert line["correct"] is True and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    first, second = (line["metrics"] for line in lines)
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    assert first["kernel.solve.calls"]["value"] > 0
    assert first["cache.fan.walls.misses"]["value"] == first["fan.walls.misses"]["value"]


def test_wrappers_reach_from_imports_and_keep_cache_handles():
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import toricfano.cli
from toricfano import classify, fan, intersect, mori, cli, projective_space_fan
import spans
tracer = spans.Tracer()
original = fan.walls
tracer.install()
assert fan.walls is not original
assert intersect.walls is fan.walls and mori.walls is fan.walls
assert classify.walls is fan.walls and cli.walls is fan.walls
assert cli.is_fano is intersect.is_fano
assert 'lattice.quotient_matrix' in tracer.caches
p3 = projective_space_fan(3)
intersect.is_fano(p3)
assert fan.walls.cache_info().misses == 1
fan.walls.cache_clear()
assert original.cache_info().misses == 0
tracer.clear_caches()
intersect.is_fano(p3)
summary = tracer.summary()
assert summary['calls']['intersect.is_fano'] == 2
assert summary['calls']['fan.walls'] == 2
assert summary['caches']['fan.walls']['misses'] == 1
print('ok')
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "ok", proc.stderr


def test_speed_probe_leaves_its_slices_out_and_scales_by_them():
    import time

    probe = child.SpeedProbe()
    scaled, own = probe.measure(lambda: time.sleep(0.2))
    inside = len(probe.slices) - 2 * child.BURST
    assert inside >= 10
    assert abs(own - 0.2) < 0.02
    mean = sum(d for _, d in probe.slices) / len(probe.slices)
    assert scaled == own * child.REFERENCE_SLICE_S / mean


def test_untrusted_fans_have_the_requested_shape():
    counts = [24, 25, 29, 50]
    fans = workloads.untrusted_fans(11, counts)
    assert fans == workloads.untrusted_fans(11, counts)
    assert fans != workloads.untrusted_fans(12, counts)
    for fan, count in zip(fans, counts):
        assert len(fan["max_cones"]) == count
        rays = [tuple(r) for r in fan["rays"]]
        assert len(set(rays)) == len(rays)
        used = {i for cone in fan["max_cones"] for i in cone}
        assert used == set(range(len(rays)))


def test_relabel_keeps_the_fan_up_to_a_lattice_automorphism():
    import random

    (fan,) = workloads.untrusted_fans(3, [29])
    first = workloads.relabel(fan, random.Random(1))
    assert first == workloads.relabel(fan, random.Random(1))
    assert first != workloads.relabel(fan, random.Random(2))
    assert sorted(sorted(map(abs, r)) for r in first["rays"]) == sorted(
        sorted(map(abs, r)) for r in fan["rays"]
    )

    def cone_sets(f):
        return sorted(sorted(tuple(sorted(map(abs, f["rays"][i]))) for i in c) for c in f["max_cones"])

    assert cone_sets(first) == cone_sets(fan)
    path = os.path.join(run.WORK, "relabelled.json")
    os.makedirs(run.WORK, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(first, handle)
    proc = subprocess.run(
        [sys.executable, "-m", "toricfano.cli", "check", path, "--json"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    os.remove(path)
    assert workloads._check_untrusted([first], [proc.stdout]) == []


def test_corpus_seeds_give_corpora_of_equal_work():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from toricfano import random_corpus

    def work(seed):
        return sum(len(f.max_cones) ** 2 for f in random_corpus(4, 50, 4, seed))

    assert workloads.CORPUS_SEEDS[0] == workloads.DEFAULT_SEED
    reference = work(workloads.DEFAULT_SEED)
    for seed in workloads.CORPUS_SEEDS:
        assert abs(work(seed) - reference) <= 0.01 * reference


def test_checks_reject_wrong_reports():
    fans = workloads.untrusted_fans(1, [8])
    head = {"dim": 4, "rays": len(fans[0]["rays"]), "max_cones": 8, "smooth": True,
            "complete": True, "fano": False}
    walls = [{}] * (8 * 4 // 2)
    good = {"status": "pass", "findings": [head] + walls}
    assert workloads._check_untrusted(fans, [json.dumps(good)]) == []
    short = {"status": "pass", "findings": [head] + walls[1:]}
    assert workloads._check_untrusted(fans, [json.dumps(short)])
    incomplete = {"status": "pass", "findings": [dict(head, complete=False)] + walls}
    assert workloads._check_untrusted(fans, [json.dumps(incomplete)])
    assert workloads._check_theorem1([json.dumps({"status": "fail", "findings": []})])
    assert workloads._check_theorem1(["not json"])


def test_benchmark_refuses_a_directory_without_the_package():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("_work", "__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "theorem1-dim4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
