"""End-to-end and per-layer benchmark of the toricfano verifiers.

Print every metric for every workload, with units, and check the outputs:

    python3 perfbench/run.py

One run of one workload; the last line printed is the JSON result:

    python3 perfbench/run.py --workload theorem1-dim4 --seed 7 --seconds 40 --trace 0

This process generates the inputs from ``--seed`` and then starts fresh
Python processes (``child.py``) one at a time, so every ``lru_cache`` is
cold, as for a user of the command line.  With ``--trace 0`` it alternates
plain and ``python -O`` children for ``--seconds`` seconds and reports
``run_s`` and ``run_O_s`` (time of the ``cli.run`` calls),
``setup_s`` (importing ``toricfano.cli``) and ``peak_rss_mb`` (the child's
``ru_maxrss`` from ``os.wait4``), each the median over the children.  The
times are taken against the host's speed (``child.SpeedProbe``): wall
seconds scaled to a reference speed, because a shared host runs the same
work up to about 1.6 times slower for seconds at a time.  The text lines
also give the quartiles, the sample count and the median wall time.  With
``--trace 1`` it alternates traced and untraced plain children, timed by
wall clock alone, and reports the per-layer metrics of ``spans.Tracer``,
plus the tracing overhead.

A child fails when it exits non-zero, a command's exit code is not 0, a
report is wrong by the workload's own checks, its output differs from
another child's output for the same inputs (plain, ``-O`` and traced runs
must all print the same bytes), or, at the default seed and size, its
digest differs from the one recorded in ``expected.json``.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 24
HARD_LIMIT_S = 170

END_TO_END = {"run_s": "s", "run_O_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CACHES = (
    "lattice.quotient_matrix",
    "fan.validate",
    "fan.is_smooth",
    "fan.is_complete",
    "fan.walls",
    "fan._iso_signature",
    "intersect.is_fano",
    "mori.is_extremal",
    "classify.analyze_divisor",
    "classify.catalog",
)


def _calls(label):
    return lambda t: t["calls"].get(label, 0)


def _self(label):
    return lambda t: t["self_s"].get(label, 0.0)


def _layer(layer):
    return lambda t: t["layer_self_s"].get(layer, 0.0)


def _cache(key, field):
    return lambda t: t["caches"].get(key, {}).get(field, 0)


# name -> (unit, extractor).  Counts must repeat exactly between traced
# children; times are the fastest traced child's.
EXACT_UNITS = ("count", "bytes")
PER_LAYER = {
    "kernel.det.calls": ("count", _calls("kernel.det")),
    "kernel.solve.calls": ("count", _calls("kernel.solve")),
    "kernel.self_s": ("s", _layer("kernel")),
    "fan.is_complete.calls": ("count", _calls("fan.is_complete")),
    "fan.is_complete.self_s": ("s", _self("fan.is_complete")),
    "fan.walls.calls": ("count", _calls("fan.walls")),
    "fan.walls.misses": ("count", _cache("fan.walls", "misses")),
    "fan.walls.self_s": ("s", _self("fan.walls")),
    "fan.star_subdivide.self_s": ("s", _self("fan.star_subdivide")),
    "fan.validate.calls": ("count", _calls("fan.validate")),
    "fan.validate.self_s": ("s", _self("fan.validate")),
    "fan.fans_isomorphic.calls": ("count", _calls("fan.fans_isomorphic")),
    "fan.fans_isomorphic.found": (
        "count",
        lambda t: t["found"].get("fan.fans_isomorphic", 0),
    ),
    "fan.fans_isomorphic.self_s": ("s", _self("fan.fans_isomorphic")),
    "fan.self_s": ("s", _layer("fan")),
    "intersect.is_fano.calls": ("count", _calls("intersect.is_fano")),
    "intersect.self_s": ("s", _layer("intersect")),
    "simplex.in_nonneg_span.calls": ("count", _calls("simplex.in_nonneg_span")),
    "simplex.self_s": ("s", _layer("simplex")),
    "mori.is_extremal.calls": ("count", _calls("mori.is_extremal")),
    "mori.self_s": ("s", _layer("mori")),
    "classify.theorem1_check.p50_ms": (
        "ms",
        lambda t: t["percentiles"]["classify.theorem1_check"]["p50_ms"],
    ),
    "classify.theorem1_check.p90_ms": (
        "ms",
        lambda t: t["percentiles"]["classify.theorem1_check"]["p90_ms"],
    ),
    "classify.classify_fano_with_divisor.calls": (
        "count",
        _calls("classify.classify_fano_with_divisor"),
    ),
    "classify.self_s": ("s", _layer("classify")),
    "lattice.self_s": ("s", _layer("lattice")),
    "cli.self_s": ("s", _layer("cli")),
    "cli.output_bytes": ("bytes", lambda t: t["output_bytes"]),
    **{
        f"cache.{key}.{field}": ("count", _cache(key, field))
        for key in CACHES
        for field in ("hits", "misses")
    },
    "cache.entries": (
        "count",
        lambda t: sum(c["entries"] for c in t["caches"].values()),
    ),
    "trace.spans": ("count", lambda t: t["spans"]),
    "trace.run_s": ("s", lambda t: t["run_s"]),
}


class Child:
    """Outcome of one child process: its mode, parsed result and problems."""

    def __init__(self, mode, timed, result, maxrss_kb, problems):
        self.mode = mode
        self.timed = timed
        self.result = result
        self.peak_rss_mb = maxrss_kb / 1024
        self.problems = problems

    @property
    def ok(self):
        return self.result is not None and not self.problems


def run_child(mode, speed, commands_file, timeout):
    """Start one child, wait for it with ``os.wait4`` and parse its result.

    ``mode`` is "plain", "O" or "traced"; ``speed`` times an untraced child
    against the host's speed.  The child is killed after ``timeout``
    seconds and counts as failed.  Returns (result or None, ru_maxrss in
    KiB, problems).
    """
    argv = [sys.executable, "-E", "-s"]
    if mode == "O":
        argv.append("-O")
    clock = "traced" if mode == "traced" else "speed" if speed else "plain"
    argv += [os.path.join(HERE, "child.py"), clock, commands_file]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return None, usage.ru_maxrss, [f"{mode} child exited with {proc.returncode}"]
    try:
        result = json.loads(out.decode("utf-8").splitlines()[-1])
    except (ValueError, IndexError):
        return None, usage.ru_maxrss, [f"{mode} child printed no result"]
    return result, usage.ru_maxrss, []


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(child_env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "kernel_backend": child_env.get("kernel_backend"),
        "kernel_available": child_env.get("kernel_available"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def prepare():
    """Check the checkout holds the package and compile its bytecode.

    Children then load cached bytecode, as after an install, so the first
    child of a run does not pay for compilation in ``setup_s``.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "toricfano", "cli.py")):
        sys.exit(f"error: no toricfano package under {os.path.join(ROOT, 'src')}")
    package = os.path.join(ROOT, "src", "toricfano")
    if not compileall.compile_dir(package, quiet=1, optimize=[0, 1]):
        sys.exit("error: toricfano does not compile")


def write_commands(path, commands):
    with open(path, "w", encoding="utf-8") as handle:
        for argv in commands:
            handle.write("\t".join(argv) + "\n")


def expected_digest(name, seed, size):
    if seed != workloads.DEFAULT_SEED or size != "full":
        return None
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)[name]


class WorkloadRun:
    """The children of one run of one workload, checked as they finish."""

    def __init__(self, name, seed, size, speed):
        self.speed = speed
        work_dir = os.path.join(WORK, f"{name}-{size}-{seed}")
        os.makedirs(work_dir, exist_ok=True)
        self.commands, self.check = workloads.build(name, seed, size, work_dir)
        self.commands_file = os.path.join(work_dir, "commands.tsv")
        write_commands(self.commands_file, self.commands)
        self.empty_file = os.path.join(work_dir, "empty.tsv")
        write_commands(self.empty_file, [])
        self.expected = expected_digest(name, seed, size)
        self.digests = set()
        self.children = []
        self.problems = []
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S

    def spawn(self, mode, timed=True):
        """Run one child; ``timed=False`` only times the import."""
        what = self.commands_file if timed else self.empty_file
        result, maxrss, problems = run_child(
            mode, self.speed, what, self.hard_deadline - time.perf_counter()
        )
        if result is not None:
            problems += self._check(mode, result, timed)
        child = Child(mode, timed, result, maxrss, problems)
        self.children.append(child)
        self.problems.extend(problems)
        return child

    def _check(self, mode, result, timed):
        problems = []
        src = os.path.join(ROOT, "src") + os.sep
        if not result["module"].startswith(src):
            problems.append(f"{mode} child imported toricfano from {result['module']}")
        if not timed:
            return problems
        if result["codes"] != [0] * len(self.commands):
            problems.append(f"{mode} exit codes {result['codes']}")
        digest = result["sha256"]
        if digest not in self.digests:
            # plain, -O and traced children must print the same bytes
            if self.digests:
                problems.append(f"{mode} output differs from an earlier child's")
            self.digests.add(digest)
            try:
                problems += self.check(result["reports"])
            except (AttributeError, IndexError, KeyError, TypeError) as err:
                problems.append(f"{mode} report has an unexpected shape: {err!r}")
        if self.expected is not None and digest != self.expected:
            problems.append(f"{mode} output digest {digest} != expected {self.expected}")
        result["reports"] = None
        return problems

    def samples(self, mode, field):
        return [
            c.result[field] for c in self.children if c.mode == mode and c.timed and c.ok
        ]


def run_workload(name, seed, seconds, trace, size):
    """Run one workload; return (result line, text report lines)."""
    started = time.perf_counter()
    run = WorkloadRun(name, seed, size, speed=not trace)
    for _ in range(SETUP_SAMPLES):
        run.spawn("plain", timed=False)
    # alternate the two modes while a child is expected to end within the
    # measuring window; each mode runs at least once, unless hung children
    # have used up the time limit
    modes = ["traced", "plain"] if trace else ["plain", "O"]
    window_end = time.perf_counter() + seconds
    last = {}
    while True:
        now = time.perf_counter()
        fits = [m for m in modes if m not in last or now + last[m] <= window_end]
        if not fits or now > run.hard_deadline:
            break
        run.spawn(fits[0])
        last[fits[0]] = time.perf_counter() - now
        modes.append(modes.pop(modes.index(fits[0])))

    problems = run.problems
    report = []
    if trace:
        metrics = layer_metrics(run, problems)
    else:
        setup = [c for c in run.children if c.mode == "plain" and c.ok]
        samples = {
            "run_s": (run.samples("plain", "run_s"), run.samples("plain", "run_wall_s")),
            "run_O_s": (run.samples("O", "run_s"), run.samples("O", "run_wall_s")),
            "setup_s": (
                [c.result["setup_s"] for c in setup],
                [c.result["setup_wall_s"] for c in setup],
            ),
            "peak_rss_mb": (
                [c.peak_rss_mb for c in run.children if c.mode == "plain" and c.timed and c.ok],
                None,
            ),
        }
        metrics = {}
        for metric, (values, walls) in samples.items():
            if not values:
                problems.append(f"no samples for {metric}")
                continue
            q1, median, q3 = quartiles(values)
            unit = END_TO_END[metric]
            metrics[metric] = {"value": median, "unit": unit}
            wall = f" wall median {statistics.median(walls):.6f}" if walls else ""
            report.append(
                f"  {metric:<14} {median:12.6f} {unit:<5} q1 {q1:.6f} q3 {q3:.6f}"
                f" n={len(values)}{wall}"
            )
    attempted = len(run.children)
    failed = sum(1 for c in run.children if not c.ok)
    report.append(
        f"  {'failed_share':<14} {failed / attempted:12.6f} {'-':<5} ({failed} of {attempted} runs)"
    )
    if trace:
        for metric, entry in metrics.items():
            value = entry["value"]
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            report.append(f"  {metric:<44} {shown} {entry['unit']}")
    ran = [c for c in run.children if c.result is not None]
    env = environment(ran[0].result["env"] if ran else {})
    header = [
        f"workload {name} seed {seed} size {size} trace {int(trace)}"
        f" seconds {seconds:g} wall {time.perf_counter() - started:.1f} s",
        "  env " + json.dumps(env, sort_keys=True),
    ]
    header += [f"  problem: {p}" for p in problems]
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, header + report


def layer_metrics(run, problems):
    """Per-layer metrics from the traced children, and the tracing overhead."""
    traced = [c.result for c in run.children if c.mode == "traced" and c.ok]
    untraced = run.samples("plain", "run_s")
    if not traced or not untraced:
        problems.append("need a traced and an untraced child that both passed")
        return {}
    summaries = [
        dict(r["trace"], run_s=r["run_s"], output_bytes=r["output_bytes"]) for r in traced
    ]
    metrics = {}
    for metric, (unit, extract) in PER_LAYER.items():
        values = [extract(s) for s in summaries]
        exact = unit in EXACT_UNITS
        if exact and len(set(values)) > 1:
            problems.append(f"{metric} differs between traced runs: {values}")
        value = values[0] if exact else min(values)
        metrics[metric] = {"value": value, "unit": unit}
    overhead = min(s["run_s"] for s in summaries) / min(untraced)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs for the benchmark's own smoke tests",
    )
    args = parser.parse_args()
    prepare()
    names = [args.workload] if args.workload else list(workloads.NAMES)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    correct = True
    line = None
    for name in names:
        for trace in traces:
            line, report = run_workload(name, args.seed, args.seconds, trace, args.size)
            print("\n".join(report), flush=True)
            correct = correct and line["correct"]
    if len(names) == 1 and len(traces) == 1:
        print(json.dumps(line, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
