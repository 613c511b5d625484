"""One cold benchmark run: import toricfano.cli, run a list of commands, report.

Usage:  python3 [-O] perfbench/child.py <mode> <commands file>

``mode`` is ``speed`` (time against the host's speed, see ``SpeedProbe``),
``plain`` (wall time only) or ``traced`` (wall time, under
``spans.Tracer``).  The commands file holds one `toricfano` argument list
per line, tokens separated by tabs; an empty file times the import alone.
Each command runs through the public ``toricfano.cli.run(argv)`` with its
stdout captured.  The process prints one JSON line: the import time, the
time of the commands, each command's exit code and report, the sha256
digest of all the reports in order, and, when traced, the per-layer
aggregates of ``spans.Tracer``.

The package is imported from ``src/`` next to this directory.  Only ``os``,
``sys``, ``time`` and ``_signal``, which the interpreter loads at start-up
anyway, are imported before ``toricfano.cli``, so the import time covers
every module the CLI needs, as a user meets it.
"""

import _signal
import os
import sys
import time

# One slice of fixed pure-Python work, and its duration at the reference
# speed: a fast phase of one core of an Intel Xeon 2-vCPU virtual machine.
SLICE_ITERATIONS = 4000
REFERENCE_SLICE_S = 0.0005
SLICE_PERIOD_S = 0.01
BURST = 5


class SpeedProbe:
    """Time code against the current speed of the host.

    On a shared host, the same interpreter work runs up to about 1.6 times
    slower for seconds at a time, as neighbours come and go.  The probe
    runs one slice of fixed work every ``SLICE_PERIOD_S`` seconds of the
    measured code (from a ``SIGALRM`` handler, in this thread) and a burst
    of ``BURST`` slices before and after it.  The code's time is its wall
    time less the slices inside it, scaled by ``REFERENCE_SLICE_S`` over
    the mean slice: the seconds it would take at the reference speed.  The
    slices cost about 5% of the wall time and are not counted.
    """

    def __init__(self):
        self.slices = []

    def slice(self, *_):
        start = time.perf_counter()
        table = {}
        x = 0
        for i in range(SLICE_ITERATIONS):
            x = (x * 31 + i) % 1000003
            table[x & 1023] = i
        self.slices.append((start, time.perf_counter() - start))

    def measure(self, fn):
        """Run ``fn()``; return (seconds at reference speed, wall seconds)."""
        del self.slices[:]
        for _ in range(BURST):
            self.slice()
        previous = _signal.signal(_signal.SIGALRM, self.slice)
        _signal.setitimer(_signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            _signal.setitimer(_signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            _signal.signal(_signal.SIGALRM, previous)
        for _ in range(BURST):
            self.slice()
        inside = sum(d for s, d in self.slices if start <= s < end)
        own = end - start - inside
        mean = sum(d for _, d in self.slices) / len(self.slices)
        return own * REFERENCE_SLICE_S / mean, own


class WallClock:
    """Time code by its wall time alone."""

    def measure(self, fn):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        return wall, wall


def load_cli():
    import toricfano.cli  # noqa: F401


def main():
    mode = sys.argv[1]
    with open(sys.argv[2], encoding="utf-8") as handle:
        commands = [line.rstrip("\n").split("\t") for line in handle if line.strip()]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    clock = SpeedProbe() if mode == "speed" else WallClock()
    setup_s, setup_wall_s = clock.measure(load_cli)

    import hashlib
    import io
    import json

    from toricfano import kernel

    import toricfano.cli

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.clear_caches()

    real_stdout = sys.stdout
    outputs = []
    codes = []

    def run_commands():
        try:
            for argv in commands:
                sys.stdout = buffer = io.StringIO()
                codes.append(toricfano.cli.run(argv))
                outputs.append(buffer.getvalue())
        finally:
            sys.stdout = real_stdout

    run_s, run_wall_s = clock.measure(run_commands)

    result = {
        "module": toricfano.cli.__file__,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "codes": codes,
        "reports": outputs,
        "output_bytes": sum(len(o.encode("utf-8")) for o in outputs),
        "sha256": hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest(),
        "env": {
            "kernel_backend": kernel.backend_name(),
            "kernel_available": list(kernel.available_backends()),
        },
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    real_stdout.write(json.dumps(result, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
