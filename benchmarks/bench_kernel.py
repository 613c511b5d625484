"""Compare the compiled and pure integer kernels on representative workloads.

Run:  python3 benchmarks/bench_kernel.py [--repeat N]

Workloads exercise the kernel the way the library does: unimodularity
determinants over every catalog cone, wall relations from one inverse per
cone, and a full point-blow-up sweep over a random corpus.  Caches are cleared between
runs so both backends do the same work.
"""

import argparse
import sys
import time

from toricfano import kernel
from toricfano import classify, fan as fan_mod


def clear_caches():
    """Clear every ``lru_cache`` in every loaded toricfano module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "toricfano" or name.startswith("toricfano.")):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def catalog_fans():
    fans = []
    for n in (3, 4, 5):
        fans.extend(e.fan for e in classify.catalog(n))
    return fans


def workload_determinants(fans):
    total = 0
    for f in fans:
        for cone in f.max_cones:
            total += kernel.det(f.ray_matrix(cone))
    return total


def workload_walls(fans):
    total = 0
    for f in fans:
        total += len(fan_mod.walls(f))
    return total


def workload_blowup_sweep(corpus):
    fano = 0
    for f in corpus:
        report = classify.theorem1_check(f)
        fano += len(report.fano_cone_indices)
    return fano


def run_backend(name, repeat):
    kernel.set_backend(name)
    timings = {}
    fans = catalog_fans()

    start = time.perf_counter()
    for _ in range(repeat):
        workload_determinants(fans)
    timings["cone determinants"] = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeat):
        clear_caches()
        fans = catalog_fans()
        workload_walls(fans)
    timings["catalog walls"] = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeat):
        clear_caches()
        corpus = classify.random_corpus(3, 60, 3, seed=2024)
        workload_blowup_sweep(corpus)
    timings["blow-up sweep"] = time.perf_counter() - start

    clear_caches()
    return timings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = kernel.available_backends()
    if len(backends) == 1:
        print("compiled kernel not built; only the pure backend is available")
    results = {name: run_backend(name, args.repeat) for name in backends}
    kernel.set_backend(backends[-1])

    names = list(results[backends[0]])
    width = max(len(n) for n in names)
    header = f"{'workload':<{width}}  " + "  ".join(f"{b:>10}" for b in backends)
    if len(backends) == 2:
        header += "  " + f"{'speedup':>8}"
    print(header)
    for name in names:
        row = f"{name:<{width}}  " + "  ".join(
            f"{results[b][name]:>9.3f}s" for b in backends
        )
        if len(backends) == 2:
            pure, fast = results["pure"][name], results["fast"][name]
            row += f"  {pure / fast:>7.2f}x" if fast > 0 else "      n/a"
        print(row)


if __name__ == "__main__":
    main()
