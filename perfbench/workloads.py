"""The benchmark's workloads: inputs made from a seed, and checks on the reports.

Each workload turns (seed, size) into a list of `toricfano` command lines
and a function that checks the JSON reports those commands print.  The
checks use facts known without the program under test: the paper's 2n+1
count, the shape of fans the benchmark built itself, and the rule that a
smooth complete n-dimensional fan with C maximal cones has C*n/2 walls.

Why each workload exists:

* ``theorem1-dim4`` is the blow-up sweep of ``verify-theorem1`` over a
  random dim-4 corpus of 50 fans, drawn from ``CORPUS_SEEDS``.  Nearly all
  time goes to ``kernel.solve``, the sampled completeness ``assert``,
  ``walls`` and ``is_fano``; surgery output is trusted, so ``validate``'s LP
  never runs.
* ``theorem2-catalog`` builds, self-classifies and pairwise compares the
  2n+1 catalog fans for n = 3..6: ``fans_isomorphic``, the Mori
  extremality LPs, and ``validate`` on the hand-built untrusted catalog.
  It does few kernel solves, so kernel and walls changes should not move it.
* ``validate-untrusted`` checks fan files, which the CLI parses as
  untrusted, so ``validate``'s O(C^2) phase-one LP is nearly all the time.
  It uses the fan layer the opposite way from ``theorem1-dim4``.  The fans
  are fixed; the seed relabels them (see ``UNTRUSTED_BASE_SEED``).
"""

import json
import os
import random
from itertools import combinations

NAMES = ("theorem1-dim4", "theorem2-catalog", "validate-untrusted")
DEFAULT_SEED = 7

# Corpus seeds whose 50 fans have a sum of (cone count)^2 within 1% of
# corpus 7's (10151): the first 16 such seeds when the benchmark was
# defined.  The sweep does about that much work per fan, and the sum varies
# by about 10% (IQR) between arbitrary seeds, so drawing the corpus from
# these keeps the work of a run nearly equal on every seed while the fans
# differ.  The default seed runs corpus 7.
CORPUS_SEEDS = (7, 17, 22, 27, 53, 54, 61, 65, 76, 96, 105, 117, 123, 136, 146, 156)

# The untrusted fans are built from this seed, and the workload seed only
# relabels them (``relabel``).  ``validate``'s time depends on where a fan
# was subdivided, not only on its cone count: with the fans drawn from the
# workload seed, one seed ran 18% slower than another, run after run.
UNTRUSTED_BASE_SEED = 7


def build(name, seed, size, work_dir):
    """Return (commands, check) for one workload.

    ``check(reports)`` returns a list of problems with the reports, in
    command order; an empty list means every report is right.
    """
    tiny = size == "tiny"
    if name == "theorem1-dim4":
        corpus_seed = CORPUS_SEEDS[(seed - DEFAULT_SEED) % len(CORPUS_SEEDS)]
        corpus = f"3,4,2,{seed}" if tiny else f"4,50,4,{corpus_seed}"
        return [["verify-theorem1", "--corpus", corpus, "--json"]], _check_theorem1
    if name == "theorem2-catalog":
        # the inputs are fixed; the seed only orders the dimensions
        dims = [3] if tiny else [3, 4, 5, 6]
        random.Random(seed).shuffle(dims)
        commands = [["verify-theorem2", "--dim", str(n), "--json"] for n in dims]
        return commands, lambda reports: _check_theorem2(dims, reports)
    if name == "validate-untrusted":
        targets = [8, 11] if tiny else [24 + 54 * i // 5 for i in range(6)]
        rng = random.Random(seed)
        fans = [relabel(fan, rng) for fan in untrusted_fans(UNTRUSTED_BASE_SEED, targets)]
        commands = []
        for k, fan in enumerate(fans):
            path = os.path.join(work_dir, f"fan_{k:02d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(fan, handle, sort_keys=True)
            commands.append(["check", path, "--json"])
        return commands, lambda reports: _check_untrusted(fans, reports)
    raise ValueError(f"unknown workload {name!r}")


def untrusted_fans(seed, cone_counts):
    """Smooth complete dim-4 fans with exactly the given cone counts.

    Each is P^4 under repeated star subdivision along random faces, built
    here rather than by the package so that the inputs and their expected
    shape do not depend on the code under test.  Subdividing a face of k
    rays adds (k - 1) cones per cone containing it: 3 for a fixed point, 4
    for a facet, so the last steps can land on any count other than 1, 2
    or 5 cones away.
    """
    rng = random.Random(seed)
    fans = []
    for target in cone_counts:
        rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
        rays.append((-1, -1, -1, -1))
        cones = [tuple(c) for c in combinations(range(5), 4)]
        while len(cones) < target:
            cone = rng.choice(cones)
            center = tuple(sorted(rng.sample(cone, rng.randint(2, 4))))
            star = [c for c in cones if set(center) <= set(c)]
            remaining = target - len(cones) - len(star) * (len(center) - 1)
            w = tuple(sum(rays[i][k] for i in center) for k in range(4))
            if remaining in (1, 2, 5) or remaining < 0 or w in rays:
                continue
            new = len(rays)
            rays.append(w)
            cones = [c for c in cones if c not in star] + [
                tuple(sorted(new if i == drop else i for i in c))
                for c in star
                for drop in center
            ]
        fans.append(
            {
                "dim": 4,
                "rays": [list(r) for r in rays],
                "max_cones": sorted(list(c) for c in cones),
            }
        )
    return fans


def relabel(fan, rng):
    """The same fan in other coordinates and with its rays and cones reordered.

    The coordinates are permuted and their signs flipped, a lattice
    automorphism, so smoothness, completeness, the walls and the size of
    every entry are kept.
    """
    dim = fan["dim"]
    axes = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    order = rng.sample(range(len(fan["rays"])), len(fan["rays"]))
    position = {old: new for new, old in enumerate(order)}
    rays = [[signs[k] * fan["rays"][old][axes[k]] for k in range(dim)] for old in order]
    cones = [sorted(position[i] for i in cone) for cone in fan["max_cones"]]
    rng.shuffle(cones)
    return {"dim": dim, "rays": rays, "max_cones": cones}


def _load(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _check_theorem1(reports):
    problems = []
    for text in reports:
        report = _load(text)
        if report is None or report.get("status") != "pass":
            problems.append("verify-theorem1 did not pass")
            continue
        for record in report["findings"]:
            if "violation" in record:
                problems.append(f"violation: {record['violation']}")
            elif record.get("blowup_fano") and record.get("conclusion") not in (
                "projective-space",
                "blown-projective-space",
            ):
                problems.append(f"Fano blow-up concluded {record.get('conclusion')}")
    return problems


def _check_theorem2(dims, reports):
    problems = []
    for n, text in zip(dims, reports):
        report = _load(text)
        if report is None or report.get("status") != "pass":
            problems.append(f"verify-theorem2 --dim {n} did not pass")
            continue
        findings = report["findings"]
        entries = [r for r in findings if r.get("check") == "entry"]
        if findings[0] != {
            "check": "catalog-size",
            "expected": 2 * n + 1,
            "actual": 2 * n + 1,
            "ok": True,
        }:
            problems.append(f"dim {n}: catalog size {findings[0]}")
        if len(entries) != 2 * n + 1 or not all(r["ok"] for r in entries):
            problems.append(f"dim {n}: catalog entries do not all check")
        if findings[-1] != {"check": "pairwise-distinct", "ok": True}:
            problems.append(f"dim {n}: catalog entries not pairwise distinct")
    return problems


def _check_untrusted(fans, reports):
    problems = []
    for k, (fan, text) in enumerate(zip(fans, reports)):
        report = _load(text)
        if report is None or report.get("status") != "pass":
            problems.append(f"check fan_{k:02d} did not pass")
            continue
        head = report["findings"][0]
        cones = len(fan["max_cones"])
        shape = (head["dim"], head["rays"], head["max_cones"], head["smooth"], head["complete"])
        if shape != (4, len(fan["rays"]), cones, True, True):
            problems.append(f"fan_{k:02d}: reported {head}")
        if len(report["findings"]) != 1 + cones * 4 // 2:
            problems.append(f"fan_{k:02d}: {len(report['findings']) - 1} walls")
    return problems
