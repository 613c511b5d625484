"""Command-line front end: fan file parsing, subcommand dispatch, reports.

Fan files are JSON objects {"dim": n, "rays": [[int,..],..],
"max_cones": [[idx,..],..]} with 0-based indices, primitive rays, and
cones sorted ascending.  The parser checks only this JSON shape; the
``Fan`` model rejects non-integer entries and ``validate`` reports every
other problem, and their messages are the ones shown.  Reports are plain
text or, with --json, a single JSON document with deterministic
(byte-identical) output.  Exit codes: 0 all assertions hold, 1 assertion
failure, 2 malformed input or input outside the statement checked
(``OutsideStatement``: a divisor that is not projective space, a fan that
is not Fano, or a dimension outside the command's range,
``UnsupportedDimension``); a reader that closes stdout early does not
change them.  The argument parser is built once per process, by the first
:func:`run`, and reused by later calls.
"""

import argparse
import json
import os
import sys
from functools import lru_cache

from .classify import (
    ClassificationViolation,
    OutsideStatement,
    analyze_divisor,
    catalog,
    classify_fano_with_divisor,
    find_transverse_extremal,
    random_corpus,
    simplify_pair,
    theorem1_check,
)
from .fan import Fan, InvalidFanError, fans_isomorphic, is_complete, is_smooth, validate, walls
from .intersect import TDivisor, anticanonical_degree, is_fano, positivity
from .mori import contraction_info, is_extremal, is_mori_extremal


class FanFormatError(ValueError):
    """A fan file does not follow the JSON contract."""


def _read_json(source):
    """The JSON document in a path or file object."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FanFormatError(f"malformed JSON: {err}") from None


def parse_fan(source):
    """Parse and validate a fan file (path or file object)."""
    data = _read_json(source)
    if not isinstance(data, dict):
        raise FanFormatError("fan file must be a JSON object")
    extra = set(data) - {"dim", "rays", "max_cones"}
    if extra:
        raise FanFormatError(f"unknown keys {sorted(extra)}")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise FanFormatError(f"missing key {key!r}")
    rays = data["rays"]
    cones = data["max_cones"]
    if not isinstance(rays, list) or not isinstance(cones, list):
        raise FanFormatError("rays and max_cones must be arrays")
    for i, ray in enumerate(rays):
        if not isinstance(ray, list):
            raise FanFormatError(f"ray {i} must be an array of integers")
    for ci, cone in enumerate(cones):
        if not isinstance(cone, list):
            raise FanFormatError(f"cone {ci} must be an array of ray indices")
    try:
        fan = Fan(data["dim"], tuple(map(tuple, rays)), tuple(map(tuple, cones)))
    except TypeError as err:
        raise FanFormatError(str(err)) from None
    report = validate(fan)
    if not report.valid:
        raise FanFormatError("; ".join(report.problems))
    return fan


def fan_to_dict(fan):
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def parse_divisor(source, fan):
    """Parse a divisor file {"coeffs": [int, ...]} aligned with ray order."""
    data = _read_json(source)
    if not isinstance(data, dict) or set(data) != {"coeffs"}:
        raise FanFormatError('divisor file must be {"coeffs": [int, ...]}')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list):
        raise FanFormatError("coeffs must be an array")
    if len(coeffs) != len(fan.rays):
        raise FanFormatError(
            f"divisor has {len(coeffs)} coefficients, fan has {len(fan.rays)} rays"
        )
    try:
        return TDivisor(tuple(coeffs))
    except TypeError as err:
        raise FanFormatError(str(err)) from None


def write_fan(fan, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fan_to_dict(fan), handle, sort_keys=True)
        handle.write("\n")


class Report:
    """One command's verdict: status, findings, and an optional witness."""

    def __init__(self, command, status="pass"):
        self.command, self.status = command, status
        self.findings, self.witness = [], None

    def flag_failure(self):
        self.status = "fail"


def _wall_record(fan, wall):
    return {
        "wall_rays": list(wall.wall_rays),
        "apexes": [wall.apex_a, wall.apex_b],
        "coeffs": list(wall.coeffs),
        "anticanonical_degree": anticanonical_degree(fan, wall),
    }


def _witness_rows(matrix):
    return None if matrix is None else [list(row) for row in matrix]


def cmd_check(args):
    fan = parse_fan(args.fan)
    divisor = parse_divisor(args.divisor, fan) if args.divisor else None
    report = Report("check")
    smooth = is_smooth(fan)
    complete = is_complete(fan)
    record = {
        "dim": fan.dim,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "smooth": smooth,
        "complete": complete,
        "fano": is_fano(fan) if smooth and complete else None,
    }
    report.findings.append(record)
    if smooth and complete:
        if divisor is not None:
            scan = positivity(fan, divisor)
            report.findings.append(
                {
                    "divisor": list(divisor.coeffs),
                    "ample": scan.ample,
                    "nef": scan.nef,
                    "min_degree": scan.min_degree,
                    "min_wall": list(scan.min_wall.wall_rays),
                }
            )
        for wall in walls(fan):
            report.findings.append(_wall_record(fan, wall))
    return report


def cmd_mori(args):
    fan = parse_fan(args.fan)
    report = Report("mori")
    for wall in walls(fan):
        record = _wall_record(fan, wall)
        record["extremal"] = is_extremal(fan, wall)
        record["mori_extremal"] = is_mori_extremal(fan, wall)
        record["contraction"] = (
            contraction_info(fan, wall).kind if record["mori_extremal"] else None
        )
        report.findings.append(record)
    return report


def cmd_divisors(args):
    fan = parse_fan(args.fan)
    report = Report("divisors")
    for i in range(len(fan.rays)):
        analysis = analyze_divisor(fan, i)
        record = {
            "ray": i,
            "vector": list(fan.rays[i]),
            "proj_space": analysis.is_proj_space,
        }
        if analysis.is_proj_space:
            record["degree"] = analysis.d
            record["line_class"] = list(analysis.line_class)
        report.findings.append(record)
    return report


def _step_record(step):
    return {
        "removed_ray": step.removed_ray,
        "wall_rays": list(step.wall.wall_rays),
        "apexes": [step.wall.apex_a, step.wall.apex_b],
        "result_divisor_ray": step.result_divisor_ray,
        "center_cone": list(step.center_cone),
    }


def _check_ray(fan, ray):
    if not 0 <= ray < len(fan.rays):
        raise FanFormatError(f"ray index {ray} out of range 0..{len(fan.rays) - 1}")


def cmd_classify(args):
    fan = parse_fan(args.fan)
    _check_ray(fan, args.ray)
    report = Report("classify")
    try:
        result = classify_fano_with_divisor(fan, args.ray)
    except ClassificationViolation as err:
        report.flag_failure()
        report.findings.append({"violation": str(err)})
        return report
    report.findings.append(
        {
            "ray": args.ray,
            "case": result.case_tag,
            "nu": result.nu,
            "route": result.route,
            "steps": [_step_record(s) for s in result.steps],
        }
    )
    report.witness = _witness_rows(result.witness)
    return report


def cmd_simplify(args):
    fan = parse_fan(args.fan)
    _check_ray(fan, args.ray)
    report = Report("simplify")
    before = analyze_divisor(fan, args.ray)
    # raises OutsideStatement unless the fan is Fano and V(ray) is P^(n-1)
    step = simplify_pair(fan, args.ray)
    if step is None:
        wall = find_transverse_extremal(fan, args.ray)
        reason = (
            "no transverse Mori extremal wall"
            if wall is None
            else "fibration case"
        )
        report.findings.append(
            {"ray": args.ray, "simplified": False, "reason": reason}
        )
        return report
    record = {
        "ray": args.ray,
        "simplified": True,
        "degree_before": before.d,
        "degree_after": before.d + 1,
        "result": fan_to_dict(step.result_fan),
    }
    record.update(_step_record(step))
    report.findings.append(record)
    return report


def _entry_label(entry):
    if entry.nu is None:
        return f"case_{entry.case_tag}"
    return f"case_{entry.case_tag}_nu{entry.nu}"


def cmd_catalog(args):
    report = Report("catalog")
    entries = catalog(args.dim)
    for entry in entries:
        report.findings.append(
            {
                "case": entry.case_tag,
                "nu": entry.nu,
                "name": entry.name,
                "fano": True,
                "divisors": [
                    {"ray": i, "degree": d} for i, d in entry.divisor_rays
                ],
                "rays": [list(r) for r in entry.fan.rays],
                "max_cones": [list(c) for c in entry.fan.max_cones],
            }
        )
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for entry in entries:
            write_fan(
                entry.fan, os.path.join(args.emit, _entry_label(entry) + ".json")
            )
    return report


def cmd_verify_theorem2(args):
    report = Report("verify-theorem2")
    n = args.dim
    entries = catalog(n)
    count_ok = len(entries) == 2 * n + 1
    report.findings.append(
        {"check": "catalog-size", "expected": 2 * n + 1, "actual": len(entries), "ok": count_ok}
    )
    if not count_ok:
        report.flag_failure()
    # catalog() certifies each entry Fano with exactly its listed divisors
    # and raises otherwise, so only the self-classification is checked here
    for entry in entries:
        results = [classify_fano_with_divisor(entry.fan, i) for i, _ in entry.divisor_rays]
        ok = all((r.case_tag, r.nu) == (entry.case_tag, entry.nu) for r in results)
        if not ok:
            report.flag_failure()
        report.findings.append(
            {
                "check": "entry",
                "name": entry.name,
                "fano": True,
                "divisors_ok": True,
                "classifies_to_itself": ok,
                "ok": ok,
            }
        )
    distinct = True
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            witness = fans_isomorphic(entries[a].fan, entries[b].fan)
            if witness is not None:
                distinct = False
                report.flag_failure()
                report.findings.append(
                    {
                        "check": "distinctness",
                        "pair": [entries[a].name, entries[b].name],
                        "ok": False,
                    }
                )
    report.findings.append({"check": "pairwise-distinct", "ok": distinct})
    return report


def _theorem1_findings(report, label, fan):
    t1 = theorem1_check(fan)
    for probe in t1.probes:
        record = {
            "fan": label,
            "cone_index": probe.cone_index,
            "cone": list(probe.cone),
            "blowup_fano": probe.blowup_fano,
        }
        if probe.blowup_fano:
            record["conclusion"] = probe.conclusion
            record["witness"] = _witness_rows(probe.witness)
        if probe.violation:
            record["violation"] = probe.violation
        report.findings.append(record)
    for violation in t1.global_violations:
        report.findings.append({"fan": label, "violation": violation})
    return not t1.violations


def cmd_verify_theorem1(args):
    report = Report("verify-theorem1")
    ok = True
    if args.input:
        ok = _theorem1_findings(report, args.input, parse_fan(args.input))
    else:
        n, count, depth, seed = args.corpus
        try:
            fans = random_corpus(n, count, depth, seed)
        except ValueError as err:
            raise FanFormatError(str(err)) from None
        for k, fan in enumerate(fans):
            ok = _theorem1_findings(report, f"corpus[{k}]", fan) and ok
    if not ok:
        report.flag_failure()
    return report


def cmd_iso(args):
    fan_a = parse_fan(args.a)
    fan_b = parse_fan(args.b)
    report = Report("iso")
    witness = fans_isomorphic(fan_a, fan_b)
    report.findings.append({"isomorphic": witness is not None})
    report.witness = _witness_rows(witness)
    if witness is None:
        report.flag_failure()
    return report


def _corpus_arg(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected n,count,depth,seed")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("corpus entries must be integers")


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Building the subcommand tree takes over a millisecond, as long as a
    small command, so one process builds it once; it is not built at
    import, which would slow every start-up, including those that never
    parse.  Parsing leaves no state in it: each ``parse_args`` fills a
    fresh namespace.  Callers must not add arguments to the shared parser.
    """
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description=(
            "Exact toric-fan computations: walls, Mori extremality, Fano"
            " tests, and the classification of point blow-ups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument(
            "--json", action="store_true", help="emit a JSON report on stdout"
        )
        p.set_defaults(handler=handler)
        return p

    p = add("check", cmd_check, help="validate a fan and print its wall table")
    p.add_argument("fan")
    p.add_argument("--divisor", help="divisor file to scan for ampleness/nefness")
    p = add("mori", cmd_mori, help="per-wall degrees, extremality, contraction kinds")
    p.add_argument("fan")
    p = add("divisors", cmd_divisors, help="analyze every prime divisor")
    p.add_argument("fan")
    p = add("classify", cmd_classify, help="identify a Fano fan with a chosen divisor")
    p.add_argument("fan")
    p.add_argument("--ray", type=int, required=True)
    p = add("simplify", cmd_simplify, help="blow down once through a transverse wall")
    p.add_argument("fan")
    p.add_argument("--ray", type=int, required=True)
    p = add("catalog", cmd_catalog, help="build the 2n+1 classified fans")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--emit", help="write each catalog fan to this directory")
    p = add("verify-theorem2", cmd_verify_theorem2, help="verify the divisor classification")
    p.add_argument("--dim", type=int, required=True)
    p = add("verify-theorem1", cmd_verify_theorem1, help="verify the point blow-up criterion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="fan file to test")
    group.add_argument(
        "--corpus", type=_corpus_arg, help="n,count,depth,seed random corpus"
    )
    p = add("iso", cmd_iso, help="search for a fan isomorphism witness")
    p.add_argument("a")
    p.add_argument("b")
    return parser


def _emit(report, as_json, stream):
    if as_json:
        document = {
            "command": report.command,
            "status": report.status,
            "findings": report.findings,
            "witness": report.witness,
        }
        stream.write(json.dumps(document, sort_keys=True))
        stream.write("\n")
        return
    stream.write(f"command: {report.command}\n")
    stream.write(f"status: {report.status}\n")
    for record in report.findings:
        parts = [f"{key}={record[key]}" for key in sorted(record)]
        stream.write("  " + " ".join(parts) + "\n")
    if report.witness is not None:
        stream.write(f"witness: {report.witness}\n")


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        report = args.handler(args)
    except (FanFormatError, InvalidFanError, OutsideStatement, OSError) as err:
        report = Report(args.command, status="invalid-input")
        report.findings.append({"error": str(err)})
    except (ClassificationViolation, ValueError) as err:
        report = Report(args.command, status="fail")
        report.findings.append({"error": str(err)})
    try:
        _emit(report, args.json, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); the verdict stands, and
        # stdout goes to devnull so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return {"pass": 0, "fail": 1, "invalid-input": 2}[report.status]


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
