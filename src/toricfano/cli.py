"""Command-line front end: fan file parsing, subcommand dispatch, reports.

Fan files, read from a path, are JSON objects {"dim": n, "rays":
[[int,..],..], "max_cones": [[idx,..],..]} with 0-based indices,
primitive rays, and cones sorted ascending; a file whose text does not
decode as UTF-8 JSON is malformed input.  The parser checks only this
JSON shape; the ``Fan`` model rejects non-integer entries and
``validate`` reports every other problem, and their messages are the
ones shown.  Reports are plain
text or, with --json, a single JSON document with deterministic
(byte-identical) output.  Exit codes: 0 all assertions hold, 1 assertion
failure, 2 a usage error (``UsageError``), malformed input, or input
outside the statement checked (``OutsideStatement``: a divisor that is
not projective space, a fan that is not Fano, or a dimension outside the
command's range, ``UnsupportedDimension``); a reader that closes stdout
early does not change them.  The whole report is formatted before
anything is written: a report holding an integer past the interpreter's
digit limit for conversion (an isomorphism witness can, though every
input integer is within it) is replaced by an invalid-input report naming
the limit.  The command line is read by :func:`parse_args` against the
``COMMANDS`` table; options follow the subcommand and are spelled in full.

:func:`run` switches the cyclic garbage collector off while the command
runs and restores the caller's setting after.  The commands build only
acyclic data (tuples, records, caches keyed by fans), which reference
counting frees as it goes, so a collector pass finds nothing to free; it
only walks the objects allocated so far, and a sweep that allocates many
would trigger many such passes (8 on the ``4,50,4,7`` corpus).  Switched
back on, the collector still owes one pass over what the command kept,
and runs it at the caller's next allocation.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

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


def _read_json(path):
    """The JSON document in the file at ``path``.

    Every way the text fails to decode is malformed input: bytes that are
    not UTF-8, a document that is not JSON, an integer past the
    interpreter's digit limit for conversion (each a ValueError), and
    nesting deeper than the recursion limit.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as err:
            raise FanFormatError(f"malformed JSON: {err}") from None


def parse_fan(path):
    """Parse and validate the fan file at ``path``."""
    data = _read_json(path)
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


def parse_divisor(path, fan):
    """Parse the divisor file at ``path``, {"coeffs": [int, ...]} aligned
    with ray order."""
    data = _read_json(path)
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
    divisor = None if args.divisor is None else parse_divisor(args.divisor, fan)
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
    if args.emit is not None:
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
    findings, start = report.findings, len(report.findings)
    for index, (cone, verdict) in enumerate(zip(fan.max_cones, t1.blowup_fano)):
        findings.append(
            {"fan": label, "cone_index": index, "cone": list(cone), "blowup_fano": verdict}
        )
    for probe in t1.fano_probes:
        record = findings[start + probe.cone_index]
        record["conclusion"] = probe.conclusion
        record["witness"] = _witness_rows(probe.witness)
        if probe.violation:
            record["violation"] = probe.violation
    for violation in t1.global_violations:
        findings.append({"fan": label, "violation": violation})
    return not t1.violations


def cmd_verify_theorem1(args):
    report = Report("verify-theorem1")
    ok = True
    if args.input is not None:
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
        raise ValueError("expected n,count,depth,seed")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError("expected n,count,depth,seed as integers") from None


class Command:
    """One subcommand: its handler, help line and positional argument names;
    its options, each flag mapped to (type, help); and ``required``, groups
    of flags of which exactly one must be given."""

    def __init__(self, handler, help, positionals, options, required=()):
        self.handler, self.help, self.positionals = handler, help, positionals
        self.options, self.required = options, required


COMMANDS = {
    "check": Command(
        cmd_check, "validate a fan and print its wall table", ("fan",),
        {"--divisor": (str, "divisor file to scan for ampleness/nefness")},
    ),
    "mori": Command(
        cmd_mori, "per-wall degrees, extremality, contraction kinds", ("fan",), {}
    ),
    "divisors": Command(cmd_divisors, "analyze every prime divisor", ("fan",), {}),
    "classify": Command(
        cmd_classify, "identify a Fano fan with a chosen divisor", ("fan",),
        {"--ray": (int, "index of the divisor's ray")}, (("--ray",),),
    ),
    "simplify": Command(
        cmd_simplify, "blow down once through a transverse wall", ("fan",),
        {"--ray": (int, "index of the divisor's ray")}, (("--ray",),),
    ),
    "catalog": Command(
        cmd_catalog, "build the 2n+1 classified fans", (),
        {
            "--dim": (int, "dimension n"),
            "--emit": (str, "write each catalog fan to this directory"),
        },
        (("--dim",),),
    ),
    "verify-theorem2": Command(
        cmd_verify_theorem2, "verify the divisor classification", (),
        {"--dim": (int, "dimension n")}, (("--dim",),),
    ),
    "verify-theorem1": Command(
        cmd_verify_theorem1, "verify the point blow-up criterion", (),
        {
            "--input": (str, "fan file to test"),
            "--corpus": (_corpus_arg, "n,count,depth,seed random corpus"),
        },
        (("--input", "--corpus"),),
    ),
    "iso": Command(cmd_iso, "search for a fan isomorphism witness", ("a", "b"), {}),
}

_HELP = ("-h", "--help")


class UsageError(Exception):
    """An argument list that the ``COMMANDS`` table does not accept."""

    def __init__(self, message, command=None):
        super().__init__(message)
        self.command = command  # the subcommand whose usage to show, or None


class _Help(Exception):
    """``-h`` or ``--help`` after the subcommand ``args[0]`` (None: before one)."""


def _is_option(token, command):
    """Whether ``token`` reads as an option rather than a value: a token
    that starts with a dash, unless it is a lone dash, a negative number
    such as -3 or -.5, or holds a space and names no option of the
    command.  This is argparse's rule."""
    if token[:1] != "-" or token == "-":
        return False
    flag = token.partition("=")[0]
    if flag in command.options or flag in _HELP or flag == "--json":
        return True
    whole, dot, fraction = token[1:].partition(".")
    number = (whole + fraction).isdecimal() and (fraction or not dot)
    return not (number or " " in token)


def parse_args(argv):
    """The namespace a subcommand's handler reads, from ``argv``.

    Positionals fill in order.  Options and ``--json`` may come anywhere
    after the subcommand, as ``--opt value`` or ``--opt=value``; the last of
    a repeated option wins, a value may be a negative number but not
    another option, and after ``--`` every token is positional.  Options
    are spelled in full.  Raises ``UsageError`` on any other list, and
    ``_Help`` at ``-h`` or ``--help``.
    """
    if not argv or argv[0] in _HELP:
        if argv:
            raise _Help(None)
        raise UsageError("the following arguments are required: command")
    name, tokens = argv[0], iter(argv[1:])
    command = COMMANDS.get(name)
    if command is None:
        choices = ", ".join(COMMANDS)
        raise UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    values = dict.fromkeys(command.options)
    as_json, positionals, unknown = False, [], []
    for token in tokens:
        flag, equals, value = token.partition("=")
        if token in _HELP:
            raise _Help(name)
        if token == "--":
            positionals.extend(tokens)
        elif token == "--json":
            as_json = True
        elif flag == "--json":
            raise UsageError(f"argument --json: ignored explicit argument {value!r}", name)
        elif flag in command.options:
            if not equals:
                value = next(tokens, None)
                if value is None or _is_option(value, command):
                    raise UsageError(f"argument {flag}: expected one argument", name)
            convert = command.options[flag][0]
            try:
                values[flag] = convert(value)
            except ValueError as err:
                reason = "expected an integer" if convert is int else err
                raise UsageError(f"argument {flag}: {reason}, got {value!r}", name) from None
        elif _is_option(token, command):
            unknown.append(token)
        else:
            positionals.append(token)
    missing = list(command.positionals[len(positionals):])
    for group in command.required:
        given = [flag for flag in group if values[flag] is not None]
        if len(given) > 1:
            raise UsageError(f"argument {given[1]}: not allowed with argument {given[0]}", name)
        if not given:
            missing.append(" or ".join(group))
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", name)
    unknown += positionals[len(command.positionals):]
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}", name)
    return SimpleNamespace(
        command=name,
        handler=command.handler,
        json=as_json,
        **dict(zip(command.positionals, positionals)),
        **{flag[2:]: value for flag, value in values.items()},
    )


def _usage(name):
    """The one-line usage of subcommand ``name``, or of the program (None)."""
    if name is None:
        return f"usage: toricfano [-h] {{{','.join(COMMANDS)}}} ..."
    command = COMMANDS[name]
    words = [f"usage: toricfano {name} [-h]", *command.positionals]
    for group in command.required:
        alternatives = " | ".join(f"{flag} {flag[2:].upper()}" for flag in group)
        words.append(f"({alternatives})" if len(group) > 1 else alternatives)
    required = {flag for group in command.required for flag in group}
    words += [f"[{flag} {flag[2:].upper()}]" for flag in command.options if flag not in required]
    return " ".join(words + ["[--json]"])


def _help(name):
    """The ``--help`` text of subcommand ``name``, or of the program (None)."""
    if name is None:
        lead = (
            "Exact toric-fan computations: walls, Mori extremality, Fano tests,\n"
            "and the classification of point blow-ups.\n\ncommands:"
        )
        rows = [(key, command.help) for key, command in COMMANDS.items()]
        tail = (
            "Options follow the command and are spelled in full;\n"
            "'toricfano <command> --help' lists them."
        )
    else:
        command = COMMANDS[name]
        lead, tail = f"{command.help}\n\narguments:", ""
        rows = [(positional, "") for positional in command.positionals]
        rows += [
            (f"{flag} {flag[2:].upper()}", text)
            for flag, (_, text) in command.options.items()
        ]
        rows.append(("--json", "emit a JSON report on stdout"))
    width = max(len(label) for label, _ in rows) + 2
    lines = [f"  {label:<{width}}{text}".rstrip() for label, text in rows]
    return "\n".join([_usage(name), "", lead, *lines, "", tail]).rstrip() + "\n"


def _emit(report, as_json):
    """The report's whole text, as --json or plain text prints it."""
    if as_json:
        document = {
            "command": report.command,
            "status": report.status,
            "findings": report.findings,
            "witness": report.witness,
        }
        # a report is a tree of lists and dicts built here, never circular
        return json.dumps(document, sort_keys=True, check_circular=False) + "\n"
    lines = [f"command: {report.command}\n", f"status: {report.status}\n"]
    for record in report.findings:
        parts = [f"{key}={record[key]}" for key in sorted(record)]
        lines.append("  " + " ".join(parts) + "\n")
    if report.witness is not None:
        lines.append(f"witness: {report.witness}\n")
    return "".join(lines)


def _error_report(command, status, err):
    report = Report(command, status=status)
    report.findings.append({"error": str(err)})
    return report


def _execute(argv):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Help as request:
        sys.stdout.write(_help(request.args[0]))
        return 0
    except UsageError as err:
        sys.stderr.write(f"{_usage(err.command)}\ntoricfano: error: {err}\n")
        return 2
    try:
        report = args.handler(args)
    except (FanFormatError, InvalidFanError, OutsideStatement, OSError) as err:
        report = _error_report(args.command, "invalid-input", err)
    except (ClassificationViolation, ValueError) as err:
        report = _error_report(args.command, "fail", err)
    try:
        text = _emit(report, args.json)
    except ValueError as err:
        # an integer past the interpreter's digit limit for conversion
        reason = f"report cannot be written: {err}"
        report = _error_report(args.command, "invalid-input", reason)
        text = _emit(report, args.json)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); the verdict stands, and
        # stdout goes to devnull so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return {"pass": 0, "fail": 1, "invalid-input": 2}[report.status]


def run(argv=None):
    """Run one command line and return its exit code, with the cyclic
    garbage collector off (see the module docstring); the caller's setting
    is restored, also when the command raises."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _execute(argv)
    finally:
        if collecting:
            gc.enable()


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
