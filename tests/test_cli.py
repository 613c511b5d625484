import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import toricfano
import toricfano.classify
from conftest import build_parser, clear_caches, count_kernel_calls
from toricfano.cli import (
    COMMANDS,
    FanFormatError,
    UsageError,
    parse_args,
    parse_fan,
    run,
    write_fan,
)
from toricfano import Fan, projective_space_fan, random_corpus, validate


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    write_fan(projective_space_fan(3), path)
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


P3_PAYLOAD = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}


def malformed(key, index, value):
    """P^3's fan file with one entry replaced (``index`` None: the whole key)."""
    payload = json.loads(json.dumps(P3_PAYLOAD))
    if index is None:
        payload[key] = value
    else:
        payload[key][index] = value
    return payload


def model_message(payload):
    """What the model itself says about the data: Fan's TypeError, or the
    problems ``validate`` reports."""
    try:
        fan = Fan(
            payload["dim"],
            tuple(map(tuple, payload["rays"])),
            tuple(map(tuple, payload["max_cones"])),
        )
    except TypeError as err:
        return str(err)
    return "; ".join(validate(fan).problems)


MALFORMED_FANS = {
    "float-coordinate": (
        malformed("rays", 0, [1.5, 0, 0]),
        "ray 0 coordinate must be an integer, got 1.5",
    ),
    "bool-coordinate": (
        malformed("rays", 1, [0, True, 0]),
        "ray 1 coordinate must be an integer, got True",
    ),
    "float-cone-entry": (
        malformed("max_cones", 2, [0, 2.0, 3]),
        "cone 2 entry must be an integer, got 2.0",
    ),
    "non-int-dim": (malformed("dim", None, "3"), "dim must be an integer, got '3'"),
    "two-entry-cone": (
        malformed("max_cones", 0, [0, 1]),
        "cone 0 has size 2, expected 3",
    ),
    "wrong-length-ray": (
        malformed("rays", 2, [0, 1]),
        "ray 2 has dimension 2, expected 3",
    ),
    "dim-below-2": (malformed("dim", None, 1), "dimension must be at least 2"),
}


class TestParseFan:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FANS))
    def test_malformed_file_gets_the_models_message(self, case, tmp_path, capsys):
        payload, expected = MALFORMED_FANS[case]
        path = write_json(tmp_path, "bad.json", payload)
        with pytest.raises(FanFormatError) as caught:
            parse_fan(path)
        assert str(caught.value) == model_message(payload)
        assert str(caught.value).startswith(expected)
        assert run(["check", path]) == 2

    def test_p3(self, p3_file):
        fan = parse_fan(p3_file)
        assert len(fan.rays) == 4 and len(fan.max_cones) == 4

    def test_non_primitive_ray(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"dim": 3, "rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
             "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
        )
        with pytest.raises(FanFormatError, match="ray 0 not primitive"):
            parse_fan(path)

    def test_wrong_cone_size(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "max_cones": [[0, 1]]},
        )
        with pytest.raises(FanFormatError, match="cone 0 has size 2, expected 3"):
            parse_fan(path)

    def test_non_integer_coordinate(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"dim": 2, "rays": [[1.5, 0], [0, 1], [-1, -1]],
             "max_cones": [[0, 1], [1, 2], [0, 2]]},
        )
        with pytest.raises(FanFormatError, match="integer"):
            parse_fan(path)

    def test_boolean_coordinate_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            "bool.json",
            {"dim": 2, "rays": [[True, 0], [0, 1], [-1, -1]],
             "max_cones": [[0, 1], [1, 2], [0, 2]]},
        )
        with pytest.raises(FanFormatError, match="integer"):
            parse_fan(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FanFormatError, match="malformed JSON"):
            parse_fan(str(path))

    def test_unknown_keys(self, tmp_path):
        path = write_json(
            tmp_path, "extra.json", {"dim": 2, "rays": [], "max_cones": [], "x": 1}
        )
        with pytest.raises(FanFormatError, match="unknown keys"):
            parse_fan(path)


class TestExitCodes:
    def test_check_pass(self, p3_file, capsys):
        assert run(["check", p3_file]) == 0
        out = capsys.readouterr().out
        assert "status: pass" in out

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"dim": 3, "rays": [], "max_cones": []})
        assert run(["check", path]) == 2
        assert run(["check", str(tmp_path / "missing.json")]) == 2

    def test_undecodable_files_are_malformed_input(self, tmp_path, p3_file, capsys):
        # text that is not UTF-8, an integer past the interpreter's digit
        # limit for conversion, and nesting past the recursion limit
        contents = {
            "latin1.json": '{"coeffs": ["\u00e9"]}'.encode("latin-1"),
            "digits.json": b"[" + b"7" * 5000 + b"]",
            "nested.json": b"[" * 100_000,
        }
        for name, content in contents.items():
            path = tmp_path / name
            path.write_bytes(content)
            for argv in (["check", str(path)], ["check", p3_file, "--divisor", str(path)]):
                assert run([*argv, "--json"]) == 2, argv
                report = json.loads(capsys.readouterr().out)
                assert report["status"] == "invalid-input", argv
                [finding] = report["findings"]
                assert finding["error"].startswith("malformed JSON: "), argv

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unsupported_dimension_exits_2(self, tmp_path, capsys):
        # the statements need n >= 3: a P^2 divisor, or the catalog in
        # dimension 2, is unsupported, not failed; dimension 7 verifies
        p2, p7 = str(tmp_path / "p2.json"), str(tmp_path / "p7.json")
        write_fan(projective_space_fan(2), p2)
        write_fan(projective_space_fan(7), p7)
        for argv, message in (
            (["classify", p2, "--ray", "0"], "classification is stated for dimension at least 3"),
            (["catalog", "--dim", "2"], "the catalog is stated for dimension at least 3"),
        ):
            assert run(argv + ["--json"]) == 2
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "invalid-input"
            assert report["findings"] == [{"error": message}]
        assert run(["classify", p7, "--ray", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"][0]["case"] == "i"
        assert run(["catalog", "--dim", "7", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["findings"]) == 15
        assert run(["verify-theorem1", "--input", p7, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        identity = [[int(i == j) for j in range(7)] for i in range(7)]
        assert [(f["conclusion"], f["witness"]) for f in report["findings"]] == [
            ("projective-space", identity)
        ] * 8

    def test_input_outside_the_statement_exits_2(self, tmp_path, capsys):
        """On every emitted catalog fan of dimensions 3 to 6, classify and
        simplify pass on each listed P^(n-1) divisor and exit 2 on every
        other ray: nothing was checked and failed, the input is outside the
        statement.  So does a fan that is not Fano."""
        from toricfano import catalog, p1_bundle_fan
        from toricfano.cli import _entry_label

        def report(argv):
            code = run(argv + ["--json"])
            return code, json.loads(capsys.readouterr().out)

        def outside(command, message):
            return 2, {
                "command": command,
                "status": "invalid-input",
                "findings": [{"error": message}],
                "witness": None,
            }

        not_pn = "divisor is not a projective space"
        for n in range(3, 7):
            emitted = tmp_path / f"dim{n}"
            assert run(["catalog", "--dim", str(n), "--emit", str(emitted)]) == 0
            capsys.readouterr()
            for entry in catalog(n):
                path = str(emitted / f"{_entry_label(entry)}.json")
                divisors = dict(entry.divisor_rays)
                for ray in range(len(entry.fan.rays)):
                    for command in ("classify", "simplify"):
                        code, got = report([command, path, "--ray", str(ray)])
                        if ray in divisors:
                            assert (code, got["status"]) == (0, "pass")
                        else:
                            assert (code, got) == outside(command, not_pn)
        path = str(tmp_path / "not_fano.json")
        write_fan(p1_bundle_fan(3, 3), path)  # V(ray 1) is a P^2
        assert report(["classify", path, "--ray", "1"]) == outside(
            "classify", "classification needs a Fano fan"
        )
        assert report(["simplify", path, "--ray", "1"]) == outside(
            "simplify", "simplification is defined on Fano fans"
        )
        # V(ray 2) is no P^2 either; both commands ask for a Fano fan first
        assert report(["classify", path, "--ray", "2"]) == outside(
            "classify", "classification needs a Fano fan"
        )
        assert report(["simplify", path, "--ray", "2"]) == outside(
            "simplify", "simplification is defined on Fano fans"
        )

    def test_iso_pass_and_fail(self, tmp_path, p3_file, capsys):
        p3 = projective_space_fan(3)
        order = [2, 0, 3, 1]
        relabel = {old: new for new, old in enumerate(order)}
        from toricfano import Fan

        permuted = Fan(
            3,
            tuple(p3.rays[i] for i in order),
            tuple(tuple(relabel[i] for i in c) for c in p3.max_cones),
        )
        other = tmp_path / "p3_permuted.json"
        write_fan(permuted, other)
        assert run(["iso", p3_file, str(other), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert report["witness"] is not None

        from toricfano import star_subdivide

        blown = tmp_path / "blown.json"
        write_fan(star_subdivide(p3, (0, 1, 2)), blown)
        assert run(["iso", p3_file, str(blown), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"

    def test_a_witness_past_the_digit_limit_is_invalid_input(self, tmp_path, capsys):
        """Two P^2 files, images of P^2 under [[1, t], [0, 1]] and [[1, 0],
        [t, 1]], t = 10^2500: every input integer is within the digit limit
        for conversion, but the witness, the second map times the inverse
        of the first, has an entry of 5,001 digits.  The report is formatted
        whole before anything is written, so neither form prints a verdict
        it cannot finish: each prints one invalid-input report naming the
        limit, and exits 2."""
        t = 10**2500
        rays = ((1, 0), (0, 1), (-1, -1))
        paths = []
        for name, (a, b, c, d) in (("upper", (1, t, 0, 1)), ("lower", (1, 0, t, 1))):
            images = [[a * x + b * y, c * x + d * y] for x, y in rays]
            cones = [[0, 1], [1, 2], [0, 2]]
            payload = {"dim": 2, "rays": images, "max_cones": cones}
            paths.append(write_json(tmp_path, f"{name}.json", payload))
        limit = str(sys.get_int_max_str_digits())
        assert run(["iso", *paths, "--json"]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["command"] == "iso" and report["status"] == "invalid-input"
        assert report["witness"] is None
        [finding] = report["findings"]
        assert finding["error"].startswith("report cannot be written: ")
        assert limit in finding["error"] and err == ""
        assert run(["iso", *paths]) == 2
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[:2] == ["command: iso", "status: invalid-input"] and len(lines) == 3
        assert lines[2].startswith("  error=report cannot be written: ")
        assert limit in lines[2]
        assert err == ""


class TestReports:
    def test_catalog_json(self, capsys):
        assert run(["catalog", "--dim", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert len(report["findings"]) == 7

    def test_json_output_is_byte_identical(self, capsys):
        for argv in (
            ["catalog", "--dim", "3", "--json"],
            ["verify-theorem1", "--corpus", "3,10,2,5", "--json"],
            ["verify-theorem2", "--dim", "3", "--json"],
        ):
            run(argv)
            first = capsys.readouterr().out
            run(argv)
            second = capsys.readouterr().out
            assert first == second

    def test_catalog_emit_round_trips(self, tmp_path, capsys):
        out = tmp_path / "fans"
        assert run(["catalog", "--dim", "3", "--emit", str(out)]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 7
        for name in files:
            fan = parse_fan(str(out / name))
            assert fan.dim == 3

    def test_verify_theorem2(self, capsys):
        assert run(["verify-theorem2", "--dim", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"

    def test_verify_theorem2_fails_on_a_wrong_catalog(self, monkeypatch, capsys):
        # case iii with nu = 0 built from the nu = 1 bundle: its divisors
        # are not the listed ones, which only catalog() itself checks
        real = toricfano.classify.p1_bundle_fan
        monkeypatch.setattr(
            toricfano.classify, "p1_bundle_fan", lambda n, nu: real(n, nu or 1)
        )
        toricfano.classify.catalog.cache_clear()
        try:
            assert run(["verify-theorem2", "--dim", "3", "--json"]) == 1
        finally:
            monkeypatch.undo()
            toricfano.classify.catalog.cache_clear()
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert "divisors" in report["findings"][0]["error"]

    def test_check_asks_the_kernel_once_per_parsed_fan(
        self, tmp_path, monkeypatch, capsys
    ):
        """Operation budget: a parsed fan has no parent, so ``check`` runs
        the full validity pass on it, which asks the kernel for one cone of
        a complete fan and reads every other cone's inverse off a
        neighbour's.  On every catalog fan of dimensions 3 to 6, written
        out and checked from cold caches: one kernel call per file."""
        files = []
        for n in range(3, 7):
            folder = tmp_path / f"dim{n}"
            assert run(["catalog", "--dim", str(n), "--emit", str(folder)]) == 0
            files += sorted(folder.iterdir())
        capsys.readouterr()
        clear_caches()
        calls = count_kernel_calls(monkeypatch)
        for k, path in enumerate(files, 1):
            assert run(["check", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["findings"][0]["smooth"]
            assert len(calls) == k, path
        assert len(files) == sum(2 * n + 1 for n in range(3, 7)) == 40

    def test_check_pairs_the_facets_of_a_parsed_fan_once(
        self, tmp_path, monkeypatch, capsys
    ):
        """Operation budget: ``check`` on a parsed smooth complete fan with C
        cones in dimension n builds one facet map, the validity pass's, and
        makes C n / 2 + n coordinate reads: one per facet, read by the walk
        and kept for ``walls``, and n for the kernel's inverse of the root
        cone.  Corpus fans of dimensions 3 and 4, written out and checked
        from cold caches."""
        import toricfano.fan
        import toricfano.kernel

        fans = random_corpus(3, 60, 3, 2024)[::12] + random_corpus(4, 50, 4, 7)[::10]
        facet_map, coordinates = toricfano.fan._facet_map, toricfano.kernel.coordinates
        counts = {"facet maps": 0, "coordinates": 0}

        def counting_facet_map(fan):
            counts["facet maps"] += 1
            return facet_map(fan)

        def counting_coordinates(u, cols):
            counts["coordinates"] += 1
            return coordinates(u, cols)

        monkeypatch.setattr(toricfano.fan, "_facet_map", counting_facet_map)
        monkeypatch.setattr(toricfano.kernel, "coordinates", counting_coordinates)
        for k, fan in enumerate(fans):
            path = tmp_path / f"fan{k}.json"
            write_fan(fan, path)
            clear_caches()
            counts.update(dict.fromkeys(counts, 0))
            assert run(["check", str(path), "--json"]) == 0
            finding = json.loads(capsys.readouterr().out)["findings"][0]
            assert finding["smooth"] and finding["complete"], path
            cones, n = len(fan.max_cones), fan.dim
            assert counts == {"facet maps": 1, "coordinates": cones * n // 2 + n}, path
        assert len(fans) == 10

    def test_verify_theorem1_input(self, p3_file, capsys):
        assert run(["verify-theorem1", "--input", p3_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        conclusions = [
            f.get("conclusion") for f in report["findings"] if f.get("blowup_fano")
        ]
        assert conclusions == ["projective-space"] * 4

    def test_verify_theorem1_corpus(self, capsys):
        assert run(["verify-theorem1", "--corpus", "3,20,2,11", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"

    def test_divisors(self, p3_file, capsys):
        assert run(["divisors", p3_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(f["proj_space"] and f["degree"] == 1 for f in report["findings"])

    def test_classify(self, p3_file, capsys):
        assert run(["classify", p3_file, "--ray", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"][0]["case"] == "i"
        assert report["witness"] is not None

    def test_simplify_absent(self, p3_file, capsys):
        assert run(["simplify", p3_file, "--ray", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        finding = report["findings"][0]
        assert finding["simplified"] is False
        assert finding["reason"] == "no transverse Mori extremal wall"

    def test_simplify_fibration_reason(self, tmp_path, capsys):
        from toricfano import p1_bundle_fan

        path = tmp_path / "bundle.json"
        write_fan(p1_bundle_fan(3, 1), path)
        assert run(["simplify", str(path), "--ray", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        finding = report["findings"][0]
        assert finding["simplified"] is False
        assert finding["reason"] == "fibration case"

    def test_ray_out_of_range_exits_2(self, p3_file, capsys):
        assert run(["classify", p3_file, "--ray", "9", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "invalid-input"

    def test_negative_ray_reaches_the_handler(self, p3_file, capsys):
        # a negative number is an option's value, not an option, so the
        # handler reports the index, not the command line
        assert run(["classify", p3_file, "--ray", "-1", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "invalid-input"
        assert report["findings"] == [{"error": "ray index -1 out of range 0..3"}]

    @pytest.mark.parametrize(
        "args",
        [
            ["verify-theorem1", "--input", ""],
            ["check", "P3", "--divisor", ""],
            ["check", "P3", "--divisor="],
            ["catalog", "--dim", "3", "--emit", ""],
        ],
        ids=[
            "verify-theorem1-input",
            "check-divisor",
            "check-divisor-equals",
            "catalog-emit",
        ],
    )
    def test_empty_input_path_is_malformed_input(
        self, args, p3_file, tmp_path, monkeypatch, capsys
    ):
        # an empty path is given, not absent: it names no file, and nothing
        # is written in its place
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        args = [p3_file if a == "P3" else a for a in args]
        assert run(args + ["--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "invalid-input"
        assert not any(work.iterdir())

    def test_simplify_step(self, tmp_path, capsys):
        from toricfano import Fan, star_subdivide

        p1xp2 = Fan(
            3,
            ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
            ((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
        )
        blown = tmp_path / "blown.json"
        write_fan(star_subdivide(p1xp2, (0, 2)), blown)
        assert run(["simplify", str(blown), "--ray", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        finding = report["findings"][0]
        assert finding["simplified"] is True
        assert finding["degree_before"] == -1
        assert finding["degree_after"] == 0

    def test_check_with_divisor(self, tmp_path, p3_file, capsys):
        div = tmp_path / "anticanonical.json"
        div.write_text(json.dumps({"coeffs": [1, 1, 1, 1]}))
        assert run(["check", p3_file, "--divisor", str(div), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        scan = next(f for f in report["findings"] if "ample" in f)
        assert scan["ample"] and scan["nef"] and scan["min_degree"] == 4

    def test_divisor_format_rejects(self, tmp_path, p3_file, capsys):
        from toricfano.cli import parse_divisor
        from toricfano import projective_space_fan

        fan = projective_space_fan(3)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"coeffs": [1, 1]}))
        with pytest.raises(FanFormatError, match="4 rays"):
            parse_divisor(str(bad), fan)
        bad.write_text(json.dumps({"coeffs": [1, 1.5, 1, 1]}))
        with pytest.raises(FanFormatError, match="integer"):
            parse_divisor(str(bad), fan)
        bad.write_text(json.dumps({"wrong": []}))
        with pytest.raises(FanFormatError, match="coeffs"):
            parse_divisor(str(bad), fan)
        # through the CLI the failure is malformed input, exit 2
        bad.write_text(json.dumps({"coeffs": [1, 1]}))
        assert run(["check", p3_file, "--divisor", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("complete", [True, False], ids=["p3", "one-cone"])
    @pytest.mark.parametrize("text", ["not json", '{"coeffs": [1, 1]}'])
    def test_divisor_is_parsed_on_every_fan(
        self, tmp_path, p3_file, complete, text, capsys
    ):
        # the divisor is malformed input whether or not the fan is complete
        one_cone = {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "max_cones": [[0, 1, 2]]}
        fan = p3_file if complete else write_json(tmp_path, "cone.json", one_cone)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["check", fan, "--divisor", str(bad), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "invalid-input"

    def test_divisor_round_trip(self, tmp_path):
        from toricfano.cli import parse_divisor
        from toricfano import TDivisor, projective_space_fan

        fan = projective_space_fan(4)
        divisor = TDivisor((1,) * len(fan.rays))
        path = write_json(tmp_path, "divisor.json", {"coeffs": list(divisor.coeffs)})
        assert parse_divisor(path, fan) == divisor

    def test_mori_table(self, p3_file, capsys):
        assert run(["mori", p3_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["findings"]) == 6
        assert all(
            f["anticanonical_degree"] == 4 and f["mori_extremal"]
            for f in report["findings"]
        )


# eight cones winding twice around the origin: every check but the
# overlap LP passes, so `check` must still name the overlapping pairs
DOUBLE_COVER = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1], [-1, -1], [1, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [0, 7]],
}


def child_process(flags, argv, **streams):
    """The finished ``cli.run(argv)`` in a fresh interpreter, whose stdout
    is buffered unless ``flags`` hold ``-u``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricfano.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys; from toricfano.cli import run; sys.exit(run(sys.argv[1:]))"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        env=dict(env, PYTHONPATH=path),
        timeout=300,
        **streams,
    )


def run_in_child(flags, argv):
    """Exit code and stdout bytes of ``cli.run(argv)`` in a fresh interpreter."""
    proc = child_process(flags, argv, capture_output=True)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("flags", [[], ["-O"], ["-u"]], ids=["plain", "O", "unbuffered"])
def test_closed_stdout_keeps_the_verdict(flags):
    """A reader that leaves early (``| head -c 10``) is not a failed check:
    the report's own exit code, and no traceback.  Buffered, the pipe
    breaks at the flush; unbuffered, at the first write."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = child_process(
            flags,
            ["verify-theorem2", "--dim", "3", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_one_process_prints_what_fresh_processes_print(tmp_path, p3_file, capsys):
    """Reading one command line leaves nothing behind for the next: a
    rejected argument list, then check with and without a divisor, then a
    corpus sweep, each print in one process, byte for byte, what each
    prints alone in a fresh interpreter."""
    divisor = write_json(tmp_path, "anticanonical.json", {"coeffs": [1, 1, 1, 1]})
    sequence = [
        ["classify", p3_file, "--json"],  # --ray is required: exit 2
        ["check", p3_file, "--divisor", divisor],
        ["check", p3_file],
        ["verify-theorem1", "--corpus", "3,10,2,5"],
    ]
    reused = []
    for argv in sequence:
        code = run(argv)
        out, err = capsys.readouterr()
        reused.append((code, out.encode("utf-8"), err.encode("utf-8")))
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert b"--ray" in reused[0][2] and b"ample=True" in reused[1][1]
    for argv, expected in zip(sequence, reused):
        proc = child_process([], argv, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


def collector_passes_during(argv):
    """(exit code, collector passes) of ``run(argv)``, stdout captured.
    The count is read as soon as ``run`` returns, before the test
    allocates anything the collector tracks, so a pass that the restored
    collector owes for what the command allocated is not counted."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
            during = len(passes)
    finally:
        gc.callbacks.remove(count)
    return code, during


def test_no_collector_pass_runs_during_a_command():
    """The commands build only acyclic data, which reference counting
    frees, so ``run`` keeps the cyclic collector off: the corpus sweep,
    whose allocations trigger 8 passes with the collector on, runs none,
    nor does the catalog verifier.  The caller's setting comes back."""
    clear_caches()
    gc.collect()
    assert gc.isenabled()
    for argv in (
        ["verify-theorem1", "--corpus", "4,50,4,7", "--json"],
        ["verify-theorem2", "--dim", "4", "--json"],
    ):
        assert collector_passes_during(argv) == (0, 0), argv
        assert gc.isenabled()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_run_restores_the_callers_collector_setting(collecting, p3_file, monkeypatch):
    """``gc.isenabled()`` after ``run`` is what it was before, after a
    report, a usage error and a handler that raises."""

    def raising(args):
        raise RuntimeError("handler failed")

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert run(["check", p3_file]) == 0
            assert gc.isenabled() is collecting
            assert run(["check"]) == 2
            assert gc.isenabled() is collecting
            monkeypatch.setattr(COMMANDS["check"], "handler", raising)
            with pytest.raises(RuntimeError, match="handler failed"):
                run(["check", p3_file])
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_commands_leave_no_cycles(tmp_path, p3_file):
    """With the collector off during a command, a reference cycle it made
    would stay allocated until a later pass; there is none to find after
    a sweep, the catalog verifier, check, mori, iso and an invalid input."""
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["verify-theorem1", "--corpus", "4,50,4,7", "--json"],
        ["verify-theorem2", "--dim", "3"],
        ["check", p3_file, "--json"],
        ["mori", p3_file],
        ["iso", p3_file, p3_file, "--json"],
        ["check", missing],
    ):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            run(argv)
        assert gc.collect() == 0, argv


def oracle_parse(argv):
    """The argparse oracle's namespace for ``argv`` as a dict, or None
    when it rejects the list."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def dispatcher_parse(argv):
    try:
        return vars(parse_args(argv))
    except UsageError:
        return None


OPTIONS = sorted({flag for c in COMMANDS.values() for flag in c.options} | {"--json"})
INTS = ["0", "3", "-1", "-12", "+4", " 5", "007", "1_000"]
NON_INTS = ["7x", "1.5", "-0.5", "", "x", "1e3", "٣x"]
CORPORA = ["3,10,2,5", "4,1,1,-3", " 3, 4 ,2,1"]
BAD_CORPORA = ["3,10,2", "1,2,x,4", "a,b,c,d", "1,,2,3", "3,10,2,5,6", ","]
PATHS = ["fan.json", "dir/p3.json", "p 3.json", "-a b.json", "a=b.json", "-", "check"]
JUNK = ["--frob", "-x", "--jsonx", "--rays", "--dims", "foo=bar", "--x=1"]
TOKENS = INTS + NON_INTS + CORPORA + BAD_CORPORA + PATHS + JUNK


def _value(option, rng):
    """A value for ``option``, of its own kind nine times in ten."""
    if rng.random() < 0.1:
        return rng.choice(TOKENS)
    if option in ("--ray", "--dim"):
        return rng.choice(INTS)
    return rng.choice(CORPORA if option == "--corpus" else PATHS)


def random_argv(rng):
    """An argument list near a valid one, or of random tokens.

    Half the lists are a valid command line of a random subcommand, with
    its options in random order, in both spellings, then up to two tokens
    inserted, deleted or replaced.  The rest are a subcommand name, or a
    random token, followed by up to six random tokens, options and
    ``--opt=value`` forms.  No token is ``-h``, ``--help``, ``--``, or an
    abbreviation of an option: the dispatcher takes options spelled in
    full only."""
    if rng.random() < 0.5:
        name = rng.choice(list(COMMANDS))
        command = COMMANDS[name]
        words = [[rng.choice(PATHS)] for _ in command.positionals]
        flags = [rng.choice(group) for group in command.required]
        required = {flag for group in command.required for flag in group}
        flags += [f for f in command.options if f not in required and rng.random() < 0.5]
        for flag in flags:
            value = _value(flag, rng)
            words.append([f"{flag}={value}"] if rng.random() < 0.3 else [flag, value])
        if rng.random() < 0.5:
            words.append(["--json"])
        rng.shuffle(words)
        argv = [name]
        for word in words:
            argv += word
        for _ in range(rng.randrange(3)):
            edit, at = rng.random(), rng.randrange(1, len(argv) + 1)
            token = rng.choice(OPTIONS + TOKENS)
            if edit < 0.4:
                argv.insert(at, token)
            elif at < len(argv):
                if edit < 0.7:
                    del argv[at]
                else:
                    argv[at] = token
        return argv
    head = rng.choice(list(COMMANDS)) if rng.random() < 0.9 else rng.choice(OPTIONS + TOKENS)
    argv = [head]
    for _ in range(rng.randrange(7)):
        kind = rng.random()
        if kind < 0.3:
            argv.append(rng.choice(OPTIONS))
        elif kind < 0.45:
            argv.append(f"{rng.choice(OPTIONS)}={rng.choice(TOKENS)}")
        else:
            argv.append(rng.choice(TOKENS))
    return argv


def test_dispatcher_agrees_with_argparse():
    """On 2,000 seeded argument lists the dispatcher accepts exactly the
    lists the argparse parser it replaced accepts, and reads the same
    namespace from each: subcommand, handler, --json, positionals and
    option values.  Only parsing runs; no handler is called.  The one
    documented divergence, abbreviated options, is not generated."""
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(2000):
        argv = random_argv(rng)
        expected = oracle_parse(argv)
        assert dispatcher_parse(argv) == expected, argv
        accepted += expected is not None
    # both sides of the decision are exercised
    assert 400 < accepted < 1600


def test_dispatcher_keeps_argparse_forms(p3_file):
    """The argument forms the table dispatcher keeps, each read as argparse
    read it."""
    forms = [
        ["classify", p3_file, "--ray", "-1", "--json"],
        ["classify", "--json", "--ray=2", p3_file],
        ["catalog", "--dim", "3", "--emit", "out", "--dim", "4"],
        ["verify-theorem1", "--corpus=3,10,2,5", "--json"],
        ["iso", "a.json", "--json", "b.json"],
    ]
    for argv in forms:
        assert dispatcher_parse(argv) == oracle_parse(argv) is not None, argv
    assert parse_args(forms[2]).dim == 4
    # after "--" every token is positional, even one that reads as an option
    assert parse_args(["check", "--json", "--", "-odd.json"]).fan == "-odd.json"
    # abbreviations are the one divergence: argparse took a unique prefix
    assert oracle_parse(["catalog", "--di", "3"])["dim"] == 3
    assert dispatcher_parse(["catalog", "--di", "3"]) is None


USAGE_ERRORS = {
    "missing-ray": (["classify", "{p3}", "--json"], ["--ray"]),
    "non-integer-dim": (["catalog", "--dim", "three"], ["--dim", "'three'"]),
    "unknown-subcommand": (["frobnicate"], ["frobnicate"]),
    "input-and-corpus": (
        ["verify-theorem1", "--input", "{p3}", "--corpus", "3,10,2,5"],
        ["--input", "--corpus"],
    ),
    "malformed-corpus": (["verify-theorem1", "--corpus", "3,10,2"], ["--corpus", "'3,10,2'"]),
    "unknown-option": (["check", "{p3}", "--frob"], ["--frob"]),
    "option-before-subcommand": (["--json", "check", "{p3}"], ["'--json'"]),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2_and_names_the_argument(case, p3_file, capsys):
    argv, named = USAGE_ERRORS[case]
    assert run([arg.format(p3=p3_file) for arg in argv]) == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith("usage: toricfano")
    assert error.startswith("toricfano: error: ")
    assert all(name in error for name in named), error


def test_help_names_every_subcommand(capsys):
    for flag in ("--help", "-h"):
        assert run([flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and all(name in out for name in COMMANDS)


def test_subcommand_help_names_its_options(p3_file, capsys):
    for argv in (["classify", "--help"], ["classify", p3_file, "-h", "--ray", "x"]):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and "--ray" in out and "--json" in out
        assert out.startswith("usage: toricfano classify")


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["verify-theorem1", "--corpus", "3,20,3,1", "--json"], 0),
        (["verify-theorem2", "--dim", "3", "--json"], 0),
        (["check", "{p3}", "--json"], 0),
        (["check", "{double_cover}", "--json"], 2),
    ],
)
def test_optimized_interpreter_prints_the_same(argv, exit_code, tmp_path, p3_file):
    files = {
        "p3": p3_file,
        "double_cover": write_json(tmp_path, "double_cover.json", DOUBLE_COVER),
    }
    argv = [arg.format(**files) for arg in argv]
    plain = run_in_child([], argv)
    assert plain[0] == exit_code
    assert run_in_child(["-O"], argv) == plain


@pytest.mark.parametrize(
    "corpus, digest",
    [
        ("3,200,3,42", "47d1899f3ac5f9bed8484826d7de82cd34846e2b66fe7e260aaa11adc8a7fb9e"),
        ("4,100,4,7", "4b240da35eb1aeb599eec4001e97cf946cdc5e8feaf808a4eebf4533654736c1"),
    ],
)
def test_theorem1_report_bytes_are_pinned(corpus, digest, capsys):
    assert run(["verify-theorem1", "--corpus", corpus, "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize(
    "dim, digest",
    [
        (3, "72226655459d018d862b919ff973cd58273507ae6c4b721b2affb855c1ae77ac"),
        (4, "17a24abade86eebfbb24a01b41b5264ed02323189bc02e5dfcd9793dd5db9c13"),
        (5, "73ea268233c6bbeacd56ef175d434f0f65050037212505577e3e32d7aca0ab2a"),
        (6, "8f380d2de662aa57f7f76800e73fb8ea525799c4ec8d85ff4cdf55b572740085"),
    ],
)
def test_theorem2_report_bytes_are_pinned(dim, digest, capsys):
    assert run(["verify-theorem2", "--dim", str(dim), "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("dim", range(7, 13))
def test_theorem2_verifies_past_dimension_6(dim, capsys):
    assert run(["verify-theorem2", "--dim", str(dim), "--json"]) == 0
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert findings[0] == {
        "check": "catalog-size", "expected": 2 * dim + 1, "actual": 2 * dim + 1, "ok": True
    }
    entries = [f for f in findings if f["check"] == "entry"]
    assert len(entries) == 2 * dim + 1 and all(f["ok"] for f in entries)
    assert findings[-1] == {"check": "pairwise-distinct", "ok": True}
    assert len(findings) == 2 * dim + 3


@pytest.mark.parametrize("dim, seed", [(5, 1), (6, 2), (7, 3), (8, 4)])
def test_theorem1_corpus_verifies_past_dimension_4(dim, seed, capsys):
    assert run(["verify-theorem1", "--corpus", f"{dim},20,3,{seed}", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert {f["fan"] for f in report["findings"]} == {f"corpus[{k}]" for k in range(20)}
