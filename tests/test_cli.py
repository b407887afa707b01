import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poremetrics import cli, porestats
from poremetrics.dyadic import Cube
from poremetrics.porestats import binomial_check, binomial_numerators, length_law, moment_stream
from poremetrics.rationals import parse_rational
from poremetrics.setmodels import ContractionSequence, Generated

REPO = Path(__file__).resolve().parent.parent
DIGIT_LIMIT = "the interpreter's limit for printing an integer (sys.get_int_max_str_digits)\n"


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "poremetrics", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return proc


def parse_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


class TestGenSet:
    def test_constant_half_level_one(self):
        out = run_cli("gen-set", "--rule", "constant", "--c", "1/2", "--level", "1")
        assert out.stdout.split() == ["0/1", "1/1", "3/2", "5/2"]

    def test_constant_one_level_two(self):
        out = run_cli("gen-set", "--rule", "constant", "--c", "1", "--level", "2")
        points = [parse_rational(tok) for tok in out.stdout.split()]
        assert points == list(range(10))

    def test_half_harmonic_level_zero(self):
        out = run_cli("gen-set", "--rule", "half_harmonic", "--level", "0")
        assert out.stdout.split() == ["0/1", "1/1"]

    def test_spec_file_round_trip(self, tmp_path):
        spec = tmp_path / "set.json"
        run_cli(
            "gen-set", "--rule", "half_harmonic", "--level", "2",
            "--spec-out", str(spec), "--points-out", str(tmp_path / "pts.txt"),
        )
        data = json.loads(spec.read_text())
        assert data["type"] == "generated"
        assert data["contraction"]["rule"] == "half_harmonic"
        out = run_cli("pores", "--set", str(spec), "--cube", "interval:[0,1)", "--max-gen", "6")
        assert "pore" in out.stdout


class TestFig1:
    def test_groups(self, tmp_path):
        out = run_cli("fig1")
        header, rows = parse_csv(out.stdout)
        assert header == ["sequence", "point", "value"]
        by_group = {}
        for label, point, _ in rows:
            by_group.setdefault(label, []).append(parse_rational(point))
        # The unit-contraction group is exactly the integers in [-8, 8].
        assert by_group["c=1"] == list(range(-8, 9))
        # Every group contains -1, 0, 1 and is symmetric about the origin.
        for label, pts in by_group.items():
            assert {-1, 0, 1} <= set(pts)
            assert all(-p in pts for p in pts)
        # Positive constant-1/2 points agree with the generator stage whose
        # envelope first clears the bound.
        ref = Generated(ContractionSequence.constant(Fraction(1, 2)), 3).points
        assert [p for p in by_group["c=1/2"] if p > 0] == [p for p in ref if 0 < p <= 8]

    @pytest.mark.parametrize("bound", ["1000000", "1" + "0" * 1000], ids=["1e6", "1e1000"])
    def test_cap_refused_before_any_group_is_built(self, monkeypatch, capsys, bound):
        # At 10^6 the constant-1/2 group needs level 16 while the other two
        # stay within the cap; at 10^1000 the first group is already past it.
        def refuse(oracle):
            raise AssertionError(f"points built at level {oracle.level}")

        monkeypatch.setattr(Generated, "numerators", property(refuse))
        assert cli.main(["fig1", "--bound", bound]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "precondition violated: explicit enumeration is capped at level 14\n"

    def test_byte_identical_and_sidecar(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("fig1", "--out", str(out1))
        run_cli("fig1", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["schema"] == "pore-metrics/1"
        assert "--out" in meta["argv"]


class TestReports:
    def test_ls_ratio_lattice(self):
        out = run_cli("ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10")
        header, rows = parse_csv(out.stdout)
        assert header == ["cube_id", "s", "L_s", "S_s", "ratio", "depth_ok"]
        assert rows[0][1:] == ["1/10", "1/2", "1/16", "8/1", "true"]

    @pytest.mark.parametrize(
        "args,note",
        [
            (["--set", "point:5", "--cubes", "dyadic:0..1"], "disjoint from set; skipped"),
            (["--set", "lattice", "--cubes", "dyadic:0..1", "--max-gen", "2"], "insufficient depth:"),
        ],
        ids=["disjoint", "insufficient-depth"],
    )
    def test_ls_ratio_rows_without_values(self, args, note):
        # Rows with no exact value: empty cells in CSV, nulls in JSON.
        out = run_cli("ls-ratio", *args, "--s", "1/10")
        assert out.stdout == (
            "cube_id,s,L_s,S_s,ratio,depth_ok\n"
            '"0:[0,1)",1/10,,,,false\n"1:[0,2)",1/10,,,,false\n'
        )
        data = json.loads(run_cli("ls-ratio", *args, "--s", "1/10", "--format", "json").stdout)
        assert data["max_ratio"] is None
        for row in data["rows"]:
            assert (row["L_s"], row["S_s"], row["ratio"], row["depth_ok"]) == (None, None, None, False)
            assert row["note"].startswith(note)

    def test_ls_ratio_json_schema(self):
        out = run_cli(
            "ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10",
            "--format", "json",
        )
        data = json.loads(out.stdout)
        assert data["schema"] == "pore-metrics/1"
        assert data["max_ratio"] == "8/1"

    def test_ap_scan_constant_column(self):
        out = run_cli(
            "ap-scan", "--set", "point:0", "--alpha", "1/2", "--p", "2",
            "--cubes", "dyadic:-5..5",
        )
        header, rows = parse_csv(out.stdout)
        assert header == ["cube_id", "alpha", "p", "product_lo", "product_hi", "case_tag"]
        assert len(rows) == 11
        for row in rows:
            assert row[3] == "4/3" and row[4] == "4/3" and row[5] == "III"

    def test_ap_scan_rows_in_cube_order(self):
        out = run_cli(
            "ap-scan", "--set", "lattice", "--alpha", "1/3", "--p", "2",
            "--cubes", "dyadic:0..3",
        )
        _, rows = parse_csv(out.stdout)
        cubes = [str(Cube.interval(0, Fraction(2) ** k)) for k in range(4)]
        assert [row[0] for row in rows] == [f"{i}:{c}" for i, c in enumerate(cubes)]
        assert out.stdout == run_cli(
            "ap-scan", "--set", "lattice", "--alpha", "1/3", "--p", "2",
            "--cubes", "dyadic:0..3",
        ).stdout

    def test_ap_scan_far_cube_negative_alpha(self):
        # Case I brackets the product by [1, 4^|alpha|]; with 4^alpha the
        # upper end fell below 1 for negative alpha.
        out = run_cli(
            "ap-scan", "--set", "point:0", "--cubes", "interval:[5,6)",
            "--alpha=-1/3", "--p", "2",
        )
        header, rows = parse_csv(out.stdout)
        row = dict(zip(header, rows[0]))
        assert row["case_tag"] == "I"
        assert row["product_lo"] == "1/1"
        assert float(row["product_hi"]) >= 1

    def test_negative_fraction_after_its_option(self, capsys):
        # -1/2 after --alpha is a value, not an option: the line prints the
        # same bytes as with --alpha=-1/2.
        args = ["ap-scan", "--set", "point:0", "--cubes", "interval:[10,11)", "--p", "3/2"]
        runs = []
        for alpha in (["--alpha", "-1/2"], ["--alpha=-1/2"]):
            runs.append((cli.main([*args, *alpha]), *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][:2] == (0, 'cube_id,alpha,p,product_lo,product_hi,case_tag\n"0:[10,11)",-1/2,3/2,1/1,2/1,I\n')

    @pytest.mark.parametrize("options,message", [
        (["--c", "1/2", "--divergence-t", "-1/10"], "divergence scan needs t in (0, 1/8)"),
        (["--c", "-1/2"], "constant rule needs c in (0, 1]"),
    ], ids=["divergence-t", "c"])
    def test_negative_fraction_refused_by_its_domain(self, capsys, options, message):
        # A negative fraction parses as the option's value and is refused
        # by the domain check, not by the parser.
        code = cli.main(["prob-stats", "--rule", "constant", "--levels", "0..2", *options])
        assert (code, *capsys.readouterr()) == (2, "", f"precondition violated: {message}\n")

    @pytest.mark.parametrize(
        "set_spec,cubes,alpha,paths,reused",
        [
            ("generated:half_harmonic:4", "envelopes:0..4", "1/3", {"closed_form": 5}, 0),
            # [0, 1) is the envelope Q_0 of every generated set.
            ("generated:constant:1/2:4:reflect", "dyadic:0..2", "1/3", {"closed_form": 1, "gap_walk": 2}, 0),
            ("point:0", "interval:[5,6)", "1/3", {"far_cube": 1}, 0),
            # [0, 2) is [0, 1) dilated about the point, so its row is the first one's.
            ("point:0", "dyadic:0..1", "3/2", {"divergent": 2}, 1),
        ],
        ids=["closed-form", "envelope-among-dyadic", "far-cube", "divergent"],
    )
    def test_ap_scan_sidecar_counts_mean_paths(self, tmp_path, set_spec, cubes, alpha, paths, reused):
        import poremetrics

        args = ["ap-scan", "--set", set_spec, "--cubes", cubes, f"--alpha={alpha}", "--p", "2", "--max-gen", "12"]
        out = tmp_path / "ap.csv"
        to_stdout = run_cli(*args)
        to_file = run_cli(*args, "--out", str(out))
        assert to_file.stdout == "" and to_file.stderr == ""
        assert out.read_text() == to_stdout.stdout
        meta = json.loads((tmp_path / "ap.csv.meta.json").read_text())
        assert meta == {
            "schema": "pore-metrics/1",
            "argv": [*args, "--out", str(out)],
            "version": poremetrics.__version__,
            "mean_paths": {name: paths.get(name, 0) for name in ("closed_form", "gap_walk", "far_cube", "divergent")},
            "reused_rows": reused,
        }

    def test_envelope_scan_past_the_level_cap(self):
        # Envelope means need no points, so the level cap does not apply.
        start = time.perf_counter()
        out = run_cli(
            "ap-scan", "--set", "generated:half_harmonic:200", "--cubes", "envelopes:0..200",
            "--alpha", "1/3", "--p", "2",
        )
        assert time.perf_counter() - start < 1
        header, rows = parse_csv(out.stdout)
        assert len(rows) == 201
        assert rows[0][3:] == ["9/8", "9/8", "III"]  # (3/2) (3/4): m = 0 is exact
        assert all(row[5] == "III" and 1 <= float(Fraction(row[4])) < 2 for row in rows)
        proc = run_cli("gen-set", "--rule", "half_harmonic", "--level", "15", check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "precondition violated: explicit enumeration is capped at level 14\n"

    def test_pores_csv_and_json(self):
        out = run_cli("pores", "--set", "lattice", "--cube", "unit:[0,1)", "--max-gen", "5")
        header, rows = parse_csv(out.stdout)
        assert header == ["kind", "generation", "length", "count", "mass", "certainty"]
        assert rows[0] == ["pore", "1", "1/2", "1", "1/2", "exact"]
        assert rows[-1][0] == "tail"
        out = run_cli(
            "pores", "--set", "lattice", "--cube", "unit:[0,1)", "--max-gen", "5",
            "--format", "json",
        )
        data = json.loads(out.stdout)
        assert data["schema"] == "pore-metrics/1"
        assert data["tail_mass"] == "1/32"

    def test_porosity_check(self):
        out = run_cli(
            "porosity-check", "--set", "lattice", "--cube", "unit:[0,1)",
            "--sigma", "1/2", "--gamma", "1/2",
        )
        data = json.loads(out.stdout)
        assert data["holds"] is True
        assert data["achieved_mass"] == "3/4"

    def test_prob_stats_half_harmonic(self):
        out = run_cli("prob-stats", "--rule", "half_harmonic", "--levels", "1..60")
        header, rows = parse_csv(out.stdout)
        assert header == ["level", "EX", "EXinv", "product", "bound_e_pi2_75", "binom_ok"]
        bound = Fraction(114066, 100000)
        for row in rows:
            assert parse_rational(row[3]) <= bound
            assert row[5] == "na"

    def test_prob_stats_constant_half_binomial_column(self):
        out = run_cli("prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "1..8")
        _, rows = parse_csv(out.stdout)
        assert all(row[5] == "true" for row in rows)

    @pytest.mark.parametrize("rule", [["half_harmonic"], ["constant", "--c", "1/2"]])
    def test_prob_stats_rows_from_a_later_level(self, rule):
        full = run_cli("prob-stats", "--rule", *rule, "--levels", "0..9").stdout
        tail = run_cli("prob-stats", "--rule", *rule, "--levels", "5..9").stdout
        header, *rows = full.splitlines(keepends=True)
        assert tail == header + "".join(rows[5:])

    @pytest.mark.parametrize("rule", [["half_harmonic"], ["constant", "--c", "1/2"]])
    def test_prob_stats_negative_level(self, rule):
        proc = run_cli("prob-stats", "--rule", *rule, "--levels=-2..1", check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "level must be nonnegative" in proc.stderr

    def test_prob_stats_script_lines_byte_stable(self, tmp_path):
        # The two prob-stats lines of scripts/run_weight_scans.py; digests of
        # the reports as first recorded.
        hh, const, div = (tmp_path / n for n in ("hh.csv", "const.csv", "div.csv"))
        run_cli("prob-stats", "--rule", "half_harmonic", "--levels", "0..200", "--out", str(hh))
        run_cli(
            "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..40",
            "--out", str(const), "--divergence-t", "1/10", "--divergence-out", str(div),
        )
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (hh, const, div)}
        assert digests == {
            "hh.csv": "997ae14cc427b6b7cf4317f5cca299d964d8a55b796da7e9b69c496c9dc05eff",
            "const.csv": "89d40447fc46b60c2c2d83ed642fd6d93e0b133ea2bd2a737fa0da44bc75e674",
            "div.csv": "75c2088496833968c6359c00eaa9e86245fa3e2963bb0703a8adba2670b97127",
        }

    def test_prob_stats_binomial_column_to_level_200(self):
        # The one-pass law column against a law rebuilt from stage 1 at each
        # level.
        half = ContractionSequence.constant(Fraction(1, 2))
        out = run_cli("prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..200")
        _, rows = parse_csv(out.stdout)
        assert [int(row[0]) for row in rows] == list(range(201))
        expected = [str(binomial_check(length_law(half, n))[0]).lower() for n in range(201)]
        assert [row[5] for row in rows] == expected

    def test_script_drivers_byte_stable(self, tmp_path):
        # Both scripts/run_*.py drivers; digests of the reports as first
        # recorded.  Sidecars hold the argv and are left out; the three
        # prob-stats reports are pinned by the test above.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        for script, sub in (("run_reference_sets.py", "ref"), ("run_weight_scans.py", "ws")):
            subprocess.run(
                [sys.executable, str(REPO / "scripts" / script), "--out-dir", str(tmp_path / sub)],
                check=True, capture_output=True, env=env, cwd=tmp_path,
            )
        digests = {
            f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*/*"))
            if not p.name.endswith(".meta.json") and not p.name.endswith("_moments.csv")
            and p.name != "constant_half_divergence.csv"
        }
        assert digests == {
            "ref/constant_half_8.json": "8124449e8f333c1636e7af5f89b217140af8f36de444b211724ef16a59af8bf3",
            "ref/constant_half_8_points.txt": "2efcb6d93265484baf8a8d8ceb1a68db822eaead9d1e349e89583608c31cd120",
            "ref/constant_half_porosity.json": "3b35fa9d57719d8fb951272fabd24a9d17feab602d50611ab957a34b59798a3d",
            "ref/half_harmonic_8.json": "bfcae83c1547c0d3a598ee0098732e46fb4edb700e1865c4cfcd7f221cfd760b",
            "ref/half_harmonic_8_points.txt": "d72ef522d6c2a9e9c2a3e23b8921f4591fe5700b4b8998148d7360516b21921c",
            "ref/half_harmonic_envelope_ratios.csv": "b4e57de1d02d69367c8cce61aa28d1404c56e94cd827fc8dd29504af9e20197d",
            "ref/lattice_pores.csv": "cfed2f145563702de88d90359b2f9d667ebacee3dd482123545c0731a6cc12a9",
            "ref/lattice_porosity.json": "b11dcbcfb5fc9b011f143b85180dbfb45029be3697e07faf1656512ef7194b4e",
            "ref/lattice_ratio.csv": "18109b71c6374024c3a01cf15a56cfbf5d78a2e7fdcc508d29869bee4498b586",
            "ref/reference_points.csv": "3f4e6c4ca64b50831957977b9a933738280ee0a18a3dbe9b95a004c6b69089e6",
            "ws/ap_lattice.csv": "51684048a8d6e36f4a542fefd73cab65c076eeb3474938fdb16f8cef70c97be5",
            "ws/ap_origin_alpha_half.csv": "d93f01d92031227f692485d7af63185c327775a007021fea4f6f8ab7424db10c",
            "ws/ap_origin_alpha_three_halves.csv": "f4eff5ff719bd1e4c9c9c536938a15aa4acf2058eea05ae1335fe8cc461ce79b",
        }

    def test_divergence_csv(self, tmp_path):
        main = tmp_path / "stats.csv"
        div = tmp_path / "div.csv"
        run_cli(
            "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "40..40",
            "--out", str(main), "--divergence-t", "1/10", "--divergence-out", str(div),
        )
        header, rows = parse_csv(div.read_text())
        assert header == ["level", "k_min", "k_max", "tilde_ratio"]
        assert rows[0] == ["40", "7", "11", "16/1"]


_CELLS = st.one_of(st.text(alphabet='a1/ ,"\n', max_size=6), st.integers(), st.none())


class TestCsvText:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.lists(_CELLS, min_size=1, max_size=6), min_size=1, max_size=6))
    @example([["level", None], [None], [""], ["a,b"], ['say "hi"'], ["x\ny", 3, ""]])
    def test_matches_csv_writer(self, table):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        assert cli._csv_text(table[0], table[1:]) == buf.getvalue()


class TestPointCloudFile:
    # One-coordinate points, a duplicate and one outside the unit window: the
    # file loads as the FinitePoints of its distinct values.
    CLOUD = [["5/7"], ["1/3"], ["-1/4"], ["1/3"], ["3/2"], ["0"], ["2/9"]]
    SELECTOR = "points:-1/4,0,2/9,1/3,5/7,3/2"

    @pytest.mark.parametrize(
        "command",
        [
            ["pores", "--cube", "unit:[0,1)", "--max-gen", "30"],
            ["ls-ratio", "--cubes", "dyadic:-2..1", "--s", "1/10"],
            ["porosity-check", "--cube", "unit:[0,1)", "--sigma", "1/2", "--gamma", "1/8"],
            ["ap-scan", "--cubes", "dyadic:-3..2", "--alpha", "1/3", "--p", "2"],
            ["ap-scan", "--cubes", "dyadic:-3..2", "--alpha", "3/2", "--p", "2"],
        ],
        ids=["pores", "ls-ratio", "porosity-check", "ap-scan-alpha-1/3", "ap-scan-alpha-3/2"],
    )
    def test_matches_points_selector(self, tmp_path, command):
        spec = tmp_path / "cloud.json"
        spec.write_text(json.dumps({"type": "points", "points": self.CLOUD}))
        name, *rest = command
        from_file = run_cli(name, "--set", str(spec), *rest)
        from_selector = run_cli(name, "--set", self.SELECTOR, *rest)
        assert from_file.stdout == from_selector.stdout
        assert from_file.stdout.count("\n") > 1

    @pytest.mark.parametrize(
        "given,selector",
        [
            ("points:0,1/3,0", "points:0,1/3"),
            ({"type": "points", "points": ["1/2", "1/3"]}, "points:1/3,1/2"),
        ],
        ids=["selector", "flat-file"],
    )
    def test_unsorted_points_load_sorted(self, tmp_path, given, selector):
        # An unsorted point list, with or without a duplicate, is the set of
        # its distinct values.
        if isinstance(given, dict):
            spec = tmp_path / "flat.json"
            spec.write_text(json.dumps(given))
            given = str(spec)
        from_given = run_cli("pores", "--set", given, "--cube", "unit:[0,1)")
        from_sorted = run_cli("pores", "--set", selector, "--cube", "unit:[0,1)")
        assert from_given.stdout == from_sorted.stdout
        assert from_given.stdout.count("\n") > 1


class TestExitCodes:
    def test_unknown_flag(self):
        proc = run_cli("--bogus", "fig1", check=False)
        assert proc.returncode == 1

    def test_unknown_subcommand(self):
        proc = run_cli("no-such-command", check=False)
        assert proc.returncode == 1

    def test_precondition_violation(self):
        proc = run_cli(
            "pores", "--set", "lattice", "--cube", "unit:[1/4,1/2)", check=False
        )
        assert proc.returncode == 2
        assert "precondition" in proc.stderr

    @pytest.mark.parametrize(
        "command", [["pores"], ["porosity-check", "--sigma", "1/2", "--gamma", "1/2"]]
    )
    def test_single_cube_command_given_a_family(self, command):
        proc = run_cli(
            *command, "--set", "lattice", "--cube", "dyadic:0..1", "--max-gen", "4",
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"precondition violated: {command[0]} needs exactly one cube" in proc.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--set", "point:abc"], "not a rational number: 'abc'"),
            (["--set", "generated:half_harmonic"], "cannot parse set spec 'generated:half_harmonic'"),
            (["--set", "generated:constant:1/2:x"], "not an integer: 'x'"),
            (["--cubes", "dyadic:x..2"], "not an integer: 'x'"),
            (["--set", "generated:half_harmonic:1/2:3"], "half_harmonic rule takes no c"),
            (["--alpha", "1/0"], "not a rational number: '1/0'"),
        ],
        ids=[
            "point-abc", "generated-no-level", "generated-level-x", "dyadic-range-x",
            "generated-half-harmonic-c", "alpha-1-over-0",
        ],
    )
    def test_malformed_ap_scan_value(self, args, message):
        given = {"--set": "point:0", "--cubes": "dyadic:0..2", "--alpha": "1/2", "--p": "2"}
        given.update(zip(args[::2], args[1::2]))
        proc = run_cli("ap-scan", *[x for kv in given.items() for x in kv], check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {message}")
        assert proc.stderr.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "cannot read set spec"),
            ('{"type": "points"', "cannot read set spec"),
            ('{"type": "points"}', "malformed set spec: KeyError: 'points'"),
            ('{"type": "cantor"}', "unknown set spec type 'cantor'"),
            (
                '{"type": "generated", "contraction": {"rule": "foo"}, "level": 3}',
                "unknown contraction rule 'foo'",
            ),
            (
                '{"type": "generated", "contraction": {"rule": "half_harmonic", "c": "1/2"}, "level": 3}',
                "half_harmonic rule takes no c",
            ),
        ],
        ids=["missing-file", "truncated-json", "no-points-key", "unknown-type", "unknown-rule", "half-harmonic-c"],
    )
    def test_spec_file_that_does_not_load(self, tmp_path, content, message):
        spec = tmp_path / "set.json"
        if content is not None:
            spec.write_text(content)
        proc = run_cli("pores", "--set", str(spec), "--cube", "unit:[0,1)", check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {message}")
        assert proc.stderr.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--set", "foo"], "cannot parse set spec 'foo'"),
            (["--cube", "bogus"], "cannot parse cube spec 'bogus'"),
            (["--cube", "unit:[1/2"], "cannot parse interval '[1/2'"),
        ],
        ids=["set-foo", "cube-bogus", "cube-open-interval"],
    )
    def test_unparsable_selector(self, args, message):
        given = {"--set": "lattice", "--cube": "unit:[0,1)"}
        given.update(zip(args[::2], args[1::2]))
        proc = run_cli("pores", *[x for kv in given.items() for x in kv], check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--cubes", "envelopes:0..2"], "envelope cubes need a generated set"),
            (["--cubes", "dyadic:3..2"], "empty range"),
            (["--set", "generated:half_harmonic:-1"], "level must be nonnegative"),
            (["--set", "generated:half_harmonic:3", "--cubes", "envelopes:-1..2"], "level must be nonnegative"),
        ],
        ids=["envelopes-on-lattice", "empty-range", "negative-level", "negative-envelope-level"],
    )
    def test_selector_outside_its_domain(self, args, message):
        given = {"--set": "lattice", "--cubes": "dyadic:0..2", "--alpha": "1/2", "--p": "2"}
        given.update(zip(args[::2], args[1::2]))
        proc = run_cli("ap-scan", *[x for kv in given.items() for x in kv], check=False)
        assert proc.returncode == 2
        assert proc.stderr == f"precondition violated: {message}\n"

    @pytest.mark.parametrize(
        "command", [["gen-set", "--level", "2"], ["prob-stats", "--levels", "0..2"]]
    )
    def test_half_harmonic_given_c(self, command):
        proc = run_cli(*command, "--rule", "half_harmonic", "--c", "1/2", check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: half_harmonic rule takes no c\n"

    def test_malformed_level_range(self):
        proc = run_cli("prob-stats", "--rule", "half_harmonic", "--levels", "a..3", check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: not an integer: 'a'\n"

    def test_divergence_out_without_t(self, tmp_path, capsys):
        # A report path for a scan that was not asked for is refused, not
        # ignored.
        code = cli.main([
            "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..2",
            "--out", str(tmp_path / "moments.csv"), "--divergence-out", str(tmp_path / "divergence.csv"),
        ])
        assert (code, *capsys.readouterr()) == (1, "", "error: --divergence-out needs --divergence-t\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("max_gen", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["pores", "--cube", "unit:[0,1)"],
            ["ls-ratio", "--cubes", "unit:[0,1)", "--s", "1/10"],
            ["ap-scan", "--cubes", "unit:[0,1)", "--alpha", "1/2", "--p", "2"],
            ["porosity-check", "--cube", "unit:[0,1)", "--sigma", "1/2", "--gamma", "1/2"],
        ],
        ids=lambda command: command[0],
    )
    def test_max_gen_below_one(self, capsys, command, max_gen):
        # Refused whether or not the window meets the set: point:5 misses it.
        code = cli.main([*command, "--set", "point:5", "--max-gen", max_gen])
        assert (code, *capsys.readouterr()) == (2, "", "precondition violated: max_gen must be at least 1\n")

    def test_cube_dimension_differs_from_point_cloud(self, tmp_path):
        spec = tmp_path / "cloud2d.json"
        spec.write_text(json.dumps({"type": "points", "points": [["1/3", "5"], ["3/4", "-2"]]}))
        proc = run_cli(
            "pores", "--set", str(spec), "--cube", "unit:[0,1)", "--max-gen", "4", check=False
        )
        assert proc.returncode == 2
        assert "dimension" in proc.stderr

    def test_pores_past_the_digit_limit(self):
        # 2^-14285 has a denominator of 4301 digits, more than the
        # interpreter prints; the check runs before the search.
        for max_gen in ("14285", "20000"):
            start = time.perf_counter()
            proc = run_cli("pores", "--set", "lattice", "--cube", "unit:[0,1)", "--max-gen", max_gen, check=False)
            assert time.perf_counter() - start < 1
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == (
                f"precondition violated: --max-gen {max_gen}: pore lengths would need more than 4300 digits, "
                "the interpreter's limit for printing an integer (sys.get_int_max_str_digits)\n"
            )

    @pytest.mark.parametrize(
        "args,what",
        [
            (["--set", "generated:constant:1/4:5000", "--cubes", "envelopes:4990..5000", "--alpha", "1/3"],
             "cube 0: its ends"),
            # E[X^(1/2)] and E[X^(-1/2)] are exact for c = 1/4; the product
            # first needs more than 4300 digits at level 2229.
            (["--set", "generated:constant:1/4:2229", "--cubes", "envelopes:2228..2229", "--alpha=-1/2"],
             "cube 1: the exact product"),
        ],
        ids=["cube-ends", "exact-product"],
    )
    def test_envelope_scan_past_the_digit_limit(self, args, what):
        proc = run_cli("ap-scan", *args, "--p", "2", check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"precondition violated: {what} would need more than 4300 digits, "
            "the interpreter's limit for printing an integer (sys.get_int_max_str_digits)\n"
        )

    def test_envelope_scan_refused_before_drawing_a_length(self, monkeypatch, capsys):
        # |Q_m| > 2^m >= 10^4300 from m = 14285 on, so nothing is drawn.
        def no_lengths(seq):
            raise AssertionError("envelope lengths drawn")

        monkeypatch.setattr(cli, "envelope_lengths", no_lengths)
        start = time.perf_counter()
        code = cli.main([
            "ap-scan", "--set", "generated:half_harmonic:30000", "--cubes", "envelopes:30000..30000",
            "--alpha", "1/3", "--p", "2",
        ])
        assert time.perf_counter() - start < 0.2
        assert (code, *capsys.readouterr()) == (
            2, "", f"precondition violated: envelope level 30000: the cube's ends would need more than 4300 digits, {DIGIT_LIMIT}"
        )

    @pytest.mark.parametrize(
        "levels,what",
        # 2^2126 < 10^640 <= 2^2127: level 2126 is drawn and refused by its
        # printed ends, level 2127 before any length is drawn.
        [("2126..2126", "cube 0: its ends"), ("0..2127", "envelope level 2127: the cube's ends")],
    )
    def test_envelope_level_bound_is_exact(self, capsys, levels, what):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = cli.main(["ap-scan", "--set", "generated:constant:1/2:3", "--cubes", f"envelopes:{levels}",
                             "--alpha", "1/3", "--p", "2"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, *capsys.readouterr()) == (
            2, "", f"precondition violated: {what} would need more than 640 digits, {DIGIT_LIMIT}"
        )

    def test_prob_stats_past_the_digit_limit(self, tmp_path, capsys):
        # At 640 digits the constant-1/2 product EX*EXinv = (27/25)^n first
        # overflows at level 448; neither report nor sidecar is written.
        def prob_stats(levels):
            return cli.main([
                "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", levels,
                "--out", str(tmp_path / "moments.csv"),
                "--divergence-t", "1/10", "--divergence-out", str(tmp_path / "divergence.csv"),
            ])

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            refused = prob_stats("443..448")
            _, err = capsys.readouterr()
            assert list(tmp_path.iterdir()) == []
            assert prob_stats("443..447") == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert (refused, err) == (
            2, f"precondition violated: --levels 443..448: the moment table would need more than 640 digits, {DIGIT_LIMIT}"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "divergence.csv", "divergence.csv.meta.json", "moments.csv", "moments.csv.meta.json"
        ]

    def test_prob_stats_refused_before_the_product_column(self, monkeypatch, capsys):
        # The half-harmonic moment pairs pass 4300 digits before level 6000,
        # so the level and moment cells refuse the table and no product is
        # formed.
        def no_products(seq):
            raise AssertionError("product column formed")

        monkeypatch.setattr(cli, "expectation_products", no_products)
        code = cli.main(["prob-stats", "--rule", "half_harmonic", "--levels", "0..6000"])
        assert (code, *capsys.readouterr()) == (
            2, "", f"precondition violated: --levels 0..6000: the moment table would need more than 4300 digits, {DIGIT_LIMIT}"
        )

    def test_prob_stats_refusal_draws_no_moment_past_the_first_long_row(self, monkeypatch, capsys):
        # Both moment streams are checked level by level as they are drawn,
        # so the refusal stops them at the first level with a moment cell of
        # more than 4300 digits, well before level 6000.
        seq, big = ContractionSequence.half_harmonic(), 10 ** sys.get_int_max_str_digits()
        rows = zip(moment_stream(seq, 1), moment_stream(seq, -1))
        first = next(level for level, (ex, ex_inv) in enumerate(rows) if max(*ex, *ex_inv) >= big)
        drawn = {}

        def counted(seq, theta):
            drawn[theta] = 0
            for entry in moment_stream(seq, theta):
                drawn[theta] += 1
                yield entry

        monkeypatch.setattr(cli, "moment_stream", counted)
        code = cli.main(["prob-stats", "--rule", "half_harmonic", "--levels", "0..6000"])
        assert (code, *capsys.readouterr()) == (
            2, "", f"precondition violated: --levels 0..6000: the moment table would need more than 4300 digits, {DIGIT_LIMIT}"
        )
        assert first < 6000
        assert sorted(drawn) == [-1, 1]
        assert max(drawn.values()) == first + 1  # the entries 0..first, none past it

    def test_prob_stats_builds_one_binomial_row_per_level(self, monkeypatch, tmp_path):
        # The binomial check and the divergence scan of a level share its
        # Bin(n, 1/5) row: 41 rows for levels 0..40, and both reports keep
        # their bytes.
        built = []

        def counted(n, q):
            built.append(n)
            return binomial_numerators(n, q)

        monkeypatch.setattr(cli, "binomial_numerators", counted)
        monkeypatch.setattr(porestats, "binomial_numerators", counted)
        const, div = tmp_path / "const.csv", tmp_path / "div.csv"
        code = cli.main([
            "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..40",
            "--out", str(const), "--divergence-t", "1/10", "--divergence-out", str(div),
        ])
        assert code == 0
        assert built == list(range(41))
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (const, div)] == [
            "89d40447fc46b60c2c2d83ed642fd6d93e0b133ea2bd2a737fa0da44bc75e674",
            "75c2088496833968c6359c00eaa9e86245fa3e2963bb0703a8adba2670b97127",
        ]

    @pytest.mark.parametrize("args,what", [
        (["ls-ratio", "--cubes", "envelopes:10000..10000", "--s", "1/10"], "cube 0: its ends"),
        (["porosity-check", "--cube", "envelopes:10000..10000", "--sigma", "1/2", "--gamma", "1/2"],
         "the cube's ends"),
    ], ids=["ls-ratio", "porosity-check"])
    def test_window_past_the_digit_limit(self, capsys, args, what):
        # |Q_10000| of the half-harmonic rule has a numerator of more than
        # 4300 digits, below the level the envelope range check refuses.
        code = cli.main([args[0], "--set", "generated:half_harmonic:8", *args[1:]])
        assert (code, *capsys.readouterr()) == (
            2, "", f"precondition violated: {what} would need more than 4300 digits, {DIGIT_LIMIT}"
        )

    def test_divergence_scan_needs_constant_half(self, tmp_path, capsys):
        # The scan follows the constant-1/2 law; any other rule is refused
        # before either report is written.
        for rule in (["half_harmonic"], ["constant", "--c", "1/3"]):
            code = cli.main([
                "prob-stats", "--rule", *rule, "--levels", "0..2", "--out", str(tmp_path / "moments.csv"),
                "--divergence-t", "1/10", "--divergence-out", str(tmp_path / "divergence.csv"),
            ])
            assert (code, *capsys.readouterr()) == (
                2, "", "precondition violated: --divergence-t scans the constant-1/2 law only (--rule constant --c 1/2)\n"
            )
        assert list(tmp_path.iterdir()) == []

    def test_divergent_product_past_the_float_range(self, tmp_path, capsys):
        # (2^-1000)^(-4/3) lies past the largest float: refused before the
        # report is written.  At max-gen 700 the bound still prints.
        args = ["ap-scan", "--set", "point:0", "--alpha", "7/3", "--p", "2", "--cubes", "unit:[0,1)"]
        out = tmp_path / "ap.csv"
        code = cli.main([*args, "--max-gen", "1000", "--out", str(out)])
        assert (code, *capsys.readouterr()) == (
            2, "", "precondition violated: the partial product to max_gen 1000 has a term outside the float range\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert cli.main([*args, "--max-gen", "700"]) == 0
        assert capsys.readouterr() == (
            'cube_id,alpha,p,product_lo,product_hi,case_tag\n"0:[0,1)",7/3,2/1,2.0583148365300765e+280,inf,III\n', ""
        )

    def test_warning_is_one_line(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "poremetrics", "ls-ratio", "--set", "lattice",
             "--cubes", "unit:[0,1)", "--s", "1/2"],
            capture_output=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0
        assert proc.stderr == b"warning: s is at or above 1/(1+2^n); ratios are exploratory only\n"
        assert proc.stdout == b'cube_id,s,L_s,S_s,ratio,depth_ok\n"0:[0,1)",1/2,1/2,1/4,2/1,true\n'

    def test_insufficient_depth(self):
        # One stderr line: the message, then the mass the depth left undecided.
        proc = run_cli(
            "porosity-check", "--set", "lattice", "--cube", "unit:[0,1)",
            "--sigma", "1/2", "--gamma", "1/1024", "--max-gen", "5",
            check=False,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "insufficient depth: gamma threshold reaches below the enumerated resolution; tail mass 1/32\n"
        )


    def test_window_missing_the_set(self):
        # One stderr line that says what to change.
        proc = run_cli("pores", "--set", "point:5", "--cube", "unit:[0,1)", check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "precondition violated: window does not meet the set; choose a window that meets the set\n"
        )


class TestParserReuse:
    """``cli.main`` builds its parser once per process and keeps no state
    between calls."""

    def test_one_build_for_many_calls(self, monkeypatch, capsys):
        progs = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        lines = [
            ["gen-set", "--rule", "constant", "--c", "1/2", "--level", "1"],
            ["pores", "--set", "lattice", "--cube", "unit:[0,1)", "--max-gen", "4"],
            ["ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10"],
            ["ap-scan", "--set", "point:0", "--alpha", "1/2", "--p", "2", "--cubes", "dyadic:0..1"],
            ["porosity-check", "--set", "lattice", "--cube", "unit:[0,1)", "--sigma", "1/2", "--gamma", "1/2"],
            ["prob-stats", "--rule", "half_harmonic", "--levels", "0..3"],
            ["pores", "--set", "lattice"],
        ]
        codes = [cli.main(lines[i % len(lines)]) for i in range(20)]
        capsys.readouterr()
        assert codes == [0, 0, 0, 0, 0, 0, 1] * 2 + [0, 0, 0, 0, 0, 0]
        # The root parser and its seven subcommand parsers, once each.
        assert progs == ["pore-metrics"] + [
            f"pore-metrics {name}"
            for name in ("gen-set", "fig1", "pores", "ls-ratio", "ap-scan", "porosity-check", "prob-stats")
        ]

    def test_no_state_carried_between_calls(self, tmp_path, capsys):
        out = tmp_path / "ap.csv"
        sequence = [
            ["ap-scan", "--set", "point:0", "--alpha", "1/2", "--p", "2", "--cubes", "dyadic:-2..2", "--out", str(out)],
            ["ap-scan", "--set", "point:0", "--alpha", "1/0", "--p", "2", "--cubes", "dyadic:0..1"],
            ["pores", "--set", "lattice"],
            ["ap-scan", "--set", "lattice", "--cubes", "envelopes:0..1", "--alpha", "1/3", "--p", "2"],
            ["ap-scan", "--help"],
            ["--help"],
        ]

        def run(order):
            results = {}
            for i in order:
                code = cli.main(sequence[i])
                stdout, stderr = capsys.readouterr()
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                results[i] = (code, stdout.encode(), stderr.encode(), written)
            return results

        cli.build_parser.cache_clear()
        forward = run(range(len(sequence)))
        backward = run(reversed(range(len(sequence))))
        assert [forward[i][0] for i in range(len(sequence))] == [0, 1, 1, 2, 0, 0]
        assert forward[0][3] is not None and forward[4][1].startswith(b"usage: pore-metrics ap-scan")
        assert forward == backward


class TestScriptDrivers:
    @pytest.mark.parametrize("script", ["run_reference_sets.py", "run_weight_scans.py"])
    def test_stops_at_the_first_failing_line(self, script, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys, "path", list(sys.path))  # the driver prepends src/
        spec = importlib.util.spec_from_file_location(script.removesuffix(".py"), REPO / "scripts" / script)
        driver = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(driver)
        calls = []

        def fake_cli(argv):
            calls.append(argv)
            return 0 if len(calls) == 1 else 3

        monkeypatch.setattr(driver, "cli", fake_cli)
        assert driver.run(tmp_path) == 3
        assert calls == driver.command_lines(tmp_path)[:2]
        assert "wrote" not in capsys.readouterr().out
