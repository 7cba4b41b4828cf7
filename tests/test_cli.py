"""Subcommand behavior: exits, outputs, determinism, config plumbing."""

import csv
import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

import lerw.cli
from lerw.chain import build_chain, chain_to_text, dense_chain
from lerw.cli import _buggy_ple_step, main
from lerw.exactlaw import enumerate_erasure_law, law_from_text, tv_distance
from lerw.fractal import corner_indices, gasket_graph, standard_carpet, template_to_text
from lerw.limits import WalkConfig, coupled_refinement_distance, resistance_scaling, set_law_from_text


def read_json(path):
    return json.loads(path.read_text())


# Every subcommand's config keys and defaults, as one table held them
# before the defaults moved onto the flag declarations: a dropped,
# renamed or retyped key fails TestConfigPlumbing.
CONFIG_SCHEMA = {
    "verify-theorem1": {
        "seed": None, "chain": None, "chains": 0, "states_max": 4, "max_cases": 500,
        "tol": 1e-9, "length_cap": 12, "out": None, "inject_ple_bug": False,
    },
    "verify-green": {"seed": None, "identities": 200, "permutations": 30, "out": None},
    "graph": {"gasket": False, "carpet": None, "m": None, "out": None},
    "resist": {
        "gasket": False, "carpet": None, "m": None, "mode": "double", "pair": "corners",
        "band": None, "out": None,
    },
    "converge": {
        "what": "kernel", "gasket": False, "carpet": None, "m": None, "m_primes": None,
        "corner": 0, "pairs": None, "start": None, "to": None, "n": 1000, "seed": None,
        "workers": 1, "assert_decreasing": False, "out": None,
    },
    "simulate": {
        "gasket": False, "carpet": None, "m": None, "start": None, "to": None, "n": 1000,
        "pipeline": "le", "seed": None, "workers": 1, "step_cap": 10_000_000, "out": None,
    },
    "exact-law": {
        "chain": None, "start": None, "absorbing": None, "pipeline": "le", "length_cap": 40,
        "tol": None, "out": None,
    },
}


class TestGraph:
    def test_gasket_level2_export(self, tmp_path):
        assert main(["graph", "--gasket", "-m", "2", "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "graph.json")
        assert summary["results"]["vertices"] == 15
        assert summary["results"]["edges"] == 27
        assert len((tmp_path / "graph_vertices.txt").read_text().splitlines()) == 15
        assert summary["pass"] is True

    def test_carpet_template_file(self, tmp_path):
        tfile = tmp_path / "tpl.txt"
        tfile.write_text(template_to_text(standard_carpet()))
        out = tmp_path / "o"
        assert main(["graph", "--carpet", str(tfile), "-m", "1", "--out", str(out)]) == 0
        assert read_json(out / "graph.json")["results"]["vertices"] == 16

    def test_drawn_template_names_its_first_row(self, tmp_path, capsys):
        # "#" starts a comment, so a drawn grid keeps the side and no cell
        tfile = tmp_path / "grid.txt"
        tfile.write_text("3\n###\n#.#\n###\n")
        out = tmp_path / "o"
        assert main(["graph", "--carpet", str(tfile), "-m", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid carpet template: cell count 0 outside [8, 8]" in err
        assert "line 2 '###' is a comment: a template lists each kept cell as its column and row, 'i j'" in err
        assert not out.exists()
        # a valid template keeps its message-free comments
        tfile.write_text("####\n" + template_to_text(standard_carpet()))
        assert main(["graph", "--carpet", str(tfile), "-m", "1", "--out", str(out)]) == 0

    def test_requires_exactly_one_family(self, tmp_path, capsys):
        assert main(["graph", "-m", "1", "--out", str(tmp_path)]) == 2
        assert "gasket" in capsys.readouterr().err


class TestResist:
    def test_gasket_exact_ratios(self, tmp_path):
        code = main(
            ["resist", "--gasket", "-m", "0..3", "--mode", "rational",
             "--band", "0.001", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = [
            ln.split(",") for ln in (tmp_path / "resist_ratios.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("pair")
        ]
        assert rows and all(r[3] == "5/3" for r in rows)
        summary = read_json(tmp_path / "resist.json")
        assert summary["checks"]["ratio_band"] is True
        assert summary["results"]["gamma_hat"] == pytest.approx(0.7369655941662062)
        # exact values are written as fraction strings
        assert summary["results"]["ratio_differences"] == {p: ["0", "0"] for p in ("0-1", "0-2", "1-2")}
        assert summary["results"]["aitken_limit"] == {p: "5/3" for p in ("0-1", "0-2", "1-2")}

    def test_ratio_extrapolation_in_summary(self, tmp_path):
        # rational: exact strings equal to the library's Fractions;
        # double: floats, and null with fewer than three ratios
        rat, dbl = tmp_path / "rat", tmp_path / "dbl"
        assert main(
            ["resist", "--carpet", "standard", "-m", "0..3", "--mode", "rational",
             "--pair", "0-3", "--out", str(rat)]
        ) == 0
        assert main(["resist", "--carpet", "standard", "-m", "1..3", "--out", str(dbl)]) == 0
        res = resistance_scaling("carpet", range(4), template=standard_carpet(), mode="rational", pairs=[(0, 3)])
        got = read_json(rat / "resist.json")["results"]
        assert [Fraction(d) for d in got["ratio_differences"]["0-3"]] == res["ratio_differences"][0, 3]
        assert Fraction(got["aitken_limit"]["0-3"]) == res["aitken_limit"][0, 3]
        got = read_json(dbl / "resist.json")["results"]
        assert set(got["aitken_limit"]) == set(got["ratio_spread"]) and len(got["aitken_limit"]) == 6
        assert all(a is None for a in got["aitken_limit"].values())
        assert all(len(ds) == 1 and isinstance(ds[0], float) for ds in got["ratio_differences"].values())

    def test_config_level_list_is_sorted_and_deduplicated(self, tmp_path, capsys):
        # unsorted, [3, 1, 2] would give ratio rows 3->1 and 1->2 and "levels 3..2"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": [3, 1, 2, 1]}))
        out = tmp_path / "out"
        code = main(
            ["resist", "--gasket", "--mode", "rational", "--config", str(cfgfile),
             "--out", str(out)]
        )
        assert code == 0
        assert "resist: gasket levels 1..3 " in capsys.readouterr().out
        assert read_json(out / "resist.json")["results"]["levels"] == [1, 2, 3]
        rows = list(csv.reader((out / "resist_ratios.csv").read_text().splitlines()[2:]))
        assert [(lo, hi, ratio) for _, lo, hi, ratio in rows] == [("1", "2", "5/3"), ("2", "3", "5/3")] * 3

    def test_carpet_band_violation_exits_one(self, tmp_path):
        code = main(
            ["resist", "--carpet", "standard", "-m", "1..3",
             "--band", "0.05", "--out", str(tmp_path)]
        )
        assert code == 1
        summary = read_json(tmp_path / "resist.json")
        assert summary["pass"] is False
        ce = read_json(tmp_path / "counterexample.json")
        assert ce["check"] == "ratio_band"
        assert ce["spread"] > 0.05
        assert len(ce["ratios"]) == 2

    def test_no_band_no_check(self, tmp_path):
        code = main(
            ["resist", "--carpet", "standard", "-m", "1..2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert read_json(tmp_path / "resist.json")["checks"] == {}

    def test_double_cells_read_back_as_floats(self, tmp_path):
        # double-mode solves return numpy scalars; their cells must still
        # be plain numbers equal to the library values
        assert main(
            ["resist", "--carpet", "standard", "-m", "1..2", "--out", str(tmp_path)]
        ) == 0
        res = resistance_scaling("carpet", [1, 2], template=standard_carpet())
        want = {(r["level"], "%d-%d" % r["pair"]): r["resistance"] for r in res["rows"]}
        rows = list(csv.reader((tmp_path / "resist.csv").read_text().splitlines()[2:]))
        assert len(rows) == len(want)
        for level, pair, cell, _ in rows:
            assert float(cell) == want[int(level), pair]
        ratios = list(csv.reader((tmp_path / "resist_ratios.csv").read_text().splitlines()[2:]))
        assert len(ratios) == len(res["ratios"])
        for pair, _, _, cell in ratios:
            i, j = map(int, pair.split("-"))
            assert float(cell) == res["ratios"][i, j][0]

    def test_carpet_level_six_from_glued_traces(self, tmp_path):
        # level 6 has 330,720 vertices and is read off glued boundary
        # traces; the values were computed independently
        assert main(["resist", "--carpet", "standard", "-m", "5..6", "--out", str(tmp_path)]) == 0
        rows = csv.reader((tmp_path / "resist.csv").read_text().splitlines()[2:])
        got = {(int(level), pair): float(cell) for level, pair, cell, _ in rows}
        for pair, want in (("0-1", 12.638850840581), ("0-3", 13.434463701405)):
            assert abs(got[6, pair] - want) <= 1e-11 * want

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("0-7", "corner index 7 is out of range: the carpet has 4 corners, 0..3"),
            ("1-1", "probe pair 1-1 needs two distinct corners"),
        ],
    )
    def test_bad_probe_pair_exits_two(self, tmp_path, capsys, pair, message):
        code = main(
            ["resist", "--carpet", "standard", "-m", "1..2", "--pair", pair,
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_repeated_probe_pair_exits_two(self, tmp_path, capsys):
        # each row of resist.csv would be written twice
        code = main(
            ["resist", "--gasket", "-m", "1..2", "--mode", "rational", "--pair", "0-1,0-1",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "probe pair 0-1 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "resist.csv").exists()


class TestConverge:
    @pytest.mark.parametrize(
        "family, corner, message",
        [
            (["--carpet", "standard"], "9", "corner index 9 is out of range: the carpet has 4 corners"),
            (["--gasket"], "3", "corner index 3 is out of range: the gasket has 3 corners"),
        ],
        ids=["carpet", "gasket"],
    )
    def test_bad_killing_corner_exits_two(self, tmp_path, capsys, family, corner, message):
        code = main(
            ["converge", "--what", "kernel", *family, "-m", "1", "--m-primes", "1..2",
             "--corner", corner, "--out", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_kernel_decreasing(self, tmp_path):
        code = main(
            ["converge", "--what", "kernel", "--carpet", "standard", "-m", "1",
             "--m-primes", "1..3", "--assert-decreasing", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "converge.json")
        gaps = summary["results"]["max_diffs"]
        assert len(gaps) == 2 and gaps[1] < gaps[0]

    def test_coupled_decreasing(self, tmp_path):
        code = main(
            ["converge", "--what", "coupled", "--gasket", "--pairs", "1:2,2:3",
             "--from", "q1", "--to", "q2", "-n", "300", "--seed", "31",
             "--assert-decreasing", "--out", str(tmp_path)]
        )
        assert code == 0
        table = (tmp_path / "converge.csv").read_text().splitlines()
        assert table[0].startswith("# config ")
        assert len(table) == 4  # comment, header, two level pairs

    def test_coupled_counters(self, tmp_path):
        argv = ["converge", "--what", "coupled", "--gasket", "--pairs", "1:2,2:3",
                "--from", "q1", "--to", "q2", "-n", "200", "--seed", "31"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        stats = read_json(tmp_path / "converge.json")["stats"]
        assert [(s["stage"], s["level"]) for s in stats] == [(1, 2), (2, 3)]
        for s in stats:
            g = gasket_graph(s["level"])
            c = corner_indices(g)
            direct = coupled_refinement_distance(WalkConfig(g, 31), s["stage"], c[0], [c[1]], 200)
            assert s == {"stage": s["stage"], "level": s["level"], **direct["stats"]}
            assert s["walk_steps"] >= s["stage_points"] - 200 >= s["final_points"] - 200 > 0
            assert 0 < s["walk_steps_max"] <= s["walk_steps"]

    @pytest.mark.parametrize(
        "pairs, n, message",
        [
            ("3:4,5:4", "300", "level pair 5:4 needs 0 <= stage <= level"),
            ("1:2,0:-1", "300", "level pair 0:-1 needs 0 <= stage <= level"),
            ("1:2,1:2", "300", "level pair 1:2 is repeated"),
            ("3:4", "0", "num_samples must be positive, got -n 0"),
        ],
    )
    def test_coupled_request_checked_before_any_graph(self, tmp_path, capsys, monkeypatch,
                                                      pairs, n, message):
        # each used to fail (or, repeated, run twice) only after sampling
        # the pairs before it, leaving an output directory behind
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(lerw.cli, "_family_graph", no_graph)
        out = tmp_path / "out"
        code = main(
            ["converge", "--what", "coupled", "--carpet", "standard", "--pairs", pairs,
             "--from", "q1", "--to", "q4", "-n", n, "--seed", "3", "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--what", "coupled", "--gasket", "--pairs", "1:2", "--from", "q1", "--to", "q2",
              "-n", "50", "--seed", "3"], "it needs at least two, got 1"),
            (["--what", "kernel", "--gasket", "-m", "1", "--m-primes", "2"],
             "it needs at least two, got 0"),
            (["--what", "kernel", "--gasket", "-m", "1", "--m-primes", "1..2"],
             "it needs at least two, got 1"),
        ],
        ids=["one-pair", "one-level", "two-levels"],
    )
    def test_vacuous_trend_exits_two(self, tmp_path, capsys, argv, message):
        # fewer than two points printed PASS with nothing compared
        out = tmp_path / "out"
        code = main(["converge", *argv, "--assert-decreasing", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_what_exits_two(self, tmp_path, capsys):
        assert main(["converge", "--what", "nope", "--out", str(tmp_path)]) == 2
        for n in ("0", "-3"):
            code = main(
                ["converge", "--what", "coupled", "--gasket", "--pairs", "1:2",
                 "--from", "q1", "--to", "q2", "-n", n, "--seed", "3", "--out", str(tmp_path)]
            )
            assert code == 2
            assert "num_samples must be positive" in capsys.readouterr().err


class TestSimulate:
    def test_identical_bytes_across_worker_counts(self, tmp_path, capsys):
        outs = []
        for w, name in ((1, "a"), (8, "b")):
            out = tmp_path / name
            code = main(
                ["simulate", "--gasket", "-m", "2", "--from", "q1", "--to", "q2,q3",
                 "-n", "800", "--pipeline", "le", "--seed", "99",
                 "--workers", str(w), "--out", str(out)]
            )
            assert code == 0
            outs.append(
                (
                    (out / "simulate_law.txt").read_bytes(),
                    (out / "simulate.json").read_bytes(),
                    capsys.readouterr().out,
                )
            )
        assert outs[0] == outs[1]

    def test_law_dump_parses_back(self, tmp_path):
        code = main(
            ["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q2",
             "-n", "200", "--pipeline", "v0,v1", "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == 0
        law = set_law_from_text((tmp_path / "simulate_law.txt").read_text())
        assert law.total == 200 and law.kind == "gasket"

    def test_auto_seed_is_announced_and_recorded(self, tmp_path, capsys):
        code = main(
            ["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q2",
             "-n", "50", "--out", str(tmp_path)]
        )
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("seed: ")
        summary = read_json(tmp_path / "simulate.json")
        assert summary["seed"] == int(line.split()[1])
        assert summary["config"]["seed"] == summary["seed"]

    def test_unreachable_target_exits_two(self, tmp_path, capsys):
        code = main(
            ["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q1",
             "-n", "10", "--out", str(tmp_path)]
        )
        assert code == 2
        for n in ("0", "-3"):
            code = main(
                ["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q2",
                 "-n", n, "--seed", "3", "--out", str(tmp_path)]
            )
            assert code == 2
            assert "num_samples must be positive" in capsys.readouterr().err

    def test_unnested_pipeline_exits_two(self, tmp_path, capsys):
        # the same rule as exact-law's: each stage contains the one before
        code = main(
            ["simulate", "--gasket", "-m", "2", "--from", "q1", "--to", "q2",
             "-n", "10", "--pipeline", "v2,v0", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "nested" in capsys.readouterr().err
        code = main(["exact-law", "--pipeline", "a,b,c,d;a,c", "--out", str(tmp_path)])
        assert code == 2
        assert "nested" in capsys.readouterr().err


class TestExactLaw:
    def test_non_finite_chain_exits_two(self, tmp_path, capsys):
        # a NaN entry once passed validation and gave a 2-atom "law" and PASS
        chain_file = tmp_path / "chain.txt"
        chain_file.write_text("a b c\nnan 0.5 0.5\n0.25 0.25 0.5\n0.0 0.0 1.0\n")
        code = main(
            ["exact-law", "--chain", str(chain_file), "--absorbing", "c", "--length-cap", "5",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "row 'a' has a non-finite entry" in capsys.readouterr().err
        assert not (tmp_path / "exact_law.txt").exists()

    def test_bundled_chain_law(self, tmp_path):
        code = main(["exact-law", "--tol", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        law = law_from_text((tmp_path / "exact_law.txt").read_text())
        assert law.tail_bound <= Fraction(1, 10**9)
        assert len(law.atoms) == 5
        assert law.mode == "rational"

    def test_stepped_route_stops_at_the_tower_guard(self, tmp_path, capsys, monkeypatch):
        # a last stage retaining no transient state keeps every path, so
        # the stepped route's towers double with each step; it used to run
        # until the process ran out of memory
        monkeypatch.setattr(lerw.exactlaw, "TOWER_GUARD", 20_000)
        chain_file = tmp_path / "chain.txt"
        chain_file.write_text("a b c\n9/10 1/20 1/20\n1/20 9/10 1/20\n0 0 1\n")
        out = tmp_path / "out"
        code = main(
            ["exact-law", "--chain", str(chain_file), "--pipeline", "c", "--tol", "0.01",
             "--out", str(out)]
        )
        assert code == 2
        assert "tower chain exceeds 20000 towers" in capsys.readouterr().err
        assert not out.exists()

    def test_stage_pipeline(self, tmp_path):
        code = main(
            ["exact-law", "--pipeline", "a,c;a,b,c,d", "--length-cap", "20",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "exact_law.json")
        assert summary["results"]["atoms"] >= 5

    def test_unknown_start_exits_two(self, tmp_path):
        assert main(["exact-law", "--start", "zz", "--out", str(tmp_path)]) == 2


class TestVerifyTheorem1:
    def test_bundled_chain_passes(self, tmp_path):
        code = main(
            ["verify-theorem1", "--seed", "3", "--max-cases", "60", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "verify_theorem1.json")
        assert summary["pass"] is True
        assert summary["results"]["cases_checked"] == 60
        assert summary["results"]["worst_tv_minus_bound"] <= 0

    def test_double_chain_file_passes(self, tmp_path):
        # a decimal chain file is a double-mode chain; its LE and pipeline
        # laws come from different tower chains yet must agree bit for bit
        chain_file = tmp_path / "chain.txt"
        chain_file.write_text(chain_to_text(dense_chain(Random(3), 5).as_double()))
        code = main(
            ["verify-theorem1", "--chain", str(chain_file), "--seed", "3",
             "--max-cases", "80", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "verify_theorem1.json")
        assert summary["results"]["cases_checked"] == 80
        assert summary["results"]["worst_tv_minus_bound"] == 0

    def test_fuzzed_chains_pass(self, tmp_path):
        code = main(
            ["verify-theorem1", "--seed", "5", "--chains", "2", "--max-cases", "30",
             "--out", str(tmp_path)]
        )
        assert code == 0

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_non_positive_max_cases_exits_two(self, tmp_path, capsys, cases):
        # 0 used to pass vacuously and -1 to drop one case through cases[:-1]
        code = main(["verify-theorem1", "--seed", "3", "--max-cases", cases, "--out", str(tmp_path)])
        assert code == 2
        assert f"--max-cases must be at least 1, got {cases}" in capsys.readouterr().err
        assert not (tmp_path / "verify_theorem1.json").exists()

    def test_negative_chain_count_exits_two(self, tmp_path, capsys):
        # -2 would check the bundled chain without a word
        out = tmp_path / "out"
        code = main(["verify-theorem1", "--chains", "-2", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "--chains must not be negative, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_file_with_fuzzed_chains_exits_two(self, tmp_path, capsys, monkeypatch):
        # the file's chain alone was checked, and the run passed
        chain_file = tmp_path / "chain.txt"
        chain_file.write_text(chain_to_text(lerw.cli.bundled_chain()))
        argv = ["verify-theorem1", "--chain", str(chain_file), "--seed", "1", "--max-cases", "5"]
        assert main([*argv, "--chains", "0", "--out", str(tmp_path / "zero")]) == 0

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain was loaded")

        monkeypatch.setattr(lerw.cli, "_load_chain", no_chain)
        out = tmp_path / "out"
        assert main([*argv, "--chains", "5", "--out", str(out)]) == 2
        assert "--chain and --chains exclude each other" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states_max", ["2", "0", "6"])
    def test_states_max_outside_range_exits_two(self, tmp_path, capsys, states_max):
        code = main(
            ["verify-theorem1", "--seed", "3", "--chains", "2", "--states-max", states_max,
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert f"--states-max must lie in 3..5 (fuzz chain sizes), got {states_max}" in (
            capsys.readouterr().err
        )

    def test_injected_bug_is_located(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"inject_ple_bug": True, "seed": 3, "max_cases": 20}))
        code = main(["verify-theorem1", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 1
        ce = read_json(tmp_path / "counterexample.json")
        assert ce["check"] == "tv_within_tail_bounds"
        # the counterexample locates the failing instance completely
        assert ce["start"] == "a" and ce["absorbing"] == ["d"]
        assert ce["pipeline"][0] == ["a", "b"]
        assert Fraction(ce["tv_distance"]) > Fraction(ce["tail_bound_sum"])
        assert read_json(tmp_path / "verify_theorem1.json")["pass"] is False


    def test_injected_bug_flag_matches_config_route(self, tmp_path):
        flag, cfg = tmp_path / "flag", tmp_path / "cfg"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"inject_ple_bug": True, "seed": 3, "max_cases": 20}))
        assert main(["verify-theorem1", "--config", str(cfgfile), "--out", str(cfg)]) == 1
        code = main(
            ["verify-theorem1", "--inject-ple-bug", "--seed", "3", "--max-cases", "20",
             "--out", str(flag)]
        )
        assert code == 1
        assert (flag / "counterexample.json").read_bytes() == (cfg / "counterexample.json").read_bytes()

    def test_injected_counterexample_reproduces(self, tmp_path):
        # the located instance, rebuilt from the file alone, splits the same
        # way when the broken step is fed every move, absorbing ones included
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"inject_ple_bug": True, "seed": 4, "max_cases": 5}))
        assert main(["verify-theorem1", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        ce = read_json(tmp_path / "counterexample.json")
        chain = build_chain(ce["states"], ce["kernel"])
        a = frozenset(ce["absorbing"])
        pipe = [frozenset(v) for v in ce["pipeline"]]
        le = enumerate_erasure_law(chain, ce["start"], a, "LE", length_cap=12)
        bad = enumerate_erasure_law(chain, ce["start"], a, pipe, length_cap=12, step_fn=_buggy_ple_step)
        assert str(tv_distance(le, bad)) == ce["tv_distance"]
        assert str(le.tail_bound + bad.tail_bound) == ce["tail_bound_sum"]


class TestVerifyGreen:
    def test_passes(self, tmp_path):
        code = main(
            ["verify-green", "--seed", "5", "--identities", "40",
             "--permutations", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "verify_green.json")
        assert summary["checks"] == {
            "green_identity": True,
            "product_permutation_invariance": True,
        }

    @pytest.mark.parametrize(
        "identities, permutations, message",
        [
            ("-3", "0", "--identities must not be negative, got -3"),
            ("5", "-1", "--permutations must not be negative, got -1"),
            ("0", "0", "--identities and --permutations are both 0: nothing to check"),
        ],
    )
    def test_vacuous_counts_exit_two(self, tmp_path, capsys, identities, permutations, message):
        # each would pass with no instance checked
        out = tmp_path / "out"
        code = main(
            ["verify-green", "--identities", identities, "--permutations", permutations,
             "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_zero_count_still_runs(self, tmp_path):
        code = main(
            ["verify-green", "--identities", "0", "--permutations", "2", "--seed", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert read_json(tmp_path / "verify_green.json")["results"]["identity_instances"] == 0


class TestConfigPlumbing:
    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"identities": 10, "permutations": 5, "seed": 1}))
        code = main(
            ["verify-green", "--config", str(cfgfile), "--identities", "4",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_json(tmp_path / "verify_green.json")
        assert summary["config"]["identities"] == 4
        assert summary["config"]["permutations"] == 5

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"identitees": 10}))
        code = main(["verify-green", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 2
        assert "identitees" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{nope")
        assert main(["verify-green", "--config", str(cfgfile)]) == 2

    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LERW_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["graph", "--gasket", "-m", "0"]) == 0
        assert (tmp_path / "envout" / "graph.json").exists()

    def test_defaults_match_the_schema(self):
        parser = lerw.cli._build_parser()
        recorded = {name: parser.parse_args([name]).defaults for name in CONFIG_SCHEMA}

        def typed(table):
            return {n: {k: (type(v), v) for k, v in keys.items()} for n, keys in table.items()}

        assert typed(recorded) == typed(CONFIG_SCHEMA)
        assert sum(map(len, recorded.values())) == 56
        assert CONFIG_SCHEMA["simulate"]["step_cap"] == lerw.cli.STEP_CAP

    def test_config_hash_is_pinned(self, tmp_path):
        assert main(["verify-green", "--seed", "1", "--identities", "1", "--permutations", "1",
                     "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "verify_green.json")["config_hash"] == "bc4dd489d2d3875b"

    def test_null_in_config_file_clears_a_default(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tol": None, "seed": 5, "max_cases": 5}))
        out = tmp_path / "out"
        assert main(["verify-theorem1", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert read_json(out / "verify_theorem1.json")["config"]["tol"] is None

    def test_workers_excluded_from_config_hash(self, tmp_path):
        hashes = []
        for w, name in ((1, "a"), (8, "b")):
            out = tmp_path / name
            main(
                ["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q2",
                 "-n", "20", "--seed", "4", "--workers", str(w), "--out", str(out)]
            )
            summary = read_json(out / "simulate.json")
            hashes.append(summary["config_hash"])
            assert "workers" not in summary["config"]
        assert hashes[0] == hashes[1]


class TestRefusedRunsLeaveNoOutput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["graph", "--gasket", "-m", "-1"], "level must be >= 0"),
            (["resist", "--gasket", "-m", "1..2", "--pair", "0-0"],
             "probe pair 0-0 needs two distinct corners"),
            (["converge", "--what", "kernel", "--gasket", "-m", "2", "--m-primes", "1..3"],
             "need levels m' >= m"),
            (["converge", "--what", "coupled", "--gasket", "--pairs", "1:2", "--from", "q1",
              "--to", "q1", "-n", "10", "--seed", "3"], "target set not containing the start"),
            (["simulate", "--gasket", "-m", "1", "--from", "q1", "--to", "q1", "-n", "10",
              "--seed", "3"], "target set not containing the start"),
            (["exact-law", "--start", "zz"], "unknown start state"),
            (["verify-theorem1", "--chain", "GARBAGE"], "bad chain file"),
            (["verify-green", "--identities", "0", "--permutations", "0"], "nothing to check"),
        ],
        ids=["graph", "resist", "converge-kernel", "converge-coupled", "simulate", "exact-law",
             "verify-theorem1", "verify-green"],
    )
    def test_exit_two_and_no_out_directory(self, tmp_path, capsys, argv, message):
        # every subcommand but verify-green used to make --out before the
        # refusal, leaving an empty directory behind
        argv = [str(tmp_path / "garbage.txt") if a == "GARBAGE" else a for a in argv]
        (tmp_path / "garbage.txt").write_text("a b\nnot a kernel\n")
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorem1", "--inject-ple-bug", "--length-cap", "0"],
            ["verify-theorem1", "--length-cap", "-3"],
            ["exact-law", "--length-cap", "0"],
            ["exact-law", "--length-cap", "-3"],
            ["simulate", "--gasket", "-m", "2", "--to", "q2", "-n", "3", "--step-cap", "-5"],
            ["simulate", "--gasket", "-m", "2", "--to", "q2", "-n", "3", "--step-cap", "0"],
        ],
        ids=["verify-theorem1-0", "verify-theorem1-neg", "exact-law-0", "exact-law-neg",
             "simulate-neg", "simulate-0"],
    )
    def test_cap_below_one_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        # a length cap of 0 made every capped law empty with tail 1, so
        # verify-theorem1 passed even its negative control and exact-law
        # printed PASS on 0 atoms; a negative step cap failed every walk
        def no_input(*args, **kwargs):
            raise AssertionError("a chain or graph was built before the cap was checked")

        monkeypatch.setattr(lerw.cli, "_load_chain", no_input)
        monkeypatch.setattr(lerw.cli, "_family_graph", no_input)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        flag, value = argv[-2:]
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestIntegerKeys:
    # argv without the key, the key, its bad config-file value
    BAD = [
        (["exact-law"], "length_cap", None),
        (["simulate", "--gasket", "-m", "1", "--to", "q2", "--seed", "1"], "n", 2.5),
        (["simulate", "--gasket", "-m", "1", "--to", "q2", "--seed", "1"], "step_cap", "1e3"),
        (["converge", "--gasket", "-m", "1", "--m-primes", "1..2"], "corner", "x"),
        (["converge", "--what", "coupled", "--gasket", "--pairs", "1:2", "--seed", "1"], "n", True),
        (["verify-theorem1", "--seed", "1"], "chains", "five"),
        (["verify-theorem1", "--seed", "1", "--chains", "2"], "states_max", 4.5),
        (["verify-theorem1", "--seed", "1"], "max_cases", [10]),
        (["verify-theorem1", "--seed", "1"], "length_cap", False),
        (["verify-green", "--seed", "1"], "identities", {"n": 1}),
        (["verify-green", "--seed", "1"], "permutations", None),
        (["graph", "--gasket"], "m", 2.5),
        (["resist", "--gasket"], "m", True),
        (["converge", "--gasket", "-m", "1"], "m_primes", 2.5),
    ]

    @pytest.mark.parametrize(
        "argv, key, value", BAD, ids=[f"{argv[0]}-{key}" for argv, key, _ in BAD]
    )
    def test_non_integer_exits_two(self, tmp_path, capsys, monkeypatch, argv, key, value):
        # null gave a TypeError traceback, 2.5 sampled 2 walks and "x"
        # printed int()'s own message
        def no_input(*args, **kwargs):
            raise AssertionError("a chain or graph was built before the key was read")

        for name in ("_load_chain", "_family_graph", "kernel_convergence", "dense_chain"):
            monkeypatch.setattr(lerw.cli, name, no_input)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert f"config key {key} must be an integer, got {json.dumps(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key", [(["resist", "--gasket"], "m"), (["converge", "--gasket", "-m", "1"], "m_primes")]
    )
    @pytest.mark.parametrize("bad", [2.5, True, None])
    def test_level_lists_hold_integers(self, tmp_path, capsys, monkeypatch, argv, key, bad):
        # a level list took int() of each entry: 2.5 became level 2
        monkeypatch.setattr(lerw.cli, "kernel_convergence", None)
        monkeypatch.setattr(lerw.cli, "resistance_scaling", None)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: [1, bad]}))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert f"config key {key} must be an integer, got {json.dumps(bad)}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_levels_are_read(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": 2.0, "gasket": True}))
        assert main(["graph", "--config", str(cfgfile), "--out", str(tmp_path / "g")]) == 0
        assert read_json(tmp_path / "g" / "graph.json")["results"]["level"] == 2
        cfgfile.write_text(json.dumps({"m": [1.0, "2"], "gasket": True}))
        assert main(["resist", "--config", str(cfgfile), "--out", str(tmp_path / "r")]) == 0
        assert read_json(tmp_path / "r" / "resist.json")["results"]["levels"] == [1, 2]

    def test_integer_strings_and_integral_floats_are_read(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"identities": "3", "permutations": 2.0, "seed": 1}))
        assert main(["verify-green", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "verify_green.json")
        assert summary["results"] == {"identity_instances": 3, "permutation_instances": 2}
        # the config is recorded, and hashed, as the file gave it
        assert summary["config"]["identities"] == "3"
        assert summary["config"]["permutations"] == 2.0


class TestOutputContract:
    RUNS = {
        "graph": ["graph", "--gasket", "-m", "1"],
        "resist": ["resist", "--gasket", "-m", "0..2", "--mode", "rational", "--band", "0.001"],
        "resist-fail": ["resist", "--carpet", "standard", "-m", "1..3", "--band", "0.05"],
        "converge-kernel": ["converge", "--gasket", "-m", "1", "--m-primes", "1..3"],
        "converge-coupled": ["converge", "--what", "coupled", "--gasket", "--pairs", "1:2,2:3",
                             "-n", "20", "--seed", "3"],
        "simulate": ["simulate", "--gasket", "-m", "1", "--to", "q2", "-n", "20", "--seed", "3"],
        "exact-law": ["exact-law", "--length-cap", "5"],
        "verify-theorem1": ["verify-theorem1", "--seed", "3", "--max-cases", "10"],
        "verify-theorem1-fail": ["verify-theorem1", "--inject-ple-bug", "--seed", "3",
                                 "--max-cases", "10"],
        "verify-green": ["verify-green", "--seed", "1", "--identities", "3", "--permutations", "2"],
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_directory_holds_the_summary_and_its_files(self, tmp_path, run):
        argv = self.RUNS[run]
        code = main([*argv, "--out", str(tmp_path)])
        summary = read_json(tmp_path / f"{argv[0].replace('-', '_')}.json")
        assert code == (0 if summary["pass"] else 1)
        assert summary["pass"] is not run.endswith("-fail")
        files = summary["files"]
        assert ("counterexample" in files) is not summary["pass"]
        if not summary["pass"]:
            assert files["counterexample"] == "counterexample.json"
        assert len(set(files.values())) == len(files)
        assert {p.name for p in tmp_path.iterdir()} == {f"{argv[0].replace('-', '_')}.json", *files.values()}
        for name in files.values():
            if name.endswith(".csv"):
                first = (tmp_path / name).read_text().splitlines()[0]
                assert first == f"# config {summary['config_hash']}"


class TestOutputBytes:
    # sha256 of every file a run writes and of its stdout, for runs whose
    # values are all exact; a refactor of the output code must keep them
    PINNED = {
        "graph": (
            ["graph", "--gasket", "-m", "2"],
            {
                "graph.json": "27f2d6403a6b466e2ade19059c17a44b4f1489c115c5856d92402d51496142ba",
                "graph_edges.txt": "c15af12fbf04940e33ac6b0679683b98cbd11aa5c1c9194b03580232650dfa77",
                "graph_vertices.txt": "f7e6cdc3b1494e1bc00047502f8ee6e8dc75a0b7a4df1a549634202088388016",
            },
            "4d50c81adaf833813eb0ab77a9a19d33a0f8da1b80dc8bd8d4ef4e813f28e6a1",
        ),
        "exact-law": (
            ["exact-law", "--tol", "1e-9"],
            {
                "exact_law.json": "43aa62ace3e7a9d1f7ca8d31a4046d3bdb5b928f9e4558e5837fbeb4eae8456c",
                "exact_law.txt": "3c26dae41bbd1e8f34779c2a6199bf727a31c649852aed5e219518a41f68c2b7",
            },
            "4582383af05f34c464737424f27fd4f059493f151d481d1d055626c3e06663e7",
        ),
        "verify-theorem1": (
            ["verify-theorem1", "--seed", "5", "--chains", "3", "--inject-ple-bug"],
            {
                "counterexample.json": "cdcad6ceadf9aa036afb5731fc7b9326b5fd27ba4b8d6f25cce3ccfe730a70ee",
                "verify_theorem1.json": "46bfea341191009d340c21541ed12acc7585db662dead8e8fec562d7ec36b8b8",
            },
            "247f91a74470539d3da1d1e1fbd5a4241768e95eae56ea6749a06a9f7acec5e4",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_files_and_stdout_are_pinned(self, tmp_path, capsys, name):
        argv, files, stdout = self.PINNED[name]
        main([*argv, "--out", str(tmp_path)])
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == files
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
