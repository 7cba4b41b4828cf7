"""Subcommand behavior: exits, outputs, determinism, config plumbing."""

import csv
import json
from fractions import Fraction
from random import Random

import pytest

from lerw.chain import chain_to_text, dense_chain
from lerw.cli import main
from lerw.exactlaw import law_from_text
from lerw.fractal import standard_carpet, template_to_text
from lerw.limits import resistance_scaling, set_law_from_text


def read_json(path):
    return json.loads(path.read_text())


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


class TestConverge:
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

    def test_bad_what_exits_two(self, tmp_path):
        assert main(["converge", "--what", "nope", "--out", str(tmp_path)]) == 2


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
    def test_bundled_chain_law(self, tmp_path):
        code = main(["exact-law", "--tol", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        law = law_from_text((tmp_path / "exact_law.txt").read_text())
        assert law.tail_bound <= Fraction(1, 10**9)
        assert len(law.atoms) == 5
        assert law.mode == "rational"

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
