import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hlbench import __version__
from hlbench.cli import main
from hlbench.colorings import coloring_to_text, random_coloring
from hlbench.ideals import GridSet, NatSet, NodeSet, gridset_to_text, natset_to_text, nodeset_to_text
from hlbench.katetov import SCOPE_SENTENCE, builtin_witness, ideal_to_text, morphism_to_text
from hlbench.treecore import make_full, tree_to_text

RATIONAL = re.compile(r"^\d+/[1-9]\d*$")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out), err


@pytest.fixture
def coloring_file(tmp_path):
    path = tmp_path / "c.coloring"
    path.write_text(coloring_to_text(random_coloring(4, seed=7)))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "t.tree"
    path.write_text(tree_to_text(make_full(4)))
    return str(path)


class TestEnvelope:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"hlbench {__version__}" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_report_envelope(self, coloring_file, tree_file, capsys):
        code, body, _ = run_json(["hset", "--coloring", coloring_file, "--tree", tree_file], capsys)
        assert code == 0
        assert body["tool"] == "hlbench"
        assert body["version"] == __version__
        assert body["command"] == "hset"
        assert body["seed"] is None
        assert body["config"]["tree"] == tree_file
        assert body["config"]["subcommand"] == "hset"
        assert "func" not in body["config"] and "verbose" not in body["config"]

    def test_stdout_is_canonical_json(self, capsys):
        code, out, _ = run(["zdensity", "--nmax", "2"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_verbose_goes_to_stderr(self, capsys):
        _, quiet_out, quiet_err = run(["zdensity", "--nmax", "2"], capsys)
        code, out, err = run(["zdensity", "--nmax", "2", "--verbose"], capsys)
        assert code == 0
        assert quiet_err == ""
        assert "band 1" in err
        assert json.loads(out) == json.loads(quiet_out)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hlbench.cli", "--version"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert f"hlbench {__version__}" in proc.stdout


class TestSubcommands:
    def test_hset_levels_are_sound(self, coloring_file, tree_file, capsys):
        code, body, _ = run_json(["hset", "--coloring", coloring_file, "--tree", tree_file], capsys)
        assert code == 0
        assert body["depth"] == 4
        assert all(0 <= n < 4 for n in body["levels"])

    def test_zdensity_counts(self, capsys):
        code, body, _ = run_json(["zdensity", "--nmax", "2"], capsys)
        assert code == 0
        assert body["all_pass"] is True
        assert body["pairs_checked"] == 4  # C(1,1) + C(2,1) + C(2,2)
        assert [b["bijection_ok"] for b in body["bands"]] == [True, True]
        assert all(ch["pass"] for b in body["bands"] for ch in b["checks"])

    @pytest.mark.parametrize("name", ["search", "search-levels"])
    def test_search_with_oracle(self, name, capsys):
        argv = [name, "--depth", "5", "--height", "1", "--seed", "3", "--oracle"]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["verified"] is True
        assert body["complete"] is True
        assert body["oracle_match"] is True
        assert body["m"] == body["oracle_m"] >= 1
        assert body["seed"] == 3

    def test_search_deterministic(self, capsys):
        argv = ["search", "--depth", "6", "--height", "1", "--seed", "11"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_search_accepts_coloring_file(self, coloring_file, capsys):
        code, body, _ = run_json(["search", "--height", "1", "--coloring", coloring_file], capsys)
        assert code == 0
        assert body["depth"] == 4
        assert body["seed"] is None and body["config"]["seed"] is None
        for seed in ("0", "3"):
            with pytest.raises(SystemExit) as exc:
                main(["search", "--height", "1", "--coloring", coloring_file, "--seed", seed])
            assert exc.value.code == 2
        code, body, _ = run_json(["search", "--depth", "4", "--height", "1"], capsys)
        assert code == 0
        assert body["seed"] == 0 and body["config"]["seed"] == 0

    def test_hset_skips_comments_and_blank_lines(self, coloring_file, tree_file, capsys):
        _, plain, _ = run_json(["hset", "--coloring", coloring_file, "--tree", tree_file], capsys)
        for path in (coloring_file, tree_file):
            head, *body = Path(path).read_text().splitlines()
            noisy = [head, "# comment", *body[:3], "", "   # indented comment", *body[3:], "#"]
            Path(path).write_text("\n".join(noisy) + "\n")
        code, commented, _ = run_json(["hset", "--coloring", coloring_file, "--tree", tree_file], capsys)
        assert code == 0
        assert commented["levels"] == plain["levels"]

    def test_pairing(self, capsys):
        argv = ["pairing", "--base-levels", "1,2", "--cap", "2", "--depth", "6"]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["all_pass"] is True
        assert body["trees_checked"] > 0
        assert {m["base_level"] for m in body["matchings"]} == {1, 2}

    def test_levels(self, capsys):
        code, body, _ = run_json(["levels", "--max-len", "3", "--depth", "8"], capsys)
        assert code == 0
        assert body["all_pass"] is True
        assert all(ch["zero_side_bad"] == 0 and ch["one_side_bad"] == 0 for ch in body["checks"])

    def test_profile_natset(self, tmp_path, capsys):
        path = tmp_path / "a.natset"
        path.write_text(natset_to_text(NatSet.of({1, 2, 4, 8, 16}, 32)))
        argv = ["profile", "--input", str(path), "--ell", "4", "--threshold", "1"]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["kind"] == "natset" and body["size"] == 5
        assert all(RATIONAL.match(d) for d in body["density_dyadic"])
        assert RATIONAL.match(body["summable_weight"])
        assert body["interval"] == {"ell": 4, "threshold": 1, "cmp": "ge", "count": 13}

    def test_profile_gridset(self, tmp_path, capsys):
        path = tmp_path / "e.gridset"
        path.write_text(gridset_to_text(GridSet.of({(0, 0), (0, 3), (1, 2)}, 4)))
        code, body, _ = run_json(["profile", "--input", str(path)], capsys)
        assert code == 0
        assert body["kind"] == "gridset"
        assert body["column_profile"] == [2, 1, 0, 0]

    def test_profile_nodeset(self, tmp_path, capsys):
        path = tmp_path / "s.nodeset"
        path.write_text(nodeset_to_text(NodeSet.of({"0", "00", "01", "11"}, 4)))
        code, body, _ = run_json(["profile", "--input", str(path)], capsys)
        assert code == 0
        assert body["phi"] == "3/4"
        assert body["phi_equals_antichain"] is True
        assert body["minimal_elements"] == ["0", "11"]

    def test_game_reports_outcome_profile(self, capsys):
        argv = ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "4", "--window", "16", "--seed", "5"]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["seed"] == 5
        assert body["transcript"]["flags"]["completed"] is True
        assert len(body["transcript"]["K"]) == 4
        assert RATIONAL.match(body["k_profile"]["summable_weight"])

    def test_game_tree_builder_needs_coloring_file(self, coloring_file, capsys):
        argv = ["game", "--p1", "tree-builder", "--p2", "min-legal", "--horizon", "3", "--window", "16", "--coloring", coloring_file]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        code, _, err = run(argv[:-2], capsys)
        assert code == 2
        assert "error" in err

    def test_katetov_list_and_builtin(self, capsys):
        code, body, _ = run_json(["katetov", "--list"], capsys)
        assert code == 0
        assert "fin_to_z_identity" in body["builtins"]
        code, body, _ = run_json(["katetov", "--builtin", "fin_to_z_identity"], capsys)
        assert code == 0
        assert body["pass"] is True
        assert body["scope"] == SCOPE_SENTENCE

    def test_katetov_counterexample_exits_1(self, capsys):
        code, body, _ = run_json(["katetov", "--counterexample", "fin_to_z_one_point"], capsys)
        assert code == 1
        assert body["pass"] is False
        assert [v["generator"] for v in body["violations"]] == ["{64}"]

    def test_katetov_from_files(self, tmp_path, capsys):
        w = builtin_witness("summable_to_z_identity")
        src = tmp_path / "src.ideal"
        tgt = tmp_path / "tgt.ideal"
        mor = tmp_path / "f.morphism"
        src.write_text(ideal_to_text(w.source))
        tgt.write_text(ideal_to_text(w.target))
        mor.write_text(morphism_to_text(w.morphism, w.target.ground, w.source.ground))
        argv = ["katetov", "--morphism", str(mor), "--source", str(src), "--target", str(tgt)]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["pass"] is True and body["witness"] is None


def _write_profile_inputs(rng: random.Random) -> None:
    """A seeded natset (bound 4096), gridset (bound 64) and nodeset (depth 12) in the cwd."""
    members = [m for m in range(4096) if rng.random() < 0.25]
    cells = [(c, r) for c in range(64) for r in range(64) if rng.random() < 0.3]
    nodes = [format(i, f"0{n}b") if n else "-" for n in range(12) for i in range(1 << n) if rng.random() < 0.05]
    Path("a.natset").write_text("\n".join(["natset v1 bound=4096", *map(str, members)]) + "\n")
    Path("e.gridset").write_text("\n".join(["gridset v1 bound=64", *(f"{c} {r}" for c, r in cells)]) + "\n")
    Path("s.nodeset").write_text("\n".join(["nodeset v1 depth=12", *nodes]) + "\n")


class TestProfileBytes:
    """`profile` stdout is byte-identical to the reports of the straightforward statistics."""

    # SHA-256 of stdout, recorded with the per-window, per-tail Fraction
    # implementations the one-pass statistics replaced.  The report carries
    # the package version, so a version bump changes them.
    DIGESTS = {
        "a.natset": "b4804c8e73f04b7fb44af98a8e11b5d1bb0adf4d4ef939ccd094b0b4ad4545a9",
        "e.gridset": "57fcad362e69b319e44f6ae6a74772d9911f4a519b2c1de1fe0e32c0e6ab698c",
        "s.nodeset": "1b103bc053d4b0ea79da42161844fa1683cb6877de2cd1206181cf7d6fe59a46",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--input", "a.natset", "--ell", "16", "--threshold", "5"],
            ["profile", "--input", "e.gridset"],
            ["profile", "--input", "s.nodeset"],
        ],
    )
    def test_stdout_digest(self, argv, tmp_path, monkeypatch, capsys):
        # Relative paths keep the report's `config.input` the same in every run.
        monkeypatch.chdir(tmp_path)
        _write_profile_inputs(random.Random(20211))
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv[2]]


class TestErrorPaths:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(["profile", "--input", "/nonexistent/a.natset"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_depth_contradicts_coloring(self, coloring_file, capsys):
        argv = ["search", "--height", "1", "--coloring", coloring_file, "--depth", "9"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "contradicts" in err

    def test_min_levels_must_be_positive(self, capsys):
        code, _, err = run(["search", "--depth", "4", "--height", "1", "--min-levels", "0"], capsys)
        assert code == 2
        assert "min_levels" in err

    def test_budget_too_small_is_usage_error(self, capsys):
        code, out, err = run(["search", "--depth", "5", "--height", "1", "--budget", "1", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "hlbench: error: node budget 1 completes no embedding\n"

    def test_search_needs_depth_without_coloring(self, capsys):
        code, _, err = run(["search", "--height", "1"], capsys)
        assert code == 2
        assert "--depth" in err

    def test_ell_needs_threshold(self, tmp_path, capsys):
        path = tmp_path / "a.natset"
        path.write_text(natset_to_text(NatSet.of({1}, 8)))
        code, _, err = run(["profile", "--input", str(path), "--ell", "2"], capsys)
        assert code == 2
        assert "--threshold" in err

    def test_unknown_profile_kind(self, tmp_path, capsys):
        path = tmp_path / "a.blob"
        path.write_text("blob v1 bound=4\n")
        code, _, err = run(["profile", "--input", str(path)], capsys)
        assert code == 2
        assert "unknown input kind" in err

    def test_unknown_strategy(self, capsys):
        argv = ["game", "--p1", "psychic", "--p2", "min-legal", "--horizon", "2", "--window", "8"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "psychic" in err

    def test_katetov_needs_some_selection(self, capsys):
        code, _, err = run(["katetov"], capsys)
        assert code == 2
        assert "--builtin" in err

    def test_bad_int_list(self, capsys):
        code, _, err = run(["pairing", "--base-levels", "1,x", "--depth", "6"], capsys)
        assert code == 2
        assert "comma-separated" in err
