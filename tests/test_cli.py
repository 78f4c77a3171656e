import argparse
import ast
import collections
import contextlib
import dataclasses
import enum
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_cases
import hlbench
import hlbench.cli as cli
from hlbench import __version__
from hlbench.cli import _json, main
from hlbench.colorings import coloring_to_text, random_coloring
from hlbench.ideals import (
    GridSet,
    NatSet,
    NodeSet,
    frac_text,
    gridset_to_text,
    natset_to_text,
    nodeset_to_text,
    summable_weight,
)
from hlbench.katetov import PARAMS_MAX, SCOPE_SENTENCE, builtin_witness, ideal_to_text, morphism_to_text
from hlbench.treecore import BUDGET_CAP, ELEMENT_CAP, make_full, tree_to_text

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


# One argv per subcommand but katetov, whose --verbose lines `cli_cases` pins
# whole, and the first line it writes on stderr under --verbose.  The files
# are those of the `coloring_file` and `tree_file` fixtures and a natset.
_VERBOSE_FIRST_LINES = {
    "hset": ("hset --coloring c.coloring --tree t.tree", "H = [0, 1]"),
    "zdensity": ("zdensity --nmax 2", "band 1 J=[0]: expected 2 actual 2 PASS"),
    "search": ("search --depth 5 --height 2 --seed 1", "m = 4 (explored 96, complete=True)"),
    "search-levels": ("search-levels --depth 5 --height 2 --seed 1", "m = 4 (explored 387, complete=True)"),
    "pairing": ("pairing --base-levels 1,2 --cap 3 --depth 8", "matching 0 (level 1): 4096 trees PASS"),
    "levels": ("levels --max-len 4 --depth 12", "t=1 level 2: PASS"),
    "profile": ("profile --input a.natset --ell 2 --threshold 1", "|A| = 3 in [0, 8)"),
    "game": ("game --p1 initial-segment --p2 min-legal --horizon 4 --window 16", "round 0: |I|=1 k=1"),
}


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

    @pytest.mark.parametrize("argv, first", list(_VERBOSE_FIRST_LINES.values()), ids=list(_VERBOSE_FIRST_LINES))
    def test_verbose_goes_to_stderr(self, argv, first, coloring_file, tree_file, tmp_path, monkeypatch, capsys):
        """--verbose adds lines on stderr and leaves the exit status and stdout's bytes as they are."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.natset").write_text(natset_to_text(NatSet.of({1, 2, 5}, 8)))
        quiet_code, quiet_out, quiet_err = run(argv.split(), capsys)
        code, out, err = run([*argv.split(), "--verbose"], capsys)
        assert (code, out, quiet_err) == (quiet_code, quiet_out, "")
        assert err.splitlines()[0] == first

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hlbench.cli", "--version"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert f"hlbench {__version__}" in proc.stdout


# Run in a fresh interpreter: import hlbench.cli, run main(argv) when argv is
# not null, with stdout captured, and print the exit status, the loaded
# hlbench modules, the stdlib modules asked about and the captured stdout.
_LOADED_SCRIPT = """
import contextlib, io, sys
argv, stdlib = eval(sys.argv[1])
import hlbench.cli
code = None
out = io.StringIO()
if argv is not None:
    with contextlib.redirect_stdout(out):
        code = hlbench.cli.main(argv)
print(repr([code, sorted(m for m in sys.modules if m.split(".")[0] == "hlbench"),
            sorted(m for m in stdlib if m in sys.modules), out.getvalue()]))
"""

_SHARED_MODULES = ["hlbench", "hlbench.cli", "hlbench.errors", "hlbench.treecore"]
_PARSER_MODULES = ["argparse", "json"]
_SEARCH_MODULES = ["hlbench._rng", "hlbench.colorings", "hlbench.search"]


class TestImports:
    """The module level imports what every subcommand needs; each handler imports the rest."""

    @staticmethod
    def loaded(tmp_path, argv, stdlib=_PARSER_MODULES):
        paths = [str(Path(hlbench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        # -S: no site module, which on some installs imports pathlib at start-up.
        # The child reads its argument with eval and prints a repr, since json
        # would load json into it.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _LOADED_SCRIPT, repr([argv, list(stdlib)])],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return ast.literal_eval(proc.stdout)

    def test_import_loads_only_the_shared_modules(self, tmp_path):
        code, modules, stdlib, _ = self.loaded(tmp_path, None, ["fractions", "decimal", "pathlib", *_PARSER_MODULES])
        assert modules == _SHARED_MODULES
        assert stdlib == []

    def test_search_loads_no_other_library_module(self, tmp_path):
        for command in ("search", "search-levels"):
            code, modules, stdlib, _ = self.loaded(
                tmp_path, [command, "--depth", "5", "--height", "2", "--seed", "7"], ["fractions", *_PARSER_MODULES])
            assert code == 0
            assert modules == sorted([*_SHARED_MODULES, *_SEARCH_MODULES])
            assert stdlib == []

    def test_zdensity_loads_search(self, tmp_path):
        code, modules, stdlib, _ = self.loaded(tmp_path, ["zdensity", "--nmax", "2"])
        assert code == 0
        assert modules == sorted([*_SHARED_MODULES, *_SEARCH_MODULES])
        assert stdlib == []

    def test_profile_loads_ideals(self, tmp_path):
        (tmp_path / "a.natset").write_text(natset_to_text(NatSet.of([1, 2, 4, 8], 16)))
        (tmp_path / "s.nodeset").write_text(nodeset_to_text(NodeSet.of(["0", "01", "1"], 3)))
        for name in ("a.natset", "s.nodeset"):
            code, modules, stdlib, _ = self.loaded(tmp_path, ["profile", "--input", name])
            assert code == 0
            assert modules == sorted([*_SHARED_MODULES, "hlbench.ideals"])
            assert stdlib == []

    def test_katetov_morphism_loads_no_search_module(self, tmp_path):
        w = builtin_witness("fin_to_z_identity")
        (tmp_path / "s.ideal").write_text(ideal_to_text(w.source))
        (tmp_path / "t.ideal").write_text(ideal_to_text(w.target))
        (tmp_path / "f.morphism").write_text(morphism_to_text(w.morphism, w.target.ground, w.source.ground))
        argv = ["katetov", "--morphism", "f.morphism", "--source", "s.ideal", "--target", "t.ideal"]
        code, modules, stdlib, _ = self.loaded(tmp_path, argv)
        assert code == 0
        assert modules == sorted([*_SHARED_MODULES, "hlbench.ideals", "hlbench.katetov"])
        assert stdlib == []

    def test_katetov_list_loads_katetov(self, tmp_path):
        code, modules, _, _ = self.loaded(tmp_path, ["katetov", "--list"])
        assert code == 0
        assert "hlbench.katetov" in modules and "hlbench.game" not in modules

    def test_hset_loads_colorings_not_search(self, tmp_path):
        (tmp_path / "c.coloring").write_text(coloring_to_text(random_coloring(4, seed=7)))
        (tmp_path / "t.tree").write_text(tree_to_text(make_full(4)))
        code, modules, stdlib, _ = self.loaded(tmp_path, ["hset", "--coloring", "c.coloring", "--tree", "t.tree"])
        assert code == 0
        assert modules == sorted([*_SHARED_MODULES, "hlbench._rng", "hlbench.colorings"])
        assert stdlib == []

    def test_game_loads_game(self, tmp_path):
        code, modules, stdlib, _ = self.loaded(
            tmp_path, ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "4", "--window", "64"])
        assert code == 0
        assert modules == sorted([*_SHARED_MODULES, "hlbench._rng", "hlbench.colorings", "hlbench.game",
                                  "hlbench.ideals"])
        assert stdlib == []

    def test_declined_argv_loads_argparse_and_prints_the_same_bytes(self, tmp_path):
        exact = self.loaded(tmp_path, ["search", "--depth", "5", "--height", "2", "--seed", "1"])
        spelled = self.loaded(tmp_path, ["search", "--depth=5", "--height=2", "--seed=1"])
        assert exact[2] == [] and "argparse" in spelled[2]
        assert spelled[0] == exact[0] == 0
        assert spelled[1] == exact[1]
        assert spelled[3] == exact[3] != ""


def _exit(call, capsys):
    """(exit status, stdout, stderr) of `call()`, which may exit through SystemExit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SEARCH = ["search", "--depth", "5", "--height", "2"]

# Every usage error, help and version text a user can reach, by kind.
USAGE_CORPUS = [
    [],
    ["--help"],
    ["--version"],
    ["bogus"],
    ["sea"],
    ["--verbose", *_SEARCH],
    *([name, "--help"] for name in cli.COMMANDS),
    # refused by the subcommand's parser
    ["search", "--depth", "5"],
    ["search", "--depth", "x", "--height", "2"],
    ["search", "--height", "2", "--seed", "1", "--coloring", "c.coloring"],
    ["search", "--height", "--depth", "5"],
    ["katetov", "--builtin", "--list"],
    [*_SEARCH, "--seed"],
    ["profile", "--input", "a.natset", "--cmp", "bad"],
    # arguments left over after a known subcommand, refused with the top-level usage
    [*_SEARCH, "--bogus"],
    [*_SEARCH, "extra"],
    [*_SEARCH, "search-levels"],
    [*_SEARCH, "--version"],
    ["katetov", "--list", "extra"],
]


@pytest.fixture
def parsers_built(monkeypatch):
    """The number of `ArgumentParser`s constructed so far, subparsers included."""
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return lambda: built[0]


# The fewest arguments each subcommand takes.
_REQUIRED = {
    "hset": ["hset", "--coloring", "c.coloring", "--tree", "t.tree"],
    "zdensity": ["zdensity", "--nmax", "2"],
    "search": ["search", "--height", "2"],
    "search-levels": ["search-levels", "--height", "2"],
    "pairing": ["pairing", "--base-levels", "1,2", "--depth", "6"],
    "levels": ["levels", "--max-len", "3", "--depth", "8"],
    "profile": ["profile", "--input", "a.natset"],
    "game": ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "4", "--window", "16"],
    "katetov": ["katetov"],
}

# Argvs every parser accepts, for each subcommand with its defaults and with
# every option given, in `--opt value`, `--opt=value` and abbreviated spellings.
VALID_CORPUS = [
    *_REQUIRED.values(),
    *([*argv, "--verbose"] for argv in _REQUIRED.values()),
    ["hset", "--tree=t.tree", "--coloring=c.coloring", "--verb"],
    *([name, "--depth", "5", "--height", "2", "--seed", "3", "--budget", "100", "--workers", "2", "--oracle",
       "--verbose"] for name in ("search", "search-levels")),
    *([name, "--height", "1", "--coloring", "c.coloring"] for name in ("search", "search-levels")),
    ["search", "--depth=5", "--height=2", "--seed=-3", "--budget=7", "--workers=1"],
    ["search", "--dep", "5", "--hei", "2", "--se", "1", "--bud", "9", "--wor", "3", "--or"],
    ["search-levels", "--col", "c.coloring", "--height", "1", "--height", "2"],
    ["pairing", "--base-levels", "1,2", "--cap", "2", "--depth", "6", "--verbose"],
    ["pairing", "--base=1", "--ca=0", "--dep=4"],
    ["levels", "--max=3", "--dep=8"],
    ["profile", "--input", "a.natset", "--ell", "4", "--threshold", "1", "--cmp", "gt", "--verbose"],
    ["profile", "--inp", "a.natset", "--el", "2", "--th", "-1", "--cm=ge"],
    [*_REQUIRED["game"], "--seed", "5", "--coloring", "c.coloring", "--verbose"],
    ["game", "--p1=a", "--p2=b", "--hor=1", "--win=2", "--se=3", "--co=c.coloring"],
    ["katetov", "--builtin", "a", "--counterexample", "b", "--morphism", "m", "--source", "s", "--target", "t",
     "--list", "--verbose"],
    ["katetov", "--li"],
    ["katetov", "--mor=m", "--sou=s", "--tar=t"],
]

# Tokens for random argvs: subcommand names, flags, values, and the tokens
# that the top-level parser or argparse itself treats apart.
_TOKENS = sorted({
    *cli.COMMANDS, "sea", "bogus", "extra", "--", "-", "-h", "--help", "--version", "--ver", "--=x", "--h",
    *(flags[0] for command in cli.COMMANDS.values() for option in command.options
      for flags, _ in (option if isinstance(option, cli._OneOf) else [option])),
    "--verbose", "--verb", "--dep", "--se", "--depth=5", "--height=x", "--cmp=gt",
    "0", "2", "5", "-1", "x", "1,2", "ge",
})


def _echo(args) -> int:
    """A handler that prints the namespace it was given."""
    print(sorted((key, repr(value)) for key, value in vars(args).items()))
    return 0


# Values for `--opt value` pairs: ints, a negative one, words `type` or
# `choices` refuse, the `--cmp` choices, file names and an option string.
_VALUES = ["0", "2", "5", "-1", "x", "ge", "gt", "bad", "1,2", "c.coloring", "a.natset", "--verbose"]


def _option_argvs(name):
    """Argvs of `name` made of its own options, each with a value where it takes one.

    Each option appears or not, in any order.  In half the argvs every
    required option appears, every value is one the option takes and nothing
    else follows, so the reader reads most of them.  The other half draw any
    value and up to two more options: refused values, missing required
    options, repeats and both options of a `_OneOf`.
    """
    def tokens(flag, kwargs, values):
        if kwargs.get("action") == "store_true":
            return st.just([flag])
        good = kwargs.get("choices", ("2", "5") if "type" in kwargs else ("c.coloring",))
        return st.tuples(st.just(flag), st.sampled_from(good) | values).map(list)

    options = [(flag, kwargs) for option in (*cli.COMMANDS[name].options, cli._VERBOSE)
               for (flag,), kwargs in (option if isinstance(option, cli._OneOf) else [option])]

    def argvs(plain):
        values = st.nothing() if plain else st.sampled_from(_VALUES)
        each = st.tuples(*(tokens(flag, kwargs, values) if plain and kwargs.get("required")
                           else st.just([]) | tokens(flag, kwargs, values) for flag, kwargs in options))
        more = st.lists(st.one_of(*(tokens(flag, kwargs, values) for flag, kwargs in options)),
                        max_size=0 if plain else 2)
        return st.builds(lambda parts, extra: [name, *itertools.chain(*parts, *extra)],
                         each.flatmap(st.permutations), more)

    return st.booleans().flatmap(argvs)


def _assert_main_matches_the_full_tree(argv):
    """`main(argv)`, every handler printing its namespace, exits and prints as the full tree does."""
    def outcome(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call()
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    echoing = {name: dataclasses.replace(command, handler=_echo) for name, command in cli.COMMANDS.items()}
    with mock.patch.dict(cli.COMMANDS, echoing):
        assert outcome(lambda: main(list(argv))) == outcome(lambda: _echo(cli.build_parser().parse_args(argv)))


class TestParser:
    @pytest.mark.parametrize("argv", USAGE_CORPUS, ids=" ".join)
    def test_usage_bytes_match_the_full_tree(self, argv, capsys):
        want = _exit(lambda: cli.build_parser().parse_args(argv), capsys)
        assert isinstance(want[0], int)  # every corpus argv exits inside argparse
        assert _exit(lambda: main(argv), capsys) == want

    @pytest.mark.parametrize(
        "argv, built",
        [
            (_SEARCH, 0),  # read from `cli.COMMANDS`
            # every other argv: the full tree, one parser per subcommand and the top level
            (["katetov", "--help"], 1 + len(cli.COMMANDS)),
            (["search", "--depth", "x", "--height", "2"], 1 + len(cli.COMMANDS)),
            ([*_SEARCH, "--bogus"], 1 + len(cli.COMMANDS)),
            (["search", "--dep", "5", "--height", "2"], 1 + len(cli.COMMANDS)),
            (["--help"], 1 + len(cli.COMMANDS)),
            (["sea"], 1 + len(cli.COMMANDS)),
            (["--verbose", *_SEARCH], 1 + len(cli.COMMANDS)),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_console_script_argv(self, argv, built, monkeypatch, parsers_built, capsys):
        want = _exit(lambda: main(list(argv)), capsys)
        before = parsers_built()
        monkeypatch.setattr(sys, "argv", ["hlbench", *argv])
        assert _exit(main, capsys) == want
        assert parsers_built() - before == built

    def test_no_parser_state_between_calls(self, capsys):
        first = ["zdensity", "--nmax", "2"]
        second = ["search-levels", "--depth", "6", "--height", "1", "--seed", "3"]
        together = [_exit(lambda: main(list(argv)), capsys) for argv in (first, second)]
        separate = []
        for argv in (first, second):
            proc = subprocess.run([sys.executable, "-m", "hlbench.cli", *argv], capture_output=True, text=True)
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        assert together == separate
        for name, value in vars(cli).items():
            assert not isinstance(value, argparse.ArgumentParser), name
            assert not hasattr(value, "cache_info"), name  # no functools.cache / lru_cache

    @pytest.mark.parametrize("argv", VALID_CORPUS, ids=" ".join)
    def test_valid_argv_matches_the_full_tree(self, argv):
        args = cli._parse(list(argv))
        assert vars(args) == vars(cli.build_parser().parse_args(argv))  # func and subcommand included
        assert args.subcommand == argv[0] and args.func is cli.COMMANDS[argv[0]].handler

    @pytest.mark.parametrize("name", cli.COMMANDS)
    def test_no_parser_for_a_valid_argv(self, name, parsers_built):
        before = parsers_built()
        cli._parse(list(_REQUIRED[name]))
        assert parsers_built() - before == 0

    @pytest.mark.parametrize("name", cli.COMMANDS)
    def test_one_parser_per_subcommand(self, name, parsers_built):
        """A valid argv the reader declines (here an abbreviation) goes to the full tree."""
        before = parsers_built()
        cli._parse([*_REQUIRED[name], "--verb"])
        assert parsers_built() - before == 1 + len(cli.COMMANDS)

    def test_every_option_is_one_the_reader_reads(self):
        """`cli._read_exact` handles these `add_argument` kwargs and nothing else."""
        for command in cli.COMMANDS.values():
            seen = set()
            for option in (*command.options, cli._VERBOSE):
                for flags, kwargs in option if isinstance(option, cli._OneOf) else [option]:
                    # one long option, which the top-level parser never refuses
                    assert len(flags) == 1 and re.fullmatch(r"--[a-z0-9]+(-[a-z0-9]+)*", flags[0]), flags
                    assert flags[0] not in seen
                    seen.add(flags[0])
                    if "action" in kwargs:
                        assert kwargs["action"] == "store_true" and set(kwargs) <= {"action", "dest", "help"}, flags
                    else:
                        assert set(kwargs) <= {"type", "default", "required", "dest", "choices", "help"}, flags
                        assert kwargs.get("type", int) is int, flags
                        # argparse would convert a str default with its `type`
                        assert not (isinstance(kwargs.get("default"), str) and "type" in kwargs), flags

    @given(st.builds(
        list.__add__, st.lists(st.sampled_from(list(cli.COMMANDS)), max_size=1),
        st.lists(st.sampled_from(_TOKENS), max_size=7),
    ))
    @example([*_SEARCH, "--=x"])  # refused by the top-level parser, not by `search`
    @settings(max_examples=400, deadline=None)
    def test_random_argv_matches_the_full_tree(self, argv):
        _assert_main_matches_the_full_tree(argv)

    @given(st.sampled_from(list(cli.COMMANDS)).flatmap(_option_argvs))
    @settings(max_examples=300, deadline=None)
    def test_random_option_pairs_match_the_full_tree(self, argv):
        _assert_main_matches_the_full_tree(argv)


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

    def test_profile_natset_cmp(self, tmp_path, capsys):
        path = tmp_path / "a.natset"
        path.write_text(natset_to_text(NatSet.of({1, 2, 5, 6, 7}, 8)))
        for cmp, count in (("ge", 6), ("gt", 3), (None, 6)):
            argv = ["profile", "--input", str(path), "--ell", "2", "--threshold", "1"]
            code, body, _ = run_json(argv + (["--cmp", cmp] if cmp else []), capsys)
            assert code == 0
            assert body["config"]["cmp"] == body["interval"]["cmp"] == (cmp or "ge")
            assert body["interval"]["count"] == count

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

    def test_katetov_summable_measure_past_the_str_digit_limit(self, tmp_path, capsys):
        # The weight of 5 000 seeded members of [0, 65536) is a fraction whose
        # numerator and denominator have more digits than str() converts.
        members = sorted(random.Random(0).sample(range(65536), 5000))
        weight = summable_weight(NatSet.of(members, 65536))
        assert weight.denominator > 10**4300
        (tmp_path / "src.ideal").write_text(
            f"ideal v1 ground=interval params=65536\nname fin\ngenerator g {' '.join(map(str, members))}\n")
        (tmp_path / "tgt.ideal").write_text(
            "ideal v1 ground=interval params=65536\nname summable\nsurrogate summable-bound weight=1000\n")
        (tmp_path / "f.morphism").write_text("morphism v1\nformula=identity\n")
        argv = ["katetov", "--morphism", str(tmp_path / "f.morphism"),
                "--source", str(tmp_path / "src.ideal"), "--target", str(tmp_path / "tgt.ideal")]
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["checks"] == [{"generator": "g", "ok": True, "measure": f"weight {frac_text(weight)}"}]

    @pytest.mark.parametrize("argv", [
        ["levels", "--max-len", "8", "--depth", "20"],
        ["levels", "--max-len", "4", "--depth", "12"],
        ["pairing", "--base-levels", "1,2", "--cap", "3", "--depth", "8"],
    ])
    def test_constructions_below_the_work_cap_run(self, argv, capsys):
        code, body, _ = run_json(argv, capsys)
        assert code == 0
        assert body["all_pass"] is True


@pytest.fixture
def cli_command(monkeypatch):
    """`python -m hlbench.cli`, with the package found by absolute path from any cwd."""
    paths = [str(Path(hlbench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
    return [sys.executable, "-m", "hlbench.cli"]


@pytest.mark.parametrize("case", cli_cases.CASES, ids=[case.name for case in cli_cases.CASES])
def test_cli_case(case, cli_command, tmp_path):
    assert cli_cases.run(case, cli_command, tmp_path)[1] == []


def test_case_runner_resolves_a_relative_pythonpath(monkeypatch, capsys):
    """The runner's own spelling from a checkout root: `PYTHONPATH=src ... python3 -m hlbench.cli`."""
    src = Path(hlbench.__file__).resolve().parents[1]
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", src.name)
    monkeypatch.setattr(cli_cases, "CASES", [case for case in cli_cases.CASES if case.name == "katetov-list"])
    # -S: no site module, so an installed hlbench cannot stand in for the one on the path.
    assert cli_cases.main(["cli_cases.py", sys.executable, "-S", "-m", "hlbench.cli"]) == 0
    assert capsys.readouterr().out.endswith("1 of 1 cases pass\n")


class TestInputCaps:
    """Header sizes stop at ELEMENT_CAP elements; the case table runs the at-cap and past-cap headers."""

    def test_full_at_cap_profiles_match_the_reference(self, cli_command, tmp_path):
        # Every member and every cell: the largest bodies the capped headers allow.
        side = PARAMS_MAX["grid"]
        assert (cli_cases.ELEMENT_CAP, cli_cases.GRID_SIDE) == (ELEMENT_CAP, side)
        assert side * side == ELEMENT_CAP == PARAMS_MAX["interval"]
        nat = NatSet.of(range(ELEMENT_CAP), ELEMENT_CAP)
        grid = GridSet.of(((c, r) for c in range(side) for r in range(side)), side)
        hits, natural = 0, []
        for n in range(1, ELEMENT_CAP + 1):
            hits += (n - 1) in nat.members
            natural.append(_str_frac(Fraction(hits, n)))
        windows = [range(1 << n, 2 << n) for n in range(ELEMENT_CAP.bit_length() - 1)]
        nat_report = {
            "size": ELEMENT_CAP,
            "density_natural": natural,
            "density_dyadic": [_str_frac(Fraction(len(nat.members.intersection(w)), len(w))) for w in windows],
            # H_65536, a fraction of about 28 000 digits a side.
            "summable_weight": _str_frac(summable_weight(nat)),
        }
        grid_report = {"size": ELEMENT_CAP, "column_profile": [side] * side}
        files = {"a.natset": natset_to_text(nat), "a.gridset": gridset_to_text(grid)}
        for kind, want in (("natset", nat_report), ("gridset", grid_report)):
            case = cli_cases.Case(f"full-{kind}", f"profile --input a.{kind}", 0, bound=10, files=files,
                                  stdout=lambda r, want=want: {k: r[k] for k in want} == want)
            assert cli_cases.run(case, cli_command, tmp_path)[1] == []


def _str_frac(q: Fraction) -> str:
    """"p/q" by plain str(), with the interpreter's int-to-str digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


class TestErrorPaths:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(["profile", "--input", "/nonexistent/a.natset"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_unreadable_file_messages(self, tmp_path, capsys):
        missing = str(tmp_path / "a.natset")
        (tmp_path / "b.natset").write_text("natset v1 bound=4\n")
        for path, reason in ((missing, "No such file or directory"), (str(tmp_path), "Is a directory"),
                             (f"{tmp_path / 'b.natset'}/", "Not a directory")):
            code, out, err = run(["profile", "--input", path], capsys)
            assert (code, out, err) == (2, "", f"hlbench: error: cannot read {path}: {reason}\n")

    def test_memory_error_is_one_line(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(text):
            raise MemoryError

        monkeypatch.setattr("hlbench.ideals.natset_from_text", out_of_memory)
        path = tmp_path / "a.natset"
        path.write_text("natset v1 bound=4\n1\n")
        assert run(["profile", "--input", str(path)], capsys) == (2, "", "hlbench: error: out of memory\n")

    def test_depth_contradicts_coloring(self, coloring_file, capsys):
        argv = ["search", "--height", "1", "--coloring", coloring_file, "--depth", "9"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "contradicts" in err

    def test_budget_too_small_is_usage_error(self, capsys):
        code, out, err = run(["search", "--depth", "5", "--height", "1", "--budget", "1", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "hlbench: error: node budget 1 completes no embedding\n"

    def test_budget_past_the_cap_is_usage_error(self, capsys):
        argv = ["search", "--depth", "40", "--height", "2", "--budget", str(BUDGET_CAP + 1), "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"hlbench: error: node_budget {BUDGET_CAP + 1} above the cap {BUDGET_CAP}\n"
        assert BUDGET_CAP == 1048576

    @pytest.mark.parametrize(
        "p1, p2, named",
        [
            ("random-set:sede=3", "min-legal", "'random-set' takes no parameter 'sede'"),
            ("empty:seed=3", "min-legal", "'empty' takes no parameter 'seed'"),
            ("empty", "min-legal:foo=1", "'min-legal' takes no parameter 'foo'"),
        ],
    )
    def test_game_refuses_unread_strategy_parameters(self, capsys, p1, p2, named):
        code, out, err = run(["game", "--p1", p1, "--p2", p2, "--horizon", "3", "--window", "16"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"hlbench: error: strategy {named}\n"

    @pytest.mark.parametrize("n_max", [5, 40, 10**9])
    def test_zdensity_nmax_out_of_range(self, n_max, capsys):
        code, out, err = run(["zdensity", "--nmax", str(n_max)], capsys)
        assert (code, out, err) == (2, "", f"hlbench: error: n_max {n_max} outside [1, 4]\n")

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

    @pytest.mark.parametrize("bound, ell", [(8, 0), (1, 5)])
    def test_bad_ell_is_refused_before_the_statistics(self, bound, ell, tmp_path, monkeypatch, capsys):
        def unreachable(nat):
            raise AssertionError("summable_weight ran before --ell was checked")

        monkeypatch.setattr("hlbench.ideals.summable_weight", unreachable)
        path = tmp_path / "a.natset"
        path.write_text(natset_to_text(NatSet.of({0}, bound)))
        code, out, err = run(["profile", "--input", str(path), "--ell", str(ell), "--threshold", "1"], capsys)
        assert (code, out, err) == (2, "", f"hlbench: error: ell {ell} outside [1, {bound}]\n")

    @pytest.mark.parametrize(
        "kind, flags, named",
        [
            ("gridset", ["--ell", "2", "--threshold", "1"], "--ell"),
            ("gridset", ["--threshold", "1"], "--threshold"),
            ("nodeset", ["--ell", "2"], "--ell"),
            ("nodeset", ["--threshold", "1"], "--threshold"),
            ("natset", ["--threshold", "1"], "--threshold needs --ell"),
            ("gridset", ["--cmp", "gt"], "--cmp"),
            ("nodeset", ["--cmp", "ge"], "--cmp"),
            ("natset", ["--cmp", "gt"], "--cmp needs --ell"),
        ],
    )
    def test_profile_refuses_unused_flags(self, kind, flags, named, tmp_path, capsys):
        path = tmp_path / f"a.{kind}"
        path.write_text({
            "natset": natset_to_text(NatSet.of({1}, 8)),
            "gridset": gridset_to_text(GridSet.of({(0, 1)}, 4)),
            "nodeset": nodeset_to_text(NodeSet.of({"01"}, 4)),
        }[kind])
        code, out, err = run(["profile", "--input", str(path), *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("hlbench: error: ") and named in err

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

    @pytest.mark.parametrize("target_size, surrogate, message", [
        (8, "", "identity needs equal grounds, got interval/8 -> interval/4"),
        (8, "surrogate generator-union\n", "identity needs equal grounds, got interval/8 -> interval/4"),
        (4, "", "target presentation 'ideal' has no membership surrogate"),
    ], ids=["both faults", "grounds only", "surrogate only"])
    def test_formula_grounds_are_checked_before_the_surrogate(self, target_size, surrogate, message, tmp_path,
                                                              capsys):
        # A formula becomes its table when the file is read, so its grounds are
        # checked before the target's surrogate is looked for.
        (tmp_path / "f.morphism").write_text("morphism v1\nformula=identity\n")
        (tmp_path / "s.ideal").write_text("ideal v1 ground=interval params=4\n")
        (tmp_path / "t.ideal").write_text(f"ideal v1 ground=interval params={target_size}\n{surrogate}")
        argv = ["katetov", "--morphism", str(tmp_path / "f.morphism"),
                "--source", str(tmp_path / "s.ideal"), "--target", str(tmp_path / "t.ideal")]
        assert run(argv, capsys) == (2, "", f"hlbench: error: {message}\n")

    def test_katetov_needs_some_selection(self, capsys):
        code, _, err = run(["katetov"], capsys)
        assert code == 2
        assert "--builtin" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--builtin", "fin_to_z_identity", "--counterexample", "fin_to_z_one_point"],
             "--builtin and --counterexample"),
            (["--list", "--builtin", "fin_to_z_identity"], "--list and --builtin"),
            (["--list", "--morphism", "f.morphism", "--source", "s.ideal", "--target", "t.ideal"],
             "--list and --morphism"),
            (["--counterexample", "fin_to_z_one_point", "--morphism", "f.morphism"],
             "--counterexample and --morphism"),
            (["--builtin", "fin_to_z_identity", "--source", "s.ideal"], "--source and --target need --morphism"),
            (["--list", "--target", "t.ideal"], "--source and --target need --morphism"),
        ],
    )
    def test_katetov_refuses_flag_combinations(self, flags, named, capsys):
        code, out, err = run(["katetov", *flags], capsys)
        assert code == 2
        assert out == ""
        assert named in err

    def test_game_coloring_needs_tree_builder(self, coloring_file, capsys):
        argv = ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "3", "--window", "16",
                "--coloring", coloring_file]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--coloring" in err and "tree-builder" in err

    def test_bad_int_list(self, capsys):
        code, _, err = run(["pairing", "--base-levels", "1,x", "--depth", "6"], capsys)
        assert code == 2
        assert "comma-separated" in err


# ---------------------------------------------------------------------------
# the report writer
# ---------------------------------------------------------------------------

report_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", '\\"', "\x00", "\x1f", "\n\t\r", "\x7f", "é", "\u2028", "\U0001f600", "a/b", ""]),
)
report_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**60), 10**60), report_text
)
report_values = st.recursive(
    report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(report_text, inner, max_size=5),
        st.lists(st.integers(), max_size=8),
        st.lists(report_text, max_size=8),
    ),
    max_leaves=40,
)


class TestWriter:
    """`_json` writes exactly `json.dumps(value, sort_keys=True, indent=2)` or raises TypeError."""

    @given(report_values)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)

    class _Level(enum.IntEnum):
        TOP = 3

    class _Name(str):
        pass

    _Pair = collections.namedtuple("_Pair", "node color")

    # The subclasses are not keys of the writer's type table; they are written as json.dumps writes them.
    @pytest.mark.parametrize(
        "value",
        [{}, [], (), {"a": []}, [[], {}], [True, False, None, 0, -1], [1, True], ["x", 1], [[1, 2], ["a"]],
         {"b": {"c": (1, "d")}, "a": -(10**30)}, "\u00e9\ud800", [None, None], [False, True],
         _Level.TOP, [_Level.TOP, 1], {"a": _Level.TOP}, _Name("x\u00e9"), [_Name("a"), "b"], {_Name("k"): _Name("v")},
         _Pair("01", 1), [_Pair("0", 0)], collections.OrderedDict([("b", 1), ("a", [True])]), {"a": [1, True, None]}],
    )
    def test_examples(self, value):
        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), {1, 2}, frozenset(), {1: "a"}, {None: 1}, {("a",): 1}, [1, 2.0], {"a": [Fraction(1)]},
         ["a", {"b": {3}}], {"a": 1, 2: "b"}, b"bytes"],
    )
    def test_other_values_raise(self, value):
        with pytest.raises(TypeError):
            _json(value)


# ---------------------------------------------------------------------------
# byte pins: the exit status and stdout of fixed seeded runs
# ---------------------------------------------------------------------------


def _write_profile_inputs(rng: random.Random) -> None:
    """Seeded natsets (bounds 4096 and 16384), a gridset (bound 64) and a nodeset (depth 12) in the cwd."""
    members = [m for m in range(4096) if rng.random() < 0.25]
    cells = [(c, r) for c in range(64) for r in range(64) if rng.random() < 0.3]
    nodes = [format(i, f"0{n}b") if n else "-" for n in range(12) for i in range(1 << n) if rng.random() < 0.05]
    # The benchmark's natset size and density, drawn last so the other files keep their bytes.
    wide = [m for m in range(16384) if rng.random() < 0.25]
    Path("a.natset").write_text("\n".join(["natset v1 bound=4096", *map(str, members)]) + "\n")
    Path("b.natset").write_text("\n".join(["natset v1 bound=16384", *map(str, wide)]) + "\n")
    Path("e.gridset").write_text("\n".join(["gridset v1 bound=64", *(f"{c} {r}" for c, r in cells)]) + "\n")
    Path("s.nodeset").write_text("\n".join(["nodeset v1 depth=12", *nodes]) + "\n")


def _node_token(s: str) -> str:
    return s if s else "-"


def _write_katetov_game_inputs(rng: random.Random) -> None:
    """Seeded ideal, morphism and coloring files in the cwd, written as plain text.

    Four morphism checks, one per surrogate, each through a table:
    `z`: interval/1024 -> interval/1024 under dyadic-density;
    `fxf`: grid/24 -> interval/24 under column-bound;
    `union`: nodes/6 -> nodes/6 under generator-union (length-lex pivots);
    `sum`: interval/128 -> interval/128 under summable-bound.
    Four more through a formula line: `formula=identity` on interval/256
    (`idint`), grid/12 (`idgrid`) and nodes/5 (`idnodes`), and
    `formula=column-projection` from grid/16 to interval/16 (`proj`).
    """

    def ideal(name, kind, size, surrogate, generators):
        lines = [f"ideal v1 ground={kind} params={size}", f"name {name}"]
        if surrogate:
            lines.append(f"surrogate {surrogate}")
        lines += [f"generator {g} {' '.join(els)}".rstrip() for g, els in generators]
        return "\n".join(lines) + "\n"

    def morphism(pairs):
        return "\n".join(["morphism v1", *(f"{y} -> {x}" for y, x in pairs)]) + "\n"

    n = 1024
    gens = [(f"g{i}", [str(m) for m in sorted(rng.sample(range(8, n), 3))]) for i in range(32)]
    Path("z.src.ideal").write_text(ideal("fin", "interval", n, None, gens))
    Path("z.tgt.ideal").write_text(ideal("density-zero", "interval", n, "dyadic-density eps=1/8 floor=3", ()))
    image = list(range(n))
    for _ in range(16):
        y = rng.randrange(8, n)
        image[y] = rng.randrange(n)
    Path("z.morphism").write_text(morphism((y, image[y]) for y in range(n)))

    n = 24
    cells = [(c, r) for c in range(n) for r in range(n)]
    gens = [(f"g{i}", [str(m) for m in sorted(rng.sample(range(n), 2))]) for i in range(12)]
    Path("fxf.src.ideal").write_text(ideal("fin", "interval", n, None, gens))
    Path("fxf.tgt.ideal").write_text(ideal("finxfin", "grid", n, "column-bound per_column=3 exceptional=2", ()))
    Path("fxf.morphism").write_text(
        morphism((f"{c},{r}", c if rng.random() < 0.9 else rng.randrange(n)) for c, r in cells)
    )

    depth = 6
    nodes = [format(i, f"0{k}b") if k else "" for k in range(depth) for i in range(1 << k)]
    gens = [(f"g{i}", [_node_token(s) for s in rng.sample(nodes, 4)]) for i in range(10)]
    Path("union.src.ideal").write_text(ideal("nodes", "nodes", depth, None, gens))
    cover = [(f"c{i}", [_node_token(s) for s in rng.sample(nodes, 12)]) for i in range(8)]
    Path("union.tgt.ideal").write_text(ideal("cover", "nodes", depth, "generator-union max=3", cover))
    Path("union.morphism").write_text(
        morphism((_node_token(y), _node_token(rng.choice(nodes))) for y in rng.sample(nodes, len(nodes)))
    )

    n = 128
    gens = [(f"g{i}", [str(m) for m in sorted(rng.sample(range(n), 5))]) for i in range(16)]
    Path("sum.src.ideal").write_text(ideal("fin", "interval", n, None, gens))
    Path("sum.tgt.ideal").write_text(ideal("summable", "interval", n, "summable-bound weight=1/2", ()))
    Path("sum.morphism").write_text(morphism((y, rng.randrange(n)) for y in range(n)))

    lines = ["coloring v1 depth=12"]
    for k in range(12):
        lines += [f"{_node_token(format(i, f'0{k}b') if k else '')} 1" for i in range(1 << k) if rng.random() < 0.5]
    Path("g.coloring").write_text("\n".join(lines) + "\n")

    identity, projection = "morphism v1\nformula=identity\n", "morphism v1\nformula=column-projection\n"
    n = 256
    gens = [(f"g{i}", [str(m) for m in sorted(rng.sample(range(4, n), 3))]) for i in range(12)]
    Path("idint.src.ideal").write_text(ideal("fin", "interval", n, None, gens))
    Path("idint.tgt.ideal").write_text(ideal("density-zero", "interval", n, "dyadic-density eps=1/4 floor=2", ()))
    Path("idint.morphism").write_text(identity)

    n = 12
    cells = [f"{c},{r}" for c in range(n) for r in range(n)]
    gens = [(f"g{i}", rng.sample(cells, 5)) for i in range(8)]
    Path("idgrid.src.ideal").write_text(ideal("ed", "grid", n, None, gens))
    Path("idgrid.tgt.ideal").write_text(ideal("finxfin", "grid", n, "column-bound per_column=1 exceptional=1", ()))
    Path("idgrid.morphism").write_text(identity)

    depth = 5
    nodes = [format(i, f"0{k}b") if k else "" for k in range(depth) for i in range(1 << k)]
    gens = [(f"g{i}", [_node_token(s) for s in rng.sample(nodes, 3)]) for i in range(8)]
    Path("idnodes.src.ideal").write_text(ideal("nodes", "nodes", depth, None, gens))
    cover = [(f"c{i}", [_node_token(s) for s in rng.sample(nodes, 8)]) for i in range(6)]
    Path("idnodes.tgt.ideal").write_text(ideal("cover", "nodes", depth, "generator-union max=2", cover))
    Path("idnodes.morphism").write_text(identity)

    n = 16
    gens = [(f"g{i}", [str(m) for m in sorted(rng.sample(range(n), rng.randint(1, 2)))]) for i in range(6)]
    Path("proj.src.ideal").write_text(ideal("fin", "interval", n, None, gens))
    Path("proj.tgt.ideal").write_text(ideal("finxfin", "grid", n, "column-bound per_column=15 exceptional=1", ()))
    Path("proj.morphism").write_text(projection)


def _morphism_argv(stem: str) -> list[str]:
    return ["katetov", "--morphism", f"{stem}.morphism", "--source", f"{stem}.src.ideal", "--target", f"{stem}.tgt.ideal"]


def _write_hset_inputs(rng: random.Random) -> None:
    """A seeded coloring of 2^<12, the closure of 6 seeded branches, and commented copies of both."""
    depth = 12
    coloring = [f"{_node_token(format(i, f'0{k}b') if k else '')} {rng.getrandbits(1)}"
                for k in range(depth) for i in range(1 << k)]
    tops = [format(i, f"0{depth - 1}b") for i in rng.sample(range(1 << (depth - 1)), 6)]
    tree = [_node_token(s) for k in range(depth) for s in sorted({t[:k] for t in tops})]
    coloring_head, tree_head = f"coloring v1 depth={depth}", f"tree v1 depth={depth}"
    Path("plain.coloring").write_text("\n".join([coloring_head, *coloring]) + "\n")
    Path("plain.tree").write_text("\n".join([tree_head, *tree]) + "\n")
    half = len(coloring) // 2
    Path("commented.coloring").write_text(
        "\n".join([coloring_head, "# first half", *coloring[:half], "", "   # second half", *coloring[half:], "#"]) + "\n"
    )
    Path("commented.tree").write_text("\n".join([tree_head, "# closure of the branches", *tree, ""]) + "\n")


def _write_search_inputs(rng: random.Random) -> None:
    """A seeded coloring of 2^<6 in the cwd, every node listed."""
    lines = [f"{_node_token(format(i, f'0{k}b') if k else '')} {rng.getrandbits(1)}"
             for k in range(6) for i in range(1 << k)]
    Path("s.coloring").write_text("\n".join(["coloring v1 depth=6", *lines]) + "\n")


# (id, argv, exit status, SHA-256 of stdout), one row per run.  Every report
# carries the package version, so a version bump changes every digest.
BYTE_PINS = [
    # `profile`: recorded with the per-window, per-tail Fraction
    # implementations the one-pass statistics replaced.
    ("profile a.natset", ["profile", "--input", "a.natset", "--ell", "16", "--threshold", "5"], 0,
        "b4804c8e73f04b7fb44af98a8e11b5d1bb0adf4d4ef939ccd094b0b4ad4545a9"),
    ("profile b.natset", ["profile", "--input", "b.natset", "--ell", "64", "--threshold", "16"], 0,
        "1092e2582fe0ad0b5a6fcc739a425024fb446bb610664429d28bfa6b27bda8be"),
    ("profile e.gridset", ["profile", "--input", "e.gridset"], 0,
        "57fcad362e69b319e44f6ae6a74772d9911f4a519b2c1de1fe0e32c0e6ab698c"),
    ("profile s.nodeset", ["profile", "--input", "s.nodeset"], 0,
        "1b103bc053d4b0ea79da42161844fa1683cb6877de2cd1206181cf7d6fe59a46"),
    # `katetov` and `game`: recorded with one hand-written parser branch and
    # `parameters()` per surrogate, one class per player I strategy, and one
    # `apply` call per target element per generator.
    ("builtin fin_to_z_identity", ["katetov", "--builtin", "fin_to_z_identity"], 0,
        "a2cebda77c3b93dd62865ec45bd8bca6dffa061570ea89e82406fd1ac7ba52ca"),
    ("builtin summable_to_z_identity", ["katetov", "--builtin", "summable_to_z_identity"], 0,
        "07e630c1c119ef5a7f94d6e08e05703d3f31bc48358679a50ea85dcf0181592a"),
    ("builtin ed_to_finxfin_identity", ["katetov", "--builtin", "ed_to_finxfin_identity"], 0,
        "8407d217e03f23db0df9d5e8bf935cbb08545dbf98fdf352471fc7dc316d79e8"),
    ("builtin fin_to_finxfin_projection", ["katetov", "--builtin", "fin_to_finxfin_projection"], 0,
        "0e88c1f1dc45db879cedf1ec8f32ab237416dbb0a442e9791c4addb1d9ccdfe7"),
    ("counterexample", ["katetov", "--counterexample", "fin_to_z_one_point"], 1,
        "b3ca1464358f766f5242a73acb9709a36572d7c202f8ef4fa868ab6816265989"),
    ("morphism z", _morphism_argv("z"), 0,
        "7c9f844e8ecf744295866435d4a5d3e0fbf945a74c4b9e26b984d2d988cfa6eb"),
    ("morphism fxf", _morphism_argv("fxf"), 0,
        "b986447ca0396062b041d1cbb0a5e109b6bbbac9d969acd131b9b267ed2e569d"),
    ("morphism union", _morphism_argv("union"), 1,
        "d8c05181188e9d5ee5258393e90e27d54491f3de43f082b14a53eea6531922d5"),
    ("morphism sum", _morphism_argv("sum"), 1,
        "7224c91f9e2e692cacccb0480213b5d04590ac5ebd238f5f64e7ce901cf516be"),
    ("formula identity interval", _morphism_argv("idint"), 0,
        "d063369d2f2f02b7f99250ba9ff0eb698578217c8ab97894d649d9e92d62e7e5"),
    ("formula identity grid", _morphism_argv("idgrid"), 1,
        "c3ff612b25b5529216b4445c1ee15e93bbfa7d378b50d65c443ef62661d9eee3"),
    ("formula identity nodes", _morphism_argv("idnodes"), 1,
        "c2ebc5dc695aa81bb4ac1cc8485f4f0f4cd69923b192a0d3e6853cbd25b99f6d"),
    ("formula column-projection", _morphism_argv("proj"), 1,
        "26daffa914fe926027a6ceb253b72990ed64b7a8a7eb1362816fa299c5d3cec9"),
    ("game initial-segment",
        ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "12", "--window", "4096"], 0,
        "a93d916b206fc333804958f516438d27d1901c4f0f2fe05f7e83fea790b5b219"),
    ("game initial-segment saturates",
        ["game", "--p1", "initial-segment", "--p2", "min-legal", "--horizon", "9", "--window", "40"], 0,
        "699018220b7571fa7cc43b2a00c3f4b2749e464346137f0f1dd7198ca8756879"),
    ("game empty",
        ["game", "--p1", "empty", "--p2", "min-legal-increasing", "--horizon", "5", "--window", "64"], 0,
        "49c87b667dde97328c108c6d06f399b9741d34bfdca1907adfd6b0ebfe6e5c6c"),
    ("game random",
        ["game", "--p1", "random-set:seed=41", "--p2", "random-pick:seed=42",
         "--horizon", "8", "--window", "512"], 0,
        "a88fb7c1a74f54457845f664d6caf8af4a732d8845a84239ac183ea9f9e24ad2"),
    ("game random default seed",
        ["game", "--p1", "random-set", "--p2", "random-pick", "--horizon", "6", "--window", "64", "--seed", "9"], 0,
        "311c573066d3e4155eed84af1245d027284e83a9ea8b1e42f875cab15eadabb1"),
    ("game tree-builder",
        ["game", "--p1", "tree-builder", "--p2", "random-pick:seed=17", "--horizon", "6", "--window", "12",
         "--coloring", "g.coloring"], 0,
        "c64a79b4cf6a1346072f170f2861ca7466bdad00f4205d93609719e8aef82d9a"),
    ("game tree-builder stuck",
        ["game", "--p1", "tree-builder", "--p2", "min-legal", "--horizon", "4", "--window", "12",
         "--coloring", "g.coloring"], 0,
        "aa499ffa11d186a9a05fc575942777b069021b82652d6eaf0e619c82fe25c0a9"),
    # `hset`, `zdensity`, `pairing` and `levels`: recorded with the tree-based
    # pairing check (one two-branch `LevelTree` and one `h_set` call per
    # branch pair) and the dense coloring backend.
    ("hset plain", ["hset", "--coloring", "plain.coloring", "--tree", "plain.tree"], 0,
        "e60bee3ecd96b27db82a433e9deb7073e941346509539ae4c2f63a9f50fed9af"),
    ("hset commented", ["hset", "--coloring", "commented.coloring", "--tree", "commented.tree"], 0,
        "f87c70992be561c93af1969353216bc8f8374641b197b888b4511047c8386a3d"),
    ("zdensity", ["zdensity", "--nmax", "4"], 0,
        "7c059794dab346563d95b990a18cf76b07120b57da0df01a64e912586c95dcb3"),
    ("pairing 1,2 cap 3 depth 8", ["pairing", "--base-levels", "1,2", "--cap", "3", "--depth", "8"], 0,
        "f82498bc1512c43051e6a6ec7d8384feab6383e17e5b060b798650c5b4651c31"),
    ("pairing 2,3 cap 2 depth 7", ["pairing", "--base-levels", "2,3", "--cap", "2", "--depth", "7"], 0,
        "dedb708fb8dd586cdccd8bf1bf9e3dc428d3daec10fd91f9104899c1c9a1e190"),
    ("levels 8 depth 20", ["levels", "--max-len", "8", "--depth", "20"], 0,
        "918013505ec9387187978238528ad2b60c8ffb8c7540ec22876c43055b43b2cf"),
    ("levels 4 depth 12", ["levels", "--max-len", "4", "--depth", "12"], 0,
        "e90a373558ce6bee6fbc8fe1f21b209b88cf8f36251a37d03fdc8989fb568f0f"),
    # `search` and `search-levels`: recorded with `json.dumps(..., indent=2)`
    # as the report writer; the height-2 complete runs' `explored` re-recorded
    # for the tie-order walk and again for the DP that forms only the sets an
    # ancestor reads, every other byte unchanged.
    ("search d5 h2", ["search", "--depth", "5", "--height", "2", "--seed", "3"], 0,
        "23ca4c8631d9ab9004714b958996c3276426191a8907cce17ae2486a47eec2a7"),
    ("search-levels d5 h2", ["search-levels", "--depth", "5", "--height", "2", "--seed", "3"], 0,
        "a05b585e84f70853c5e2f8b3a58b4d60ffba5128deba60982cac661c529eec81"),
    ("search d5 h2 oracle", ["search", "--depth", "5", "--height", "2", "--seed", "8", "--oracle"], 0,
        "738e5f8ad229d700f8d4f3a4b7420b3997c63922a7032426bd587ed1b0085f73"),
    ("search-levels d6 h1 oracle", ["search-levels", "--depth", "6", "--height", "1", "--seed", "8", "--oracle"], 0,
        "4b63d294441019c866f208230d96275e6599b7f2b968c10e7fe2a39c4c260bd6"),
    ("search coloring h2", ["search", "--height", "2", "--coloring", "s.coloring"], 0,
        "042bdcca79663afb2177705ab2da9ee9122395b6833ba183710abba47a5f3a4a"),
    ("search-levels coloring h1 oracle", ["search-levels", "--height", "1", "--coloring", "s.coloring", "--oracle"], 0,
        "e6bc562410d24897db22e9448b9861c10f36b3aad5b8ad0028f72bdde85b0d94"),
    ("search d7 h2 truncated", ["search", "--depth", "7", "--height", "2", "--seed", "1", "--budget", "40"], 1,
        "d5a4d476588da24f24d19a87d5196eaac30d3584206e3887af67c8a3daa7492f"),
    ("search d4 h0", ["search", "--depth", "4", "--height", "0", "--seed", "2"], 0,
        "a0aaad1ca830ddaede00cb4b4a6d7f23a55144f9423f3ea4c61e4b89be3aea29"),
]


@pytest.fixture(scope="module")
def byte_pin_inputs(tmp_path_factory):
    """One directory with every pin's input files, each writer drawing from its own seed."""
    directory = tmp_path_factory.mktemp("byte_pins")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        _write_profile_inputs(random.Random(20211))
        _write_katetov_game_inputs(random.Random(20215))
        _write_hset_inputs(random.Random(20217))
        _write_search_inputs(random.Random(20219))
    return directory


@pytest.mark.parametrize("argv, status, digest", [pin[1:] for pin in BYTE_PINS], ids=[pin[0] for pin in BYTE_PINS])
def test_stdout_digest(argv, status, digest, byte_pin_inputs, monkeypatch, capsys):
    # Relative paths keep the report's `config` the same in every run.
    monkeypatch.chdir(byte_pin_inputs)
    code, out, _ = run(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (status, digest)
