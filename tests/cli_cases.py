"""The CLI's exit-status and refusal contract, one case per row of CASES.

A case runs `hlbench <argv>` in a child process, in a fresh directory that
holds its input files, under a 1 GiB address-space limit and with its wall
bound as the timeout.  It checks:

- the exit status: 0 when a property holds, 1 when it fails, 2 when an input
  or a limit is refused;
- stdout: empty, a report the case's predicate accepts, or CLOSED (a pipe
  whose read end is closed).  A report must be the bytes of
  `json.dumps(report, sort_keys=True, indent=2)` and a newline;
- stderr: exactly the case's text, so never a traceback.

Stdlib only, importing neither pytest nor hlbench, so that it checks an
installed build as it stands.  Tier-1 runs every case through
`python -m hlbench.cli` (`tests/test_cli.py::test_cli_case`); against an
installed console script:

    python3 tests/cli_cases.py hlbench

prints one line per case with its wall time and exits 1 if any case fails.
From the root of a checkout, without installing:

    PYTHONPATH=src python3 tests/cli_cases.py python3 -m hlbench.cli

Each case runs in a directory of its own, so `main` first makes every
relative `PYTHONPATH` entry absolute.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

CLOSED = "closed"
ADDRESS_SPACE = 1 << 30


@dataclass(frozen=True)
class Case:
    """One row of the contract: what to run, and the exit status, stdout, stderr and wall time it must show."""

    name: str
    argv: str  # words split on spaces
    status: int
    stdout: Callable[[dict], bool] | str | None = None  # None: empty
    stderr: str = ""
    bound: float = 5.0  # seconds
    files: dict[str, str] = field(default_factory=dict)  # name -> text


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(case: Case, command: list[str], cwd: Path) -> tuple[float, list[str]]:
    """Run `case` through `command` (the argv before the subcommand) in cwd: its wall time and what it broke."""
    for name, text in case.files.items():
        (cwd / name).write_text(text)
    stdout = subprocess.PIPE
    if case.stdout == CLOSED:
        read_end, stdout = os.pipe()
        os.close(read_end)
    start = time.perf_counter()
    try:
        proc = subprocess.run([*command, *case.argv.split()], cwd=cwd, stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=case.bound, check=False, preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        return case.bound, [f"no exit within its bound of {case.bound} s"]
    finally:
        if case.stdout == CLOSED:
            os.close(stdout)
    wall = time.perf_counter() - start
    problems = []
    if proc.returncode != case.status:
        problems.append(f"exit {proc.returncode}, want {case.status}")
    if proc.stderr != case.stderr:
        problems.append(f"stderr {proc.stderr!r}, want {case.stderr!r}")
    if proc.stdout:
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = None
        if report is None or proc.stdout != json.dumps(report, sort_keys=True, indent=2) + "\n":
            problems.append("stdout is not json.dumps(report, sort_keys=True, indent=2) plus a newline")
        elif not callable(case.stdout):
            problems.append("stdout is not empty")
        else:
            try:
                accepted = case.stdout(report)
            except (LookupError, TypeError):
                accepted = False
            if not accepted:
                problems.append("the report fails the case's predicate")
    elif callable(case.stdout):
        problems.append("stdout is empty")
    return wall, problems


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

KATETOV = "katetov --morphism f.morphism --source s.ideal --target t.ideal"
IDENTITY = "morphism v1\nformula=identity\n"
# treecore.ELEMENT_CAP, katetov.PARAMS_MAX["interval"] and PARAMS_MAX["grid"] squared.
ELEMENT_CAP = 1 << 16
GRID_SIDE = 1 << 8


def _words(items) -> str:
    return " ".join(map(str, items))


# capped header field -> (argv, the report's rule at the cap, the refusal one past it)
CAPPED = {
    "natset": ("profile --input a.natset", lambda r: r["size"] == 0, "bound 65537 outside [1, 65536]"),
    "gridset": ("profile --input a.gridset", lambda r: r["size"] == 0, "bound 65537 outside [1, 65536]"),
    "interval": (KATETOV, lambda r: r["pass"] is True, "params 65537 outside [1, 65536]"),
    "grid": (KATETOV, lambda r: r["pass"] is True, "params 257 outside [1, 256]"),
}


def _header_only(field_name: str, cap: int, side: int) -> dict[str, str]:
    """Files sized at `cap` elements (a grid side of `side`) with empty bodies, for one capped header field."""
    union = "surrogate generator-union max=1\n"
    return {
        "natset": {"a.natset": f"natset v1 bound={cap}\n"},
        "gridset": {"a.gridset": f"gridset v1 bound={cap}\n"},
        "interval": {"f.morphism": IDENTITY, "s.ideal": f"ideal v1 ground=interval params={cap}\n",
                     "t.ideal": f"ideal v1 ground=interval params={cap}\n{union}"},
        "grid": {"f.morphism": IDENTITY, "s.ideal": f"ideal v1 ground=grid params={side}\n",
                 "t.ideal": f"ideal v1 ground=grid params={side}\n{union}"},
    }[field_name]


def _cover(k: int, generators, most: int) -> dict[str, str]:
    """Is all of [0, k) covered by `most` of the target's `generators`?"""
    head = f"ideal v1 ground=interval params={k}\n"
    gens = "".join(f"generator g{i} {_words(g)}\n" for i, g in enumerate(generators))
    return {"f.morphism": IDENTITY, "s.ideal": f"{head}name fin\ngenerator all {_words(range(k))}\n",
            "t.ideal": f"{head}name cover\nsurrogate generator-union max={most}\n{gens}"}


def _summable_files() -> dict[str, str]:
    """A summable weight past str()'s 4300-digit limit: 5 000 seeded members of [0, 65536)."""
    head = "ideal v1 ground=interval params=65536\n"
    members = sorted(random.Random(0).sample(range(65536), 5000))
    return {"f.morphism": IDENTITY, "s.ideal": f"{head}name fin\ngenerator g {_words(members)}\n",
            "t.ideal": f"{head}name summable\nsurrogate summable-bound weight=1000\n"}


def _deep_nodeset() -> dict[str, str]:
    """3 000 seeded nodes of lengths 0 to 63, cut from 300 tips of length 63, so prefix chains reach the root."""
    rng = random.Random(0)
    tips = [format(rng.getrandbits(63), "063b") for _ in range(300)]
    nodes = sorted({rng.choice(tips)[: rng.randrange(64)] for _ in range(3000)}, key=lambda s: (len(s), s))
    return {"deep.nodeset": "nodeset v1 depth=64\n" + "".join(f"{s or '-'}\n" for s in nodes)}


def _singletons(k: int) -> dict[str, str]:
    """k singleton source generators, pulled back onto k target singletons at max=1."""
    head = f"ideal v1 ground=interval params={k}\n"
    gens = "".join(f"generator s{a} {a}\n" for a in range(k))
    return {"f.morphism": IDENTITY, "s.ideal": f"{head}name fin\n{gens}",
            "t.ideal": f"{head}name singletons\nsurrogate generator-union max=1\n{gens}"}


BUILTINS = ["ed_to_finxfin_identity", "fin_to_finxfin_projection", "fin_to_z_identity", "summable_to_z_identity"]
COUNTEREXAMPLES = ["fin_to_z_one_point"]
GAME = "game --p1 initial-segment --p2 min-legal --horizon 16 --window 65536"
ORACLE_REFUSED = "hlbench: error: enumeration bound 1349235556969537732608 exceeds node budget 1000000\n"


def _error(message: str) -> str:
    return f"hlbench: error: {message}\n"


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

CASES = [
    # Header sizes stop at ELEMENT_CAP elements, refused on line 1 before any allocation.
    *(Case(f"at-cap-{f}", argv, 0, stdout=report, files=_header_only(f, ELEMENT_CAP, GRID_SIDE))
      for f, (argv, report, _) in sorted(CAPPED.items())),
    *(Case(f"past-cap-{f}", argv, 2, stderr=_error(f"line 1: {refusal}"),
           files=_header_only(f, ELEMENT_CAP + 1, GRID_SIDE + 1)) for f, (argv, _, refusal) in sorted(CAPPED.items())),
    # Each would take hours or more memory than the limit; the closed-form
    # work count refuses it before anything is built.
    Case("levels-0-40", "levels --max-len 0 --depth 40", 2,
         stderr=_error("levels work 1099511627775 (domain of 1, 1099511627774 slice reads) above the cap 1048576")),
    Case("levels-30-40", "levels --max-len 30 --depth 40", 2,
         stderr=_error("levels work 36574332943 (domain of 2147483647, 34426849296 slice reads) above the cap 1048576")),
    Case("pairing-1-40", "pairing --base-levels 1 --depth 40", 2,
         stderr=_error("pairing work 75557863725914323419138 (pool of 2, 75557863725914323419136 trees) "
                       "above the cap 1048576")),
    Case("game-200-65536", "game --p1 random-set --p2 min-legal --window 65536 --horizon 200", 2,
         stderr=_error("game work 13107200 (horizon 200 times window 65536) above the cap 1048576")),
    # What needs no input file is refused before the file is parsed (profile)
    # or read (game): here the file is bad or missing too.
    Case("ell-without-threshold", "profile --input bad.natset --ell 2", 2, bound=2,
         files={"bad.natset": "natset v1 bound=8\n1\nx\n"}, stderr=_error("--threshold is required with --ell")),
    Case("game-cap-before-coloring",
         "game --p1 tree-builder --coloring missing.coloring --p2 min-legal --horizon 200 --window 65536", 2, bound=2,
         stderr=_error("game work 13107200 (horizon 200 times window 65536) above the cap 1048576")),
    Case("game-strategy-before-coloring",
         "game --p1 tree-builder --coloring missing.coloring --p2 psychic --horizon 3 --window 16", 2, bound=2,
         stderr=_error("unknown player II strategy 'psychic' (have ('min-legal', 'min-legal-increasing', 'random-pick'))")),
    # The oracle's enumeration bound is closed-form, so it is refused before the search.
    Case("oracle-20-2", "search --depth 20 --height 2 --seed 1 --oracle", 2, stderr=ORACLE_REFUSED, bound=2),
    Case("oracle-levels-20-2", "search-levels --depth 20 --height 2 --seed 1 --oracle", 2,
         stderr=ORACLE_REFUSED, bound=2),
    # A budget bounds the whole search; past BUDGET_CAP it is refused.
    Case("budget-100-40", "search --depth 40 --height 2 --budget 100 --seed 1", 1, bound=10,
         stdout=lambda r: r["complete"] is False and r["verified"] is True and r["explored"] <= 200),
    Case("budget-past-cap", "search --depth 40 --height 2 --budget 1048577 --seed 1", 2,
         stderr=_error("node_budget 1048577 above the cap 1048576")),
    # generator-union covers: a cover takes each generator at most once, and
    # the level search counts its work against WORK_CAP.
    Case("union-max-past-count", KATETOV, 1, files={
        "f.morphism": IDENTITY,
        "s.ideal": "ideal v1 ground=interval params=4\nname fin\ngenerator g 0 1\n",
        "t.ideal": "ideal v1 ground=interval params=4\nsurrogate generator-union max=1000000000000\ngenerator c 0\n",
    }, stdout=lambda r: r["checks"] == [
        {"generator": "g", "ok": False, "measure": "not covered by any 1000000000000 generator(s)"}]),
    # Deeper than Python's default recursion limit.
    Case("union-1100-singletons", KATETOV, 0, bound=10, files=_cover(1100, [(a,) for a in range(1100)], 1100),
         stdout=lambda r: r["checks"] == [{"generator": "all", "ok": True, "measure": "covered by 1100 generator(s)"}]),
    # A search that does not remember its failed remainders takes about a minute.
    Case("union-pairs-15-max-7", KATETOV, 1, bound=10, files=_cover(15, itertools.combinations(range(15), 2), 7),
         stdout=lambda r: r["pass"] is False),
    # The count passes the cap before level 5 (what 5 pairs leave) is formed.
    Case("union-pairs-21-max-10", KATETOV, 2, bound=10, files=_cover(21, itertools.combinations(range(21), 2), 10),
         stderr=_error("generator-union work 1175960 above the cap 1048576")),
    Case("union-4096-singletons", KATETOV, 0, bound=10, files=_singletons(4096),
         stdout=lambda r: r["pass"] is True and r["checked"] == 4096),
    Case("summable-past-str-digits", KATETOV, 0, files=_summable_files(),
         stdout=lambda r: r["pass"] is True),
    # A grid/2 -> interval/2 column projection as a table: the singleton {0}
    # pulls back to a full column, which the column bound refuses.
    Case("column-projection", KATETOV, 1, files={
        "s.ideal": "ideal v1 ground=interval params=2\nname fin\ngenerator {0} 0\n",
        "t.ideal": "ideal v1 ground=grid params=2\nname finxfin\nsurrogate column-bound per_column=0 exceptional=0\n",
        "f.morphism": "morphism v1\n0,0 -> 0\n0,1 -> 0\n1,0 -> 1\n1,1 -> 1\n",
    }, stdout=lambda r: r["pass"] is False),
    # Line 7 is bad: the bulk read fails, and the per-line pass names line 7
    # of the file, comments and blanks counted.
    Case("gridset-line-7", "profile --input a.gridset", 2,
         files={"a.gridset": "gridset v1 bound=8\n# cells\n0 0\n\n1 1\n  # more cells\n2 x\n3 3\n"},
         stderr=_error("line 7: expected '<col> <row>', got '2 x'")),
    # A 20 MB body whose line 3 repeats line 2: the per-line pass stops there
    # without pairing all ten million lines with their numbers first.
    Case("natset-long-duplicate", "profile --input a.natset", 2, bound=10,
         files={"a.natset": "natset v1 bound=8\n" + "1\n" * 10_000_000},
         stderr=_error("line 3: duplicate member 1")),
    Case("morphism-line-7", KATETOV, 2, files={
        "s.ideal": "ideal v1 ground=interval params=4\nname a\ngenerator g 1\n",
        "t.ideal": "ideal v1 ground=interval params=4\nname b\nsurrogate generator-union max=1\ngenerator g 1\n",
        "f.morphism": "morphism v1\n# table\n0 -> 0\n\n1 -> 1\n  # more\n2 -> x\n3 -> 3\n",
    }, stderr=_error("line 7: bad interval element 'x'")),
    # Constructions.  H_c(p) of a depth-4 tree with two branches, 000 and 011:
    # levels 0 and 1 hold one node each, level 2 has colors 0 (00) and 1 (01),
    # level 3 only 1.
    Case("hset", "hset --coloring c.coloring --tree p.tree", 0, files={
        "c.coloring": "coloring v1 depth=4\n01 1\n000 1\n011 1\n",
        "p.tree": "tree v1 depth=4\n-\n0\n00\n01\n000\n011\n",
    }, stdout=lambda r: r["levels"] == [0, 1, 3]),
    Case("zdensity-4", "zdensity --nmax 4", 0, stdout=lambda r: r["all_pass"] is True),
    Case("pairing-1,2-3-8", "pairing --base-levels 1,2 --cap 3 --depth 8", 0, stdout=lambda r: r["all_pass"] is True),
    Case("levels-8-20", "levels --max-len 8 --depth 20", 0, stdout=lambda r: r["all_pass"] is True),
    Case("game-16-65536", GAME, 0, stdout=lambda r: r["transcript"]["flags"]["completed"] is True),
    Case("deep-nodeset", "profile --input deep.nodeset", 0, bound=10, files=_deep_nodeset(),
         stdout=lambda r: r["phi_equals_antichain"] is True),
    # Katetov witnesses: the named list, each builtin, and the counterexample.
    Case("katetov-list", "katetov --list", 0,
         stdout=lambda r: r["builtins"] == BUILTINS and r["counterexamples"] == COUNTEREXAMPLES),
    *(Case(f"katetov-{name}", f"katetov --builtin {name}", 0, stdout=lambda r: r["pass"] is True)
      for name in BUILTINS),
    *(Case(f"katetov-{name}", f"katetov --counterexample {name}", 1, stdout=lambda r: r["pass"] is False)
      for name in COUNTEREXAMPLES),
    # Under --verbose a morphism file names each violated generator, as a builtin does.
    Case("katetov-file-verbose", f"{KATETOV} --verbose", 1, bound=2, files={
        "s.ideal": "ideal v1 ground=interval params=4\nname fin\ngenerator g0 1\ngenerator g1 2 3\n",
        "t.ideal": "ideal v1 ground=interval params=4\nname z\nsurrogate dyadic-density eps=1/2 floor=0\n",
        "f.morphism": IDENTITY,
    }, stdout=lambda r: r["pass"] is False,
         stderr="pass = False\n  violation g0: max density 1 at window 0\n  violation g1: max density 1 at window 1\n"),
    Case("katetov-counterexample-verbose", "katetov --counterexample fin_to_z_one_point --verbose", 1, bound=2,
         stdout=lambda r: r["pass"] is False,
         stderr="fin_to_z_one_point: pass = False\n  violation {64}: max density 1 at window 0\n"),
    # The smallest values the range checks accept all run.  A bound-1 natset
    # has no dyadic window and one initial segment.
    Case("natset-bound-1", "profile --input a.natset", 0, bound=2, files={"a.natset": "natset v1 bound=1\n0\n"},
         stdout=lambda r: (r["density_dyadic"], r["density_natural"], r["summable_weight"]) == ([], ["1/1"], "1/1")),
    Case("natset-bound-1-empty", "profile --input a.natset", 0, bound=2, files={"a.natset": "natset v1 bound=1\n"},
         stdout=lambda r: (r["density_dyadic"], r["density_natural"], r["summable_weight"]) == ([], ["0/1"], "0/1")),
    *(Case(f"game-window-1-{p1.split()[0]}", f"game --p1 {p1} --p2 min-legal --horizon 2 --window 1", 0, bound=2,
           files={"c.coloring": "coloring v1 depth=2\n0 1\n"}, stdout=lambda r: r["k_profile"]["density_dyadic"] == [])
      for p1 in ("empty", "initial-segment", "random-set", "tree-builder --coloring c.coloring")),
    Case("gridset-bound-1", "profile --input a.gridset", 0, bound=2, files={"a.gridset": "gridset v1 bound=1\n0 0\n"},
         stdout=lambda r: r["column_profile"] == [1]),
    Case("nodeset-depth-1", "profile --input a.nodeset", 0, bound=2, files={"a.nodeset": "nodeset v1 depth=1\n-\n"},
         stdout=lambda r: r["minimal_elements"] == ["-"] and r["phi_equals_antichain"] is True),
    Case("hset-depth-1", "hset --coloring c.coloring --tree p.tree", 0, bound=2,
         files={"c.coloring": "coloring v1 depth=1\n", "p.tree": "tree v1 depth=1\n-\n"},
         stdout=lambda r: r["levels"] == [0]),
    Case("zdensity-1", "zdensity --nmax 1", 0, bound=2, stdout=lambda r: r["all_pass"] is True),
    Case("levels-0-1", "levels --max-len 0 --depth 1", 0, bound=2,
         stdout=lambda r: r["all_pass"] is True and r["domain_size"] == 1),
    Case("pairing-1-2-1", "pairing --base-levels 1 --depth 2 --cap 1", 0, bound=2,
         stdout=lambda r: r["all_pass"] is True and r["trees_checked"] == 1),
    Case("search-1-0", "search --depth 1 --height 0 --seed 0", 0, bound=2,
         stdout=lambda r: r["verified"] is True and r["m"] == 1),
    Case("game-1-1048576", "game --p1 empty --p2 min-legal --horizon 1 --window 1048576", 0, bound=2,
         stdout=lambda r: r["transcript"]["flags"]["completed"] is True),
    # A closed stdout exits 2 without a traceback: a large report fails in the
    # write, a small one in the flush.
    Case("closed-stdout-game", GAME, 2, stdout=CLOSED, stderr=_error("cannot write stdout: Broken pipe"), bound=10),
    Case("closed-stdout-zdensity", "zdensity --nmax 1", 2, stdout=CLOSED,
         stderr=_error("cannot write stdout: Broken pipe")),
]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(f"usage: {argv[0]} COMMAND...  (for example: hlbench, or python3 -m hlbench.cli)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONPATH"):
        entries = os.environ["PYTHONPATH"].split(os.pathsep)
        os.environ["PYTHONPATH"] = os.pathsep.join(os.path.abspath(e) if e else e for e in entries)
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as cwd:
            wall, problems = run(case, argv[1:], Path(cwd))
        print(f"{'FAIL' if problems else 'ok':4}  {wall:5.2f} s  {case.name}", *problems, sep="\n    ", flush=True)
        failed += bool(problems)
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
