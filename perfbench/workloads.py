"""The workloads: seeded inputs, the op list of one pass, and per-op checks.

An op is one `hlbench` CLI command.  `build(workload, seed)` writes any input
files under `.perfbench_work/<workload>` (a fixed relative path, so the
`config` field of every report is the same from checkout to checkout) and
returns the ops of one pass in order.  Everything is derived from `random.Random`
seeded with the workload name and seed, so the same seed gives the same
inputs and the same reports.

Each op carries the exit status it must return and a check of its parsed
report.  Checks return None or a message.  They run after the timed loop, in
a process pool, so they are module-level functions or partials of them; they
may import `hlbench`, but this module may not: the worker times that import.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable

WORKLOADS = ("search", "checks-files")

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_code: int
    check: Check


def check_op(op: Op, code: int | None, out: str, err: str) -> tuple[str, str] | None:
    """None, or (kind, message): "error" for a failed command, "wrong" for a wrong answer."""
    if code not in (0, 1):
        detail = err.strip().splitlines()[-1] if err.strip() else ""
        return "error", f"exit status {code}: {detail}"
    if code != op.expect_code:
        return "wrong", f"exit status {code}, expected {op.expect_code}"
    try:
        problem = op.check(json.loads(out))
    except Exception as exc:  # noqa: BLE001 - a malformed report is a wrong answer, not a crash
        problem = f"report check raised {type(exc).__name__}: {exc}"
    return ("wrong", problem) if problem else None


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        # Depth 5, height 2: scoring and enumeration dominate and pruning
        # drops part of the space.  Depth 7, height 1, two workers: 63 small
        # partitions, per-partition pruning and the thread pool dominate.
        # Small ops on many seeds keep a pass near 3.5 s, so each op runs
        # about a dozen times in a run, and the spread of op cost over the
        # seeds averages out.  The 30 depth-7 ops are the slowest tenth.
        return (_search_ops(rng, seeds=150, depth=5, height=2, workers=1)
                + _search_ops(rng, seeds=15, depth=7, height=1, workers=2))
    if workload == "checks-files":
        # Two construction cycles and sixteen file cycles.  About 45 ops
        # are faster than the 16 gridset profiles and about 39 slower, so the
        # median falls inside that cluster and not on the edge of a gap,
        # where a random game that is a little faster or slower for one seed
        # would move it; the 90th percentile falls among the natset profiles.
        checks = _checks_ops(rng)
        files = _files_ops(rng, os.path.join(".perfbench_work", workload))
        per = len(files) // CHECK_CYCLES
        return [op for i in range(CHECK_CYCLES) for op in checks[10 * i:10 * i + 10] + files[per * i:per * i + per]]
    raise ValueError(f"unknown workload {workload!r} (have {WORKLOADS})")


# ---------------------------------------------------------------------------
# search: derived seeds, both scoring modes
# ---------------------------------------------------------------------------


def _search_ops(rng: random.Random, seeds: int, depth: int, height: int, workers: int) -> list[Op]:
    ops = []
    for _ in range(seeds):
        s = rng.getrandbits(32)
        for sub, mode in (("search", "uniform"), ("search-levels", "by_levels")):
            argv = (sub, "--depth", str(depth), "--height", str(height), "--seed", str(s),
                    "--workers", str(workers))
            ops.append(Op(argv, 0, partial(_search_check, depth, height, mode, s)))
    return ops


def _search_check(depth: int, height: int, mode: str, seed: int, report: dict) -> str | None:
    from hlbench.colorings import random_coloring
    from hlbench.search import (
        SearchBudget,
        brute_force_max,
        certificate_from_json,
        certificate_to_json,
        verify_certificate,
    )

    if not (report["verified"] and report["complete"]):
        return f"verified={report['verified']} complete={report['complete']}"
    coloring = random_coloring(depth, seed)
    if not verify_certificate(coloring, certificate_from_json(report["certificate"])):
        return "certificate does not verify after a JSON round trip"
    oracle = brute_force_max(coloring, SearchBudget(height=height), mode)
    if oracle.best_levels != report["m"]:
        return f"m={report['m']} but brute_force_max gives {oracle.best_levels}"
    if certificate_to_json(oracle.certificate) != report["certificate"]:
        return "certificate differs from brute_force_max's"
    return None


# ---------------------------------------------------------------------------
# checks: constructions, games and builtin witnesses, no embedding search
# ---------------------------------------------------------------------------

CHECK_CYCLES = 2
GAME_WINDOW = 65536
GAME_HORIZON = 16
RANDOM_GAME_WINDOW = 4096
RANDOM_GAME_HORIZON = 8
BUILTINS = (
    "ed_to_finxfin_identity",
    "fin_to_finxfin_projection",
    "fin_to_z_identity",
    "summable_to_z_identity",
)


def _checks_ops(rng: random.Random) -> list[Op]:
    all_pass = partial(_fields_check, {"all_pass": True})
    ops = []
    for _ in range(CHECK_CYCLES):
        s1, s2 = rng.getrandbits(32), rng.getrandbits(32)
        ops += [
            Op(("zdensity", "--nmax", "4"), 0, all_pass),
            Op(("pairing", "--base-levels", "1,2", "--cap", "3", "--depth", "8"), 0, all_pass),
            Op(("levels", "--max-len", "8", "--depth", "20"), 0, all_pass),
            Op(("game", "--p1", "initial-segment", "--p2", "min-legal",
                "--horizon", str(GAME_HORIZON), "--window", str(GAME_WINDOW)), 0, _doubling_game_check),
            Op(("game", "--p1", f"random-set:seed={s1}", "--p2", f"random-pick:seed={s2}",
                "--horizon", str(RANDOM_GAME_HORIZON), "--window", str(RANDOM_GAME_WINDOW)),
               0, _legal_game_check),
        ]
        ops += [Op(("katetov", "--builtin", name), 0, partial(_fields_check, {"pass": True, "violations": []}))
                for name in BUILTINS]
        ops.append(Op(("katetov", "--counterexample", "fin_to_z_one_point"), 1, _counterexample_check))
    return ops


def _legal_game_check(report: dict) -> str | None:
    t = report["transcript"]
    prev = -1
    for i, rnd in enumerate(t["rounds"]):
        k = rnd["k"]
        if not prev < k < t["window"] or k in set(rnd["I"]):
            return f"round {i}: pick {k} is not a legal increasing pick"
        prev = k
    if t["K"] != [rnd["k"] for rnd in t["rounds"]]:
        return "K is not the list of picks"
    return None


def _doubling_game_check(report: dict) -> str | None:
    # initial-segment forbids [0, 2^n) in round n, so min-legal picks 2^n.
    problem = _legal_game_check(report)
    if problem:
        return problem
    t = report["transcript"]
    if t["K"] != [1 << n for n in range(GAME_HORIZON)] or not t["flags"]["completed"]:
        return "initial-segment vs min-legal did not pick the powers of two"
    return None


def _counterexample_check(report: dict) -> str | None:
    generators = [v["generator"] for v in report["violations"]]
    if report["pass"] is not False or generators != ["{64}"]:
        return f"expected exactly one violation {{64}}, got {generators}"
    return None


# ---------------------------------------------------------------------------
# files: seeded input files read by hset, profile and katetov --morphism
# ---------------------------------------------------------------------------

FILE_CYCLES = 16
HSET_DEPTH = 12
HSET_BRANCHES = 64
NATSET_BOUND = 16384
NATSET_ELL, NATSET_THRESHOLD = 64, 16
GRID_BOUND = 256
GRID_DENSITY = 0.26
NODESET_DEPTH = 14
NODESET_SIZE = 512
IDEAL_SIZE = 1024
IDEAL_GENERATORS = 32
IDEAL_FLOOR = 3  # dyadic windows [2^n, 2^(n+1)) below this are unconstrained
IDEAL_EPS = Fraction(1, 8)


def _node(s: str) -> str:
    return s if s else "-"


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _files_ops(rng: random.Random, root: str) -> list[Op]:
    os.makedirs(root, exist_ok=True)
    at = partial(os.path.join, root)

    # hset: a dense coloring of 2^<12 and the closure of 64 random branches.
    colors = {}
    for n in range(HSET_DEPTH):
        for i in range(1 << n):
            colors[format(i, f"0{n}b") if n else ""] = rng.getrandbits(1)
    tops = [format(i, f"0{HSET_DEPTH - 1}b") for i in rng.sample(range(1 << (HSET_DEPTH - 1)), HSET_BRANCHES)]
    tree_levels = [sorted({t[:n] for t in tops}) for n in range(HSET_DEPTH)]
    expected_levels = [n for n, level in enumerate(tree_levels) if len({colors[s] for s in level}) == 1]
    coloring_body = [f"{_node(s)} {c}" for s, c in colors.items()]
    tree_body = [_node(s) for level in tree_levels for s in level]
    coloring_head = f"coloring v1 depth={HSET_DEPTH}"
    tree_head = f"tree v1 depth={HSET_DEPTH}"
    plain = (_write(at("plain.coloring"), [coloring_head, *coloring_body]),
             _write(at("plain.tree"), [tree_head, *tree_body]))
    # The same content with the '#' comments and blank lines the README
    # documents as ignored.  Both readers reject them at the seed commit.
    half = len(coloring_body) // 2
    commented = (
        _write(at("commented.coloring"), [coloring_head, "# seeded dense coloring", *coloring_body[:half],
                                          "", "# second half", *coloring_body[half:]]),
        _write(at("commented.tree"), [tree_head, "# closure of the seeded branches", *tree_body]),
    )

    def hset_op(files: tuple[str, str]) -> Op:
        return Op(("hset", "--coloring", files[0], "--tree", files[1]), 0,
                  partial(_fields_check, {"depth": HSET_DEPTH, "levels": expected_levels}))

    # natset: each m < bound is a member with probability 1/4.
    members = [m for m in range(NATSET_BOUND) if rng.random() < 0.25]
    natset = _write(at("a.natset"), [f"natset v1 bound={NATSET_BOUND}", *map(str, members)])

    grid = [(c, r) for c in range(GRID_BOUND) for r in range(GRID_BOUND) if rng.random() < GRID_DENSITY]
    gridset = _write(at("a.gridset"), [f"gridset v1 bound={GRID_BOUND}", *(f"{c} {r}" for c, r in grid)])
    columns = [0] * GRID_BOUND
    for c, _ in grid:
        columns[c] += 1

    ranks = rng.sample(range((1 << NODESET_DEPTH) - 1), NODESET_SIZE)
    nodes = [_rank_node(r) for r in sorted(ranks)]
    nodeset = _write(at("a.nodeset"), [f"nodeset v1 depth={NODESET_DEPTH}", *map(_node, nodes)])
    node_set = set(nodes)
    minimal = [s for s in nodes if not any(s[:k] in node_set for k in range(len(s)))]
    phi = sum((Fraction(1, 1 << len(s)) for s in minimal), Fraction(0))

    morphism_files, generators = _morphism_files(rng, at)

    cycle = [
        hset_op(plain),
        Op(("profile", "--input", natset, "--ell", str(NATSET_ELL), "--threshold", str(NATSET_THRESHOLD)),
           0, partial(_natset_check, tuple(members))),
        Op(("profile", "--input", gridset), 0,
           partial(_fields_check, {"size": len(grid), "column_profile": columns})),
        Op(("profile", "--input", nodeset), 0,
           partial(_fields_check, {"size": len(nodes), "phi": _frac(phi), "phi_equals_antichain": True})),
        Op(("katetov", "--morphism", morphism_files[0], "--source", morphism_files[1],
            "--target", morphism_files[2]), 0,
           partial(_fields_check, {"pass": True, "violations": [], "checked": generators})),
    ]
    ops = cycle * FILE_CYCLES
    ops[0] = hset_op(commented)
    return ops


def _fields_check(expected: dict, report: dict) -> str | None:
    for key, want in expected.items():
        if report[key] != want:
            return f"{key} is {report[key]!r}, expected {want!r}"
    return None


def _rank_node(rank: int) -> str:
    # Inverse of length-lex rank: level n holds ranks [2^n - 1, 2^(n+1) - 1).
    n = (rank + 1).bit_length() - 1
    return format(rank + 1 - (1 << n), f"0{n}b") if n else ""


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _natset_check(members: tuple[int, ...], report: dict) -> str | None:
    inside = set(members)
    dyadic = []
    n = 0
    while (2 << n) <= NATSET_BOUND:
        dyadic.append(_frac(Fraction(sum(1 for m in members if (1 << n) <= m < (2 << n)), 1 << n)))
        n += 1
    prefix = [0]
    for m in range(NATSET_BOUND):
        prefix.append(prefix[-1] + (m in inside))
    windows = sum(
        1 for m in range(NATSET_BOUND - NATSET_ELL + 1) if prefix[m + NATSET_ELL] - prefix[m] >= NATSET_THRESHOLD
    )
    natural = report["density_natural"]
    if len(natural) != NATSET_BOUND or natural[-1] != _frac(Fraction(len(members), NATSET_BOUND)):
        return "natural density profile differs"
    return _fields_check({
        "size": len(members),
        "summable_weight": _frac(sum((Fraction(1, m + 1) for m in members), Fraction(0))),
        "density_dyadic": dyadic,
        "interval": {"ell": NATSET_ELL, "threshold": NATSET_THRESHOLD, "cmp": "ge", "count": windows},
    }, report)


def _morphism_files(rng: random.Random, at: Callable[[str], str]) -> tuple[tuple[str, str, str], int]:
    # The table permutes each dyadic window [2^n, 2^(n+1)) of [0, 1024) and
    # fixes 0.  Window counts survive the pull-back, so generators built to
    # meet the target's density bound all pass, as the check expects.
    windows = [list(range(1 << n, 2 << n)) for n in range(IDEAL_SIZE.bit_length() - 1)]
    table = {0: 0}
    for window in windows:
        image = window[:]
        rng.shuffle(image)
        table.update(zip(window, image))
    generators = []
    for g in range(IDEAL_GENERATORS):
        elements = [m for m in range(1 << IDEAL_FLOOR) if rng.random() < 0.5]
        for n, window in enumerate(windows):
            if n >= IDEAL_FLOOR:
                cap = int(IDEAL_EPS * len(window))
                elements += rng.sample(window, rng.randint(0, cap))
        generators.append(f"generator g{g} " + " ".join(map(str, sorted(elements))))
    head = f"ideal v1 ground=interval params={IDEAL_SIZE}"
    source = _write(at("source.ideal"), [head, "name seeded_sparse", *generators])
    target = _write(at("target.ideal"), [
        head, "name dyadic_small",
        f"surrogate dyadic-density eps={IDEAL_EPS} floor={IDEAL_FLOOR}",
    ])
    morphism = _write(at("table.morphism"), ["morphism v1", *(f"{y} -> {x}" for y, x in sorted(table.items()))])
    return (morphism, source, target), IDEAL_GENERATORS
