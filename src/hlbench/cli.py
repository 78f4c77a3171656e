"""Command-line front end: every subcommand emits one JSON report on stdout.

Reports are machine-first: sorted keys, exact rationals as "p/q" strings,
tool version, the fully resolved configuration, and the seed (null when the
command has none).  Human-readable tables go to stderr under --verbose.
Each handler ends in one call to `_emit`, which writes the envelope, the
body and, under --verbose, the lines.  `katetov` checks a builtin, a
counterexample and a morphism file on one path, so under --verbose each
names its violated generators the same way.
Exit status: 0 = success/pass, 1 = property failure, 2 = usage or input
error (argparse uses 2 on its own), including a stdout closed by its reader.

The module level imports only what every subcommand needs: the error types
`main` catches, and `treecore`, whose budget caps the `--budget` help
states.  Each handler imports the rest, the library names it calls, at its
own top, so a command loads only the modules it runs.  `argparse` is
imported only when an argv goes to the full parser tree, and reports are
written with the `_json` C module's string encoder, so a valid argv loads
neither `argparse` nor `json`.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from _json import encode_basestring_ascii as _encode_str  # the function json.encoder names, without json
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .errors import GameProtocolError, HlbenchError, ParseError
from .treecore import BUDGET_CAP, DEFAULT_BUDGET

if TYPE_CHECKING:
    import argparse


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


# The writer of each scalar type a report holds, by exact type: a bool is not
# written as the int it is, and None has a type of its own.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value, indent: str = "") -> str:
    """The bytes of `json.dumps(value, sort_keys=True, indent=2)`, nested `indent` deep.

    Reports hold only str-keyed dicts, lists, tuples, str, int, bool and None;
    anything else (a float, a Fraction, a set, a non-str key) raises TypeError
    rather than being written some other way.  A value whose exact type is in
    `_SCALARS` is written by its entry, a scalar entry of a dict or list
    without a call of `_json`, and a list of one such type with one join,
    which is most of a large report.  Subclasses (an IntEnum member, a str
    subclass, a namedtuple, an OrderedDict) take the isinstance tests, as
    `json.dumps` writes them.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if write is not None:
            return f"[\n{inner}{sep.join(map(write, value))}\n{indent}]"
        parts = []
        for v in value:
            write = _SCALARS.get(type(v))
            parts.append(_json(v, inner) if write is None else write(v))
        body = sep.join(parts)
        del parts  # so the entries, the body and the text returned are never all alive at once
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        bad = [k for k in value if not isinstance(k, str)]
        if bad:
            raise TypeError(f"report key {bad[0]!r} is not a str")
        parts = []
        for k in sorted(value):
            v = value[k]
            write = _SCALARS.get(type(v))
            parts.append(f"{_encode_str(k)}: {_json(v, inner) if write is None else write(v)}")
        body = sep.join(parts)
        del parts
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not allowed in a report")


def _emit(args: SimpleNamespace, command: str, body: dict, lines: list[str]) -> None:
    """Print the report of `command`, and under --verbose its `lines` on stderr.

    The report is the envelope (tool, version, command, the resolved config
    and the seed, null when the command has none) with `body`'s keys.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("func", "verbose")}
    seed = getattr(args, "seed", None)
    print(_json({"tool": "hlbench", "version": __version__, "command": command, "config": config, "seed": seed,
                 **body}))
    if args.verbose:
        for line in lines:
            print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_hset(args) -> int:
    from .colorings import coloring_from_text, h_set
    from .treecore import tree_from_text

    coloring = coloring_from_text(_read(args.coloring))
    tree = tree_from_text(_read(args.tree))
    levels = list(h_set(coloring, tree))
    body = {"depth": tree.depth, "levels": levels}
    _emit(args, "hset", body, [f"H = {levels}"])
    return 0


def cmd_zdensity(args) -> int:
    from .colorings import zdensity_coloring
    from .search import zdensity_band_check

    inst = zdensity_coloring(args.nmax)
    bands = []
    lines = []
    pairs = 0
    all_pass = True
    for n in range(1, inst.n_max + 1):
        table = inst.band_tables[n]
        bijection_ok = sorted(table.values()) == sorted(tuple((m >> j) & 1 for j in range(n)) for m in range(1 << n))
        checks = []
        for k in range(1, n + 1):
            for subset in itertools.combinations(range(n), k):
                (check,) = zdensity_band_check(inst, {n: subset})
                pairs += 1
                all_pass = all_pass and check.passed and bijection_ok
                checks.append(
                    {
                        "selection": list(check.selection),
                        "expected": check.expected,
                        "actual": check.actual,
                        "pass": check.passed,
                    }
                )
                lines.append(
                    f"band {n} J={list(subset)}: expected {check.expected} actual {check.actual} "
                    f"{'PASS' if check.passed else 'FAIL'}"
                )
        bands.append({"band": n, "bijection_ok": bijection_ok, "checks": checks})
    body = {
        "n_max": inst.n_max,
        "depth": inst.depth,
        "bands": bands,
        "pairs_checked": pairs,
        "all_pass": all_pass,
    }
    _emit(args, "zdensity", body, lines)
    return 0 if all_pass else 1


def _search_coloring(args):
    from .colorings import coloring_from_text, random_coloring

    if args.coloring is not None:
        coloring = coloring_from_text(_read(args.coloring))
        if args.depth is not None and args.depth != coloring.depth:
            raise ParseError(f"--depth {args.depth} contradicts coloring depth {coloring.depth}")
        return coloring
    if args.depth is None:
        raise ParseError("--depth is required with --seed")
    if args.seed is None:
        args.seed = 0  # resolved here so that the report states the seed used
    return random_coloring(args.depth, args.seed)


def cmd_search(args, mode: str) -> int:
    from .search import (
        SearchBudget,
        brute_force_max,
        certificate_to_json,
        check_enumerable,
        search_best,
        verify_certificate,
    )

    coloring = _search_coloring(args)
    budget = SearchBudget(height=args.height, node_budget=args.budget, workers=args.workers)
    if args.oracle:
        check_enumerable(coloring.depth, budget)
    result = search_best(coloring, budget, mode)
    verified = verify_certificate(coloring, result.certificate)
    body = {
        "mode": mode,
        "depth": coloring.depth,
        "m": result.best_levels,
        "explored": result.explored,
        "complete": result.complete,
        "verified": verified,
        "certificate": certificate_to_json(result.certificate),
    }
    ok = verified and result.complete
    lines = [f"m = {result.best_levels} (explored {result.explored}, complete={result.complete})"]
    if args.oracle:
        oracle = brute_force_max(coloring, budget, mode)
        body["oracle_m"] = oracle.best_levels
        body["oracle_match"] = (
            oracle.best_levels == result.best_levels
            and certificate_to_json(oracle.certificate) == body["certificate"]
        )
        ok = ok and body["oracle_match"]
        lines.append(f"oracle m* = {oracle.best_levels} match={body['oracle_match']}")
    _emit(args, f"search[{mode}]", body, lines)
    return 0 if ok else 1


def cmd_pairing(args) -> int:
    from .colorings import check_pairing_disjointness, pairing_coloring

    base_levels = _parse_int_list(args.base_levels)
    coloring, system = pairing_coloring(base_levels, args.cap, args.depth)
    checks = check_pairing_disjointness(coloring, system)
    all_pass = all(ch.passed for ch in checks)
    body = {
        "depth": system.depth,
        "base_levels": list(system.base_levels),
        "matchings": [
            {
                "index": ch.index,
                "base_level": ch.base_level,
                "pairs": [list(pair) for pair in system.matchings[ch.index]],
                "level_set": sorted(system.level_sets[ch.index]),
                "trees_checked": ch.trees_checked,
                "pass": ch.passed,
            }
            for ch in checks
        ],
        "trees_checked": sum(ch.trees_checked for ch in checks),
        "all_pass": all_pass,
    }
    lines = [
        f"matching {ch.index} (level {ch.base_level}): {ch.trees_checked} trees "
        f"{'PASS' if ch.passed else 'FAIL'}"
        for ch in checks
    ]
    _emit(args, "pairing", body, lines)
    return 0 if all_pass else 1


def cmd_levels(args) -> int:
    from .colorings import check_levels_bichromatic, levels_coloring, residue_splitting
    from .treecore import format_node

    assignment = residue_splitting(args.max_len, args.depth)
    coloring = levels_coloring(assignment, args.depth)
    checks = check_levels_bichromatic(coloring, assignment)
    all_pass = all(ch.passed for ch in checks)
    body = {
        "depth": args.depth,
        "domain_size": len(assignment.domain),
        "assignments": [
            {"t": format_node(t), "levels": sorted(assignment.sets[i])}
            for i, t in enumerate(assignment.domain)
            if assignment.sets[i]
        ],
        "checks": [
            {
                "t": format_node(ch.node),
                "level": ch.level,
                "zero_side_bad": ch.zero_side_bad,
                "one_side_bad": ch.one_side_bad,
                "pass": ch.passed,
            }
            for ch in checks
        ],
        "all_pass": all_pass,
    }
    lines = [
        f"t={format_node(ch.node)} level {ch.level}: {'PASS' if ch.passed else 'FAIL'}" for ch in checks
    ]
    _emit(args, "levels", body, lines)
    return 0 if all_pass else 1


def cmd_profile(args) -> int:
    from .ideals import (
        column_profile,
        density_profile,
        frac_text,
        gridset_from_text,
        interval_count,
        max_antichain_weight,
        minimal_elements,
        natset_from_text,
        natural_density_texts,
        nodeset_from_text,
        phi,
        phi_bar_profile,
        summable_weight,
    )
    from .treecore import format_node

    text = _read(args.input)
    head = (text.split(None, 1) or [""])[0]
    lines: list[str] = []
    code = 0
    interval_flags = (("--threshold", args.threshold), ("--cmp", args.cmp))
    if head in ("gridset", "nodeset"):
        for flag, value in (("--ell", args.ell), *interval_flags):
            if value is not None:
                raise ParseError(f"{flag} applies only to natset inputs, not {head}")
    elif head == "natset" and args.ell is None:
        for flag, value in interval_flags:
            if value is not None:
                raise ParseError(f"{flag} needs --ell")
    elif head == "natset" and args.threshold is None:
        raise ParseError("--threshold is required with --ell")
    if args.cmp is None:
        args.cmp = "ge"  # resolved here so that the report states the comparison used
    if head == "natset":
        nat = natset_from_text(text)
        # Counted before the statistics, so that a bad --ell or --threshold is refused first.
        count = None if args.ell is None else interval_count(nat, args.ell, args.threshold, args.cmp)
        body = {
            "kind": "natset",
            "bound": nat.bound,
            "size": len(nat.members),
            "density_dyadic": [frac_text(d) for d in density_profile(nat, "dyadic")],
            "density_natural": natural_density_texts(nat),
            "summable_weight": frac_text(summable_weight(nat)),
        }
        if args.ell is not None:
            body["interval"] = {"ell": args.ell, "threshold": args.threshold, "cmp": args.cmp, "count": count}
        lines.append(f"|A| = {len(nat.members)} in [0, {nat.bound})")
    elif head == "gridset":
        grid = gridset_from_text(text)
        body = {
            "kind": "gridset",
            "bound": grid.bound,
            "size": len(grid.cells),
            "column_profile": list(column_profile(grid)),
        }
        lines.append(f"|E| = {len(grid.cells)} in [0, {grid.bound})^2")
    elif head == "nodeset":
        nodes = nodeset_from_text(text)
        phi_value = phi(nodes)
        antichain = max_antichain_weight(nodes)
        body = {
            "kind": "nodeset",
            "depth": nodes.depth,
            "size": len(nodes.nodes),
            "minimal_elements": [format_node(s) for s in minimal_elements(nodes).sorted_nodes()],
            "phi": frac_text(phi_value),
            "max_antichain_weight": frac_text(antichain),
            "phi_equals_antichain": phi_value == antichain,
            "phi_bar_profile": [frac_text(v) for v in phi_bar_profile(nodes, nodes.depth)],
        }
        code = 0 if phi_value == antichain else 1
        lines.append(f"phi = {frac_text(phi_value)}")
    else:
        raise ParseError(f"unknown input kind {head!r} (want natset/gridset/nodeset)", 1)
    _emit(args, "profile", body, lines)
    return code


def cmd_game(args) -> int:
    from .colorings import coloring_from_text
    from .game import check_game, parse_strategy_id, play, transcript_to_json
    from .ideals import NatSet, density_profile, frac_text, summable_weight

    p1 = parse_strategy_id(args.p1)
    if args.coloring is not None and p1.name != "tree-builder":
        raise ParseError(f"--coloring needs --p1 tree-builder, not {p1.name!r}")
    p2 = parse_strategy_id(args.p2)
    check_game(args.horizon, p1, p2, args.window)
    coloring = coloring_from_text(_read(args.coloring)) if args.coloring else None
    transcript = play(args.horizon, p1, p2, args.window, coloring=coloring, seed=args.seed)
    outcome = NatSet.of(transcript.outcome, args.window)
    body = {
        "transcript": transcript_to_json(transcript),
        "k_profile": {
            "density_dyadic": [frac_text(d) for d in density_profile(outcome, "dyadic")],
            "summable_weight": frac_text(summable_weight(outcome)),
        },
    }
    lines = [
        f"round {i}: |I|={len(r.forbidden)} k={r.pick}" for i, r in enumerate(transcript.rounds)
    ]
    lines.append(f"K = {sorted(transcript.outcome)}")
    _emit(args, "game", body, lines)
    return 0


def cmd_katetov(args) -> int:
    from .katetov import (
        builtin_names,
        builtin_witness,
        check_morphism,
        counterexample_names,
        counterexample_witness,
        parse_ideal_text,
        parse_morphism_text,
        report_to_json,
    )

    selections = {"--list": args.list, "--builtin": args.builtin, "--counterexample": args.counterexample,
                  "--morphism": args.morphism}
    chosen = [flag for flag, value in selections.items() if value]
    if len(chosen) > 1:
        raise ParseError(f"{' and '.join(chosen)} are mutually exclusive")
    if not args.morphism and (args.source or args.target):
        raise ParseError("--source and --target need --morphism")
    if args.list:
        body = {"builtins": list(builtin_names()), "counterexamples": list(counterexample_names())}
        _emit(args, "katetov", body, [])
        return 0
    if args.builtin or args.counterexample:
        witness = builtin_witness(args.builtin) if args.builtin else counterexample_witness(args.counterexample)
        table, source, target = witness.morphism, witness.source, witness.target
        head, prefix = {"witness": witness.name, "note": witness.note}, f"{witness.name}: "
    elif args.morphism and args.source and args.target:
        source = parse_ideal_text(_read(args.source))
        target = parse_ideal_text(_read(args.target))
        table = parse_morphism_text(_read(args.morphism), target.ground, source.ground)
        head, prefix = {"witness": None}, ""
    else:
        raise ParseError("need --builtin, --counterexample, or --morphism with --source/--target")
    report = check_morphism(table, source, target)
    lines = [f"{prefix}pass = {report.passed}"]
    lines += [f"  violation {violation.generator}: {violation.measure}" for violation in report.violations]
    _emit(args, "katetov", {**head, **report_to_json(report)}, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


@dataclass(frozen=True)
class Command:
    """One subcommand: its name, help, options in --help order, and handler."""

    name: str
    help: str
    options: tuple
    handler: Callable[[SimpleNamespace], int]


class _OneOf(tuple):
    """Options of which a command takes at most one (a mutually exclusive group)."""


def _opt(*flags: str, **kwargs) -> tuple:
    """The arguments of one `add_argument` call, `dest` stated as argparse would form it."""
    kwargs.setdefault("dest", flags[0].lstrip("-").replace("-", "_"))
    return flags, kwargs


_SEARCH_OPTIONS = (
    _opt("--depth", type=int, help="tree depth (required with --seed)"),
    _opt("--height", type=int, required=True, help="embedding height"),
    _OneOf((
        _opt("--seed", type=int, help="seed for a random coloring (default 0)"),
        _opt("--coloring", help="coloring file instead of a seeded coloring"),
    )),
    _opt(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"work budget for the whole search, at most {BUDGET_CAP}: DP mask operations plus walk states,"
        " at most twice this in all",
    ),
    _opt("--workers", type=int, default=1, help="accepted; results and speed are the same for every count"),
    _opt("--oracle", action="store_true", help="cross-check against the exhaustive oracle"),
)

# Every command takes --verbose, after its own options.
_VERBOSE = _opt("--verbose", action="store_true", help="human-readable tables on stderr")

COMMANDS = {
    command.name: command
    for command in (
        Command("hset", "monochromatic level set of a coloring on a tree", (
            _opt("--coloring", required=True, help="coloring file"),
            _opt("--tree", required=True, help="tree file"),
        ), cmd_hset),
        Command("zdensity", "slowly branching instance with exhaustive band checks", (
            _opt("--nmax", type=int, required=True, help="largest band index"),
        ), cmd_zdensity),
        Command("search", "best uniform certificate search", _SEARCH_OPTIONS,
                functools.partial(cmd_search, mode="uniform")),
        Command("search-levels", "best by_levels certificate search", _SEARCH_OPTIONS,
                functools.partial(cmd_search, mode="by_levels")),
        Command("pairing", "pairing coloring with exhaustive disjointness checks", (
            _opt("--base-levels", required=True, dest="base_levels", help="comma-separated levels"),
            _opt("--cap", type=int, default=3, help="matchings kept per level"),
            _opt("--depth", type=int, required=True),
        ), cmd_pairing),
        Command("levels", "splitting-level coloring with bichromatic slice checks", (
            _opt("--max-len", type=int, required=True, dest="max_len"),
            _opt("--depth", type=int, required=True),
        ), cmd_levels),
        Command("profile", "ideal statistics of a natset/gridset/nodeset file", (
            _opt("--input", required=True),
            _opt("--ell", type=int, help="interval length for interval counts"),
            _opt("--threshold", type=int),
            _opt("--cmp", choices=("ge", "gt"), help="window comparison for --ell (default ge)"),
        ), cmd_profile),
        Command("game", "play the evasion game and profile the outcome set", (
            _opt("--p1", required=True, help="player I strategy id"),
            _opt("--p2", required=True, help="player II strategy id"),
            _opt("--horizon", type=int, required=True),
            _opt("--window", type=int, required=True),
            _opt("--seed", type=int, default=0),
            _opt("--coloring", help="coloring file for the tree-builder strategy"),
        ), cmd_game),
        Command("katetov", "check a morphism file or a builtin witness", (
            _opt("--builtin", help="builtin witness name"),
            _opt("--counterexample", help="builtin counterexample name"),
            _opt("--morphism", help="morphism file"),
            _opt("--source", help="source ideal presentation file"),
            _opt("--target", help="target ideal presentation file"),
            _opt("--list", action="store_true", help="list builtin names"),
        ), cmd_katetov),
    )
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each command of `COMMANDS`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hlbench",
        description="Finite workbench for tree colorings, subtree search, ideal statistics, and games.",
    )
    parser.add_argument("--version", action="version", version=f"hlbench {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS.values():
        subparser = sub.add_parser(command.name, help=command.help)
        for option in (*command.options, _VERBOSE):
            if isinstance(option, _OneOf):
                group = subparser.add_mutually_exclusive_group()
                for flags, kwargs in option:
                    group.add_argument(*flags, **kwargs)
            else:
                flags, kwargs = option
                subparser.add_argument(*flags, **kwargs)
        subparser.set_defaults(func=command.handler)
    return parser


def _read_exact(command: Command, tokens: list[str]) -> SimpleNamespace | None:
    """The namespace the full tree gives for `[command.name, *tokens]`, or None where `_parse` says.

    Its attributes come in the full tree's order: `subcommand` (the
    top-level parser sets it first), then every option's default in action
    order, overwritten by the values given, then `func`.
    """
    table = {}  # exact option string -> (dest, add_argument kwargs, group id)
    args = SimpleNamespace(subcommand=command.name)
    for group, option in enumerate((*command.options, _VERBOSE)):
        for flags, kwargs in option if isinstance(option, _OneOf) else (option,):
            dest = kwargs["dest"]
            table[flags[0]] = dest, kwargs, group
            setattr(args, dest, False if kwargs.get("action") == "store_true" else kwargs.get("default"))
    args.func = command.handler
    groups = set()
    rest = iter(tokens)
    for token in rest:
        if token not in table:
            return None
        dest, kwargs, group = table[token]
        if group in groups:
            return None
        groups.add(group)
        if kwargs.get("action") == "store_true":
            setattr(args, dest, True)
            continue
        text = next(rest, "-")  # a missing value is declined as a leading `-` is
        if text.startswith("-"):
            return None
        try:
            value = kwargs["type"](text) if "type" in kwargs else text
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        setattr(args, dest, value)
    # A required option is never in a `_OneOf` (argparse refuses that), so it has a group of its own.
    if any(kwargs.get("required") and group not in groups for _, kwargs, group in table.values()):
        return None
    return args


def _parse(argv: list[str]) -> SimpleNamespace:
    """`build_parser().parse_args(argv)`, read with no parser when `argv[0]` names a command.

    Two paths.  When `argv[0]` names a command of `COMMANDS`, `_read_exact`
    reads `argv[1:]` from that entry alone and builds no `ArgumentParser`.
    It reads only the plainest spelling: each option as its exact option
    string, at most once and at most one of each `_OneOf`, a store option's
    value as the next argument.

    Every other argv goes to the full tree, which prints every help text and
    usage error: help, version, a missing, unknown or abbreviated
    subcommand, a leading option, and every argv the reader declines.  It
    declines any argument that is not an exact option string (so
    `--opt=value`, abbreviations, `--`, `-h`, `--version` and stray words), a
    repeated option or both options of a `_OneOf`, a missing value or one
    that starts with `-`, a value that `type` or `choices` refuse, and a
    missing required option.  Nothing is kept between calls.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    args = None if command is None else _read_exact(command, argv[1:])
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader closed stdout.  Point it at devnull, so that the flush at
        # interpreter exit finds nothing to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"hlbench: error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except GameProtocolError as exc:
        print(f"hlbench: protocol error: {exc}", file=sys.stderr)
        return 1
    except (HlbenchError, ValueError) as exc:
        print(f"hlbench: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("hlbench: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
