"""Node colorings of finite binary trees and the named constructions on them.

A coloring assigns 0 or 1 to every node of 2^{<D}.  Two storage backends
cover the range of instances: a sparse override map with a constant default
for deep but thin assignments, and a pure function of the node's length-lex
rank for colorings with a closed form.  Both expose the same rank read `at`,
bulk rank read `colors` and string read `value`, so the level-set operations
never care which one they are given.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._rng import splitmix64_low_bits, splitmix64_output
from .errors import ConstructionError, ParseError, RangeError, ShapeError, shown
from .treecore import (
    D_MAX,
    WORK_CAP,
    LevelTree,
    check_depth,
    format_node,
    header_int,
    is_node,
    lenlex_key,
    level_nodes,
    node_rank,
    numbered_body,
    read_columns,
    read_format,
    read_node,
    read_nodes,
    rank_node,
    rank_span,
)

# Full serialisation lists all 2^D - 1 nodes, so it is capped well below D_MAX.
SERIALIZE_MAX = 16


class Coloring:
    """Total {0,1}-coloring of the nodes of 2^{<depth}.

    Colors are read by length-lex rank (`treecore.node_rank`, the root 1):
    `at(r)` is the color of the node of rank r, unchecked; `colors(lo, hi)` is
    the bulk read, the colors of ranks lo .. hi - 1 as one byte 0/1 each,
    also unchecked; and `value(s)` is the one string entry point.  A computed
    coloring's function takes that rank, and its bulk read is
    `bytes(map(at, range(lo, hi)))` unless the constructor gives a faster one
    that agrees with it.  A sparse coloring keys its overrides by node string,
    so its rank read forms the node's string.
    """

    __slots__ = ("depth", "at", "colors", "_overrides", "_default")

    def __init__(
        self,
        depth: int,
        *,
        overrides: dict[str, int] | None = None,
        default: int = 0,
        fn: Callable[[int], int] | None = None,
        colors: Callable[[int, int], bytes] | None = None,
    ):
        check_depth(depth)
        assert (overrides is not None) + (fn is not None) == 1
        self.depth = depth
        self._overrides = overrides
        self._default = default
        if fn is None:
            get = overrides.get
            fn = lambda r: get(rank_node(r), default)  # noqa: E731
        if colors is None:
            colors = lambda lo, hi: bytes(map(fn, range(lo, hi)))  # noqa: E731
        self.at: Callable[[int], int] = fn
        self.colors: Callable[[int, int], bytes] = colors

    # -- constructors -------------------------------------------------------

    @classmethod
    def computed(
        cls, depth: int, fn: Callable[[int], int], colors: Callable[[int, int], bytes] | None = None
    ) -> "Coloring":
        """A coloring whose function gives the color of the node of each rank, the root's being 1.

        `colors(lo, hi)`, when given, is a bulk read that must equal
        `bytes(map(fn, range(lo, hi)))`.
        """
        return cls(depth, fn=fn, colors=colors)

    @classmethod
    def sparse(cls, depth: int, overrides: Mapping[str, int], default: int = 0) -> "Coloring":
        _check_bit(default)
        checked: dict[str, int] = {}
        for s, v in overrides.items():
            if not is_node(s) or len(s) >= depth:
                raise RangeError(f"override node {s!r} outside 2^<{depth}")
            checked[s] = _check_bit(v)
        return cls(depth, overrides=checked, default=default)

    # -- queries -------------------------------------------------------------

    def value(self, s: str) -> int:
        """The color of node `s`; a non-node raises ValueError, a node past the depth RangeError."""
        if self._overrides is None:
            return self.at(self._rank(s))
        if not is_node(s) or len(s) >= self.depth:
            self._rank(s)  # raises check_node's ValueError or the RangeError
        return self._overrides.get(s, self._default)  # the rank read would form `s` again

    def _rank(self, s: str) -> int:
        """The rank of `s`, refused unless it is a node below the depth."""
        r = node_rank(s)
        if len(s) >= self.depth:
            raise RangeError(f"node of length {len(s)} outside 2^<{self.depth}")
        return r

    def zero_extensions(self, s: str, level: int) -> tuple[int, ...]:
        """The ranks of the first two 0-colored extensions of `s` on `level`, in lexicographic order.

        Fewer when the level holds fewer.  On a sparse coloring whose default
        is 1 only an override can be 0-colored, so those are read instead of
        the level, which may hold up to 2^63 nodes.
        """
        r = node_rank(s)
        if not len(s) <= level < self.depth:
            raise RangeError(f"level {shown(level)} outside [{len(s)}, {self.depth})")
        if self._overrides is not None and self._default == 1:
            zeros = sorted(t for t, v in self._overrides.items() if v == 0 and len(t) == level and t.startswith(s))
            return tuple(map(node_rank, zeros[:2]))
        return tuple(itertools.islice((t for t in rank_span(r, level - len(s)) if self.at(t) == 0), 2))


def _check_bit(v: int) -> int:
    if v not in (0, 1):
        raise ValueError(f"color must be 0 or 1, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# basic colorings
# ---------------------------------------------------------------------------


def random_coloring(depth: int, seed: int) -> Coloring:
    """Seeded coloring: the node of rank r gets the low bit of stream output r.

    The rank is the node's position in length-lex order, so the coloring
    agrees with drawing one splitmix64 output per node in that order.  Same
    (depth, seed) always yields the same coloring; the backend is computed,
    so any depth up to D_MAX works without storing 2^depth - 1 entries.  The
    bulk read runs the lane kernel `splitmix64_low_bits` over the ranks.
    """
    check_depth(depth)
    return Coloring.computed(
        depth, lambda r: splitmix64_output(seed, r) & 1, lambda lo, hi: splitmix64_low_bits(seed, lo, hi - lo)
    )


def constant_coloring(depth: int, bit: int) -> Coloring:
    return Coloring.sparse(depth, {}, default=bit)


def last_bit_coloring(depth: int) -> Coloring:
    """c(s) = last bit of s, 0 at the root."""
    # bin(r) ends in the last bit of the node of rank r.
    return Coloring.computed(depth, lambda r: r & 1 if r > 1 else 0)


# ---------------------------------------------------------------------------
# level-set operations
# ---------------------------------------------------------------------------


def h_set(c: Coloring, p: LevelTree) -> tuple[int, ...]:
    """Levels of p on which c is constant, ascending.

    Single-branch trees give the full level set [0, depth); adding branches
    can only remove levels.
    """
    if c.depth != p.depth:
        raise ShapeError(f"coloring depth {c.depth} != tree depth {p.depth}")
    mono: list[int] = []
    for n, level in enumerate(p.levels):
        seen = -1
        ok = True
        for s in level:
            v = c.value(s)
            if seen < 0:
                seen = v
            elif v != seen:
                ok = False
                break
        if ok:
            mono.append(n)
    return tuple(mono)


def i_set(c: Coloring, s: str) -> tuple[int, ...]:
    """Levels n >= |s|+2 at which s has at most one 0-colored extension, ascending."""
    c._rank(s)  # refuses a non-node or a node past the depth
    return tuple(n for n in range(len(s) + 2, c.depth) if len(c.zero_extensions(s, n)) <= 1)


def color_trace(c: Coloring, x: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-color partition (K_0, K_1) of the levels along the branch through x, each ascending."""
    r = c._rank(x)
    parts: tuple[list[int], list[int]] = ([], [])
    for n in range(len(x) + 1):
        parts[c.at(r >> (len(x) - n))].append(n)
    return tuple(parts[0]), tuple(parts[1])


# ---------------------------------------------------------------------------
# slowly branching density instance
# ---------------------------------------------------------------------------


def band_range(n: int) -> range:
    """Dyadic level band B_n = (2^n, 2^(n+1)]."""
    if n < 0:
        raise RangeError(f"band index {shown(n)} negative")
    return range((1 << n) + 1, (1 << (n + 1)) + 1)


@dataclass(frozen=True)
class ZDensityInstance:
    """Slowly branching host tree with its bandwise counting coloring.

    The host has exactly n branches inside band B_n: a single split at level
    2^n (at the lex-least node) raises the width from n-1 to n.  Within band
    n the branches s_0 < ... < s_{n-1} (lex order at the band top 2^(n+1))
    are colored by a binary counter: at band level 2^n + 1 + m the prefix of
    s_j carries bit j of m.  Constancy of k selected counter bits happens on
    exactly 2^(n-k+1) of the 2^n band levels, which drives the band checks.
    """

    n_max: int
    depth: int
    coloring: Coloring
    host: LevelTree
    band_branches: dict[int, tuple[str, ...]]
    band_tables: dict[int, dict[int, tuple[int, ...]]]


# The largest n_max whose host depth 2^(n_max+1) + 1 is at most D_MAX.
ZDENSITY_N_MAX = (D_MAX - 1).bit_length() - 2


def zdensity_coloring(n_max: int) -> ZDensityInstance:
    # Checked before the depth is formed: 1 << (n_max + 1) is as large as n_max asks.
    if not 1 <= n_max <= ZDENSITY_N_MAX:
        raise RangeError(f"n_max {shown(n_max)} outside [1, {ZDENSITY_N_MAX}]")
    depth = (1 << (n_max + 1)) + 1

    # The all-zeros branch, and one branch leaving it at each split level m = 2^n.
    zeros = "0" * (depth - 1)
    tops = [zeros] + [zeros[:m] + "1" + zeros[m + 1 :] for m in (1 << n for n in range(2, n_max + 1))]
    host = LevelTree.from_branch_set(depth, tops)

    overrides: dict[str, int] = {}
    band_branches: dict[int, tuple[str, ...]] = {}
    band_tables: dict[int, dict[int, tuple[int, ...]]] = {}
    for n in range(1, n_max + 1):
        branch_list = tuple(sorted(host.levels[1 << (n + 1)]))
        assert len(branch_list) == n
        band_branches[n] = branch_list
        table: dict[int, tuple[int, ...]] = {}
        for m in range(1 << n):
            lvl = (1 << n) + 1 + m
            bits = tuple((m >> j) & 1 for j in range(n))
            table[lvl] = bits
            for j, s in enumerate(branch_list):
                overrides[s[:lvl]] = bits[j]
        band_tables[n] = table

    coloring = Coloring.sparse(depth, overrides, default=0)
    return ZDensityInstance(n_max, depth, coloring, host, band_branches, band_tables)


# ---------------------------------------------------------------------------
# pairing construction
# ---------------------------------------------------------------------------

Pair = tuple[str, str]
Matching = tuple[Pair, ...]


def perfect_matchings(strings: Iterable[str]) -> Iterator[Matching]:
    """All perfect matchings of an even-sized string set, canonically ordered.

    The lex-least unmatched string is paired with each possible partner in
    lex order, recursing on the remainder; pairs within a matching are listed
    with ascending first components.
    """
    pool = sorted(strings)
    if len(pool) % 2:
        raise ConstructionError(f"cannot match an odd number of strings ({len(pool)})")

    def matchings() -> Iterator[Matching]:
        # picks[j] ranks pair j's partner among the strings still unmatched
        # after its first; the picks count up like an odometer, the last fastest.
        picks = [0] * (len(pool) // 2)
        while True:
            rest = pool[::-1]  # unmatched, the least last
            yield tuple((rest.pop(), rest.pop(-1 - pick)) for pick in picks)
            j = len(picks) - 1
            while j >= 0 and picks[j] == len(pool) - 2 * j - 2:
                picks[j] = 0
                j -= 1
            if j < 0:
                return
            picks[j] += 1

    return matchings()


def _matching_count(n: int, cap: int) -> int:
    """min(cap, (2^n - 1)!!): how many perfect matchings of {0,1}^n a per-level cap keeps."""
    count = 1
    for factor in range((1 << n) - 1, 1, -2):
        count *= factor
        if count >= cap:
            return cap
    return count  # all of (2^n - 1)!!, at most cap since cap >= 1


@dataclass(frozen=True)
class PairingSystem:
    """Enumerated matchings x_0..x_{T-1} with their disjoint level sets A_{x_i}."""

    base_levels: tuple[int, ...]
    depth: int
    matchings: tuple[Matching, ...]
    matching_levels: tuple[int, ...]
    level_sets: tuple[frozenset[int], ...]


def _residue_level_sets(floors: Sequence[int], depth: int) -> tuple[frozenset[int], ...]:
    """Set i = {k < depth : k = i mod len(floors), k >= floors[i]}; the sets are disjoint."""
    size = len(floors)
    return tuple(frozenset(k for k in range(i, depth, size) if k >= floor) for i, floor in enumerate(floors))


def pairing_coloring(base_levels: Iterable[int], per_level_cap: int, depth: int) -> tuple[Coloring, PairingSystem]:
    """Coloring that splits every matched pair on that matching's own levels.

    Matchings of {0,1}^n for each base level n are enumerated canonically
    (capped per level), then matching x_i receives the residue-class level
    set A_i = {k < depth : k = i mod T, k >= n}.  On a level in A_i each node
    is colored by the side its length-n prefix takes in x_i, so every pair's
    two-branch subtrees are bichromatic on all of A_i.
    """
    check_depth(depth)
    lvls = sorted(set(base_levels))
    if not lvls:
        raise ConstructionError("no base levels given")
    for n in lvls:
        if n < 1 or n >= depth:
            raise RangeError(f"base level {shown(n)} outside [1, {depth})")
    if per_level_cap < 1:
        raise ConstructionError(f"per-level cap {per_level_cap} admits no matchings")
    # Level n lists 2^n strings and keeps min(cap, (2^n - 1)!!) matchings of
    # 2^(n-1) pairs; each pair spans 2^(depth-1-n) tops on either side.
    pool = sum(1 << n for n in lvls)
    trees = sum(_matching_count(n, per_level_cap) << (n - 1 + 2 * (depth - 1 - n)) for n in lvls)
    if pool + trees > WORK_CAP:
        raise RangeError(f"pairing work {pool + trees} (pool of {pool}, {trees} trees) above the cap {WORK_CAP}")

    matchings: list[Matching] = []
    matching_levels: list[int] = []
    for n in lvls:
        for matching in itertools.islice(perfect_matchings(level_nodes(n)), per_level_cap):
            matchings.append(matching)
            matching_levels.append(n)

    level_sets = _residue_level_sets(matching_levels, depth)

    # by_level[k] = (k - n, side) for k in A_i, x_i being a matching of
    # {0,1}^n: side maps the rank of u to 0 if u comes first in its pair of
    # x_i, 1 if second, and a rank-r node's prefix u has rank r >> (k - n).
    by_level: list = [None] * depth
    for i, ks in enumerate(level_sets):
        side = {node_rank(u): bit for pair in matchings[i] for bit, u in enumerate(pair)}
        for k in ks:
            by_level[k] = (k - matching_levels[i], side)

    def fn(r: int) -> int:
        slot = by_level[r.bit_length() - 1]
        return 0 if slot is None else slot[1][r >> slot[0]]

    system = PairingSystem(tuple(lvls), depth, tuple(matchings), tuple(matching_levels), level_sets)
    return Coloring.computed(depth, fn), system


@dataclass(frozen=True)
class MatchingCheck:
    index: int
    base_level: int
    trees_checked: int
    violations: tuple[tuple[str, str, int], ...]  # (branch, branch, offending level)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_pairing_disjointness(c: Coloring, system: PairingSystem) -> list[MatchingCheck]:
    """Exhaustively verify A_{x_i} misses H_c(p) for every pair-spanning tree p.

    A two-branch tree p through a matched pair (u, v) is fixed by its tops x
    above u and y above v, and c is constant on level k of p exactly when
    c(x[:k]) == c(y[:k]).  So each branch pair is checked by comparing the
    two branches' colors on A_{x_i}, without building p.  Tops are read by
    rank: the level-k prefix of the top of rank x has rank x >> (top - k).
    """
    if c.depth != system.depth:
        raise ShapeError(f"coloring depth {c.depth} != system depth {system.depth}")
    top = system.depth - 1
    at = c.at
    out: list[MatchingCheck] = []
    for i, matching in enumerate(system.matchings):
        levels = sorted(system.level_sets[i])
        if levels and not 0 <= levels[0] <= levels[-1] <= top:
            raise RangeError(f"level set {i} outside [0, {system.depth})")
        shifts = [top - k for k in levels]
        trees = 0
        bad: list[tuple[str, str, int]] = []
        for u, v in matching:
            ys = [(y, [at(y >> s) for s in shifts]) for y in rank_span(node_rank(v), top - len(v))]
            for x in rank_span(node_rank(u), top - len(u)):
                x_colors = [at(x >> s) for s in shifts]
                for y, y_colors in ys:
                    for k, a, b in zip(levels, x_colors, y_colors):
                        if a == b:
                            bad.append((rank_node(min(x, y)), rank_node(max(x, y)), k))
                            break
                trees += len(ys)
        out.append(MatchingCheck(i, system.matching_levels[i], trees, tuple(bad)))
    return out


# ---------------------------------------------------------------------------
# splitting-level assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplittingAssignment:
    """Strings t_i with pairwise disjoint level sets S_i, each level past t_i's child."""

    domain: tuple[str, ...]
    sets: tuple[frozenset[int], ...]


def residue_splitting(max_len: int, depth: int) -> SplittingAssignment:
    """Canonical assignment: domain = all strings of length <= max_len in
    length-lex order, S_i = levels congruent to i modulo the domain size that
    clear the floor |t_i| + 1."""
    check_depth(depth)
    if max_len < 0 or max_len >= depth:
        raise RangeError(f"max_len {shown(max_len)} outside [0, {depth})")
    # Level k goes to the string of length-lex rank k mod size + 1, whose floor
    # is that rank's bit_length(); its check reads the 2^(k - floor + 1) nodes above it.
    size = (2 << max_len) - 1
    floors = [(k % size + 1).bit_length() for k in range(depth)]
    reads = sum(1 << (k - floor + 1) for k, floor in enumerate(floors) if k >= floor)
    if size + reads > WORK_CAP:
        raise RangeError(f"levels work {size + reads} (domain of {size}, {reads} slice reads) above the cap {WORK_CAP}")
    domain = tuple(s for n in range(max_len + 1) for s in level_nodes(n))
    return SplittingAssignment(domain, _residue_level_sets([len(t) + 1 for t in domain], depth))


def levels_coloring(assignment: SplittingAssignment, depth: int) -> Coloring:
    """Coloring that marks, on each level of S_i, which side of t_i a node took.

    On a level k in S_i, a node extending t_i gets the bit it chose just
    above t_i; everything else on the level gets 0.  Above any t_i the slice
    at each assigned level is therefore bichromatic.
    """
    check_depth(depth)
    if len(assignment.domain) != len(assignment.sets):
        raise ConstructionError("domain and level-set counts differ")
    if len(set(assignment.domain)) != len(assignment.domain):
        raise ConstructionError("domain strings not distinct")
    # by_level[k] = (k - |t|, rank of t) for k in the set of t: a rank-r node
    # on level k extends t when r >> (k - |t|) is the rank of t, and the bit
    # it chose just above t is then bit k - |t| - 1 of r.
    by_level: list = [None] * depth
    for t, ks in zip(assignment.domain, assignment.sets):
        floor = len(t) + 1
        rank = node_rank(t)
        for k in ks:
            if k < floor:
                raise ConstructionError(f"level {k} assigned to {t!r} is below its floor {floor}")
            if k >= depth:
                raise ConstructionError(f"assigned level {k} outside [0, {depth})")
            if by_level[k] is not None:
                raise ConstructionError(f"level {k} assigned to two strings")
            by_level[k] = (k - len(t), rank)

    def fn(r: int) -> int:
        slot = by_level[r.bit_length() - 1]
        if slot is None or r >> slot[0] != slot[1]:
            return 0
        return (r >> (slot[0] - 1)) & 1

    return Coloring.computed(depth, fn)


@dataclass(frozen=True)
class SliceCheck:
    node: str
    level: int
    zero_side_bad: int
    one_side_bad: int

    @property
    def passed(self) -> bool:
        return self.zero_side_bad == 0 and self.one_side_bad == 0


def check_levels_bichromatic(c: Coloring, assignment: SplittingAssignment) -> list[SliceCheck]:
    """For every string with a nonempty set, verify its slices split by side.

    At each assigned level the extensions through t+0 must all be colored 0
    and those through t+1 all colored 1; both sides are checked exhaustively.
    Each side is a range of ranks (t+0 and t+1 have ranks 2r and 2r + 1
    when t has rank r), and its colors are read once and summed.
    """
    at = c.at
    out: list[SliceCheck] = []
    for t, ks in zip(assignment.domain, assignment.sets):
        r = node_rank(t)
        for k in sorted(ks):
            if not len(t) < k < c.depth:
                raise RangeError(f"level {shown(k)} outside [{len(t) + 1}, {c.depth})")
            e = k - len(t) - 1
            ones = sum(map(at, rank_span(2 * r, e)))
            zeros = (1 << e) - sum(map(at, rank_span(2 * r + 1, e)))
            out.append(SliceCheck(t, k, ones, zeros))
    return out


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def coloring_to_text(c: Coloring) -> str:
    """Serialise a coloring; nodes omitted from the body are 0-colored.

    Sparse default-0 colorings list just their 1-colored overrides, which
    keeps deep thin instances writable; every other coloring lists every node.
    """
    lines = [f"coloring v1 depth={c.depth}"]
    if c._overrides is not None and c._default == 0:
        ones = sorted((s for s, v in c._overrides.items() if v == 1), key=lenlex_key)
        lines.extend(f"{format_node(s)} 1" for s in ones)
        return "\n".join(lines) + "\n"
    if c.depth > SERIALIZE_MAX:
        raise RangeError(f"depth {c.depth} too large to serialise in full (cap {SERIALIZE_MAX})")
    nodes = (s for n in range(c.depth) for s in level_nodes(n))  # in rank order
    lines.extend(f"{format_node(s)} {_check_bit(v)}" for s, v in zip(nodes, map(c.at, itertools.count(1))))
    return "\n".join(lines) + "\n"


# The color a checked bit token spells: one dict lookup, where int() parses.
_BITS = {"0": 0, "1": 1}


def coloring_from_text(text: str) -> Coloring:
    """Parse a coloring; unlisted nodes default to 0, duplicates are rejected."""
    (value,), body = read_format(text, "coloring v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    columns = read_columns(body, 2)
    nodes = read_nodes(columns[0], depth) if columns else None
    overrides = {}
    if nodes is not None and set(columns[1]) <= {"0", "1"}:
        overrides = dict(zip(nodes, map(_BITS.__getitem__, columns[1])))
    if len(overrides) != len(body):
        # A line failed the bulk check, or two lines hold the same node.
        overrides = {}
        for i, line in numbered_body(text, body):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<node> <bit>', got {line!r}", i)
            node = read_node(parts[0], depth, i)
            if parts[1] not in ("0", "1"):
                raise ParseError(f"color must be 0 or 1, got {parts[1]!r}", i)
            if node in overrides:
                raise ParseError(f"duplicate node {parts[0]!r}", i)
            overrides[node] = int(parts[1])
    return Coloring(depth, overrides=overrides)
