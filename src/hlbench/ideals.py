"""Finite statistics of subsets of [0, N), of [0, N)^2, and of tree nodes.

All densities and weights are exact `Fraction` values; no floats appear
anywhere in this module.  The three carrier types are immutable and
validate their members on construction, so every downstream statistic can
assume in-range, duplicate-free data.  The natset, gridset and nodeset
readers check each line once and build their carrier without checking it
again.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .errors import ParseError, RangeError, shown
from .treecore import (
    D_MAX,
    ELEMENT_CAP,
    check_depth,
    check_node,
    format_node,
    header_int,
    lenlex_key,
    numbered_body,
    read_columns,
    read_format,
    read_node,
    read_nodes,
)

DENSITY_MODES = ("dyadic", "natural")
CMP_OPS = ("ge", "gt")


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


def _plain_ints_below(values, bound: int) -> bool:
    """Bulk form of the carriers' member check: exact ints in [0, bound).

    False sends a carrier to its per-member loop, which names the culprit;
    comparing exact types lets bool and int subclasses fall through to it.
    """
    return set(map(type, values)) <= {int} and (not values or (min(values) >= 0 and max(values) < bound))


def _member_int(m, bound: int) -> bool:
    """The carriers' member rule: an int in [0, bound); int subclasses pass, bools do not."""
    return isinstance(m, int) and not isinstance(m, bool) and 0 <= m < bound


def _member_cell(cell, bound: int) -> bool:
    """The gridset cell rule: a pair of `_member_int` values."""
    return isinstance(cell, tuple) and len(cell) == 2 and _member_int(cell[0], bound) and _member_int(cell[1], bound)


def _prechecked(cls, **fields):
    """A carrier built from fields its text reader has already checked, skipping `__post_init__`."""
    carrier = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(carrier, name, value)
    return carrier


@dataclass(frozen=True)
class NatSet:
    """A subset of [0, bound)."""

    members: frozenset[int]
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise RangeError(f"bound {shown(self.bound)} must be >= 1")
        if _plain_ints_below(self.members, self.bound):
            return
        for m in self.members:
            if not _member_int(m, self.bound):
                raise RangeError(f"member {shown(m)!r} outside [0, {shown(self.bound)})")

    @classmethod
    def of(cls, members: Iterable[int], bound: int) -> "NatSet":
        return cls(frozenset(members), bound)

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    @cached_property
    def prefix_counts(self) -> tuple[int, ...]:
        """counts[n] = the number of members below n, for n in [0, bound].

        Computed once per set and shared by `natural_density_texts` and
        `interval_count`; not a field, so equality and hashing ignore it.
        """
        marks = [0] * self.bound
        for m in self.members:
            marks[m] = 1
        return (0, *itertools.accumulate(marks))


@dataclass(frozen=True)
class GridSet:
    """A set of (column, row) cells inside [0, bound)^2."""

    cells: frozenset[tuple[int, int]]
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise RangeError(f"bound {shown(self.bound)} must be >= 1")
        for cell in self.cells:
            if not _member_cell(cell, self.bound):
                raise RangeError(f"cell {shown(cell)!r} outside [0, {shown(self.bound)})^2")

    @classmethod
    def of(cls, cells: Iterable[tuple[int, int]], bound: int) -> "GridSet":
        return cls(frozenset(tuple(c) for c in cells), bound)

    def column(self, c: int) -> frozenset[int]:
        if not 0 <= c < self.bound:
            raise RangeError(f"column {shown(c)} outside [0, {shown(self.bound)})")
        return frozenset(row for col, row in self.cells if col == c)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class NodeSet:
    """A set of binary strings below a depth bound (lengths in [0, depth))."""

    nodes: frozenset[str]
    depth: int

    def __post_init__(self):
        check_depth(self.depth)
        for s in self.nodes:
            check_node(s)
            if len(s) >= self.depth:
                raise RangeError(f"node {format_node(s)!r} too long for depth {self.depth}")

    @classmethod
    def of(cls, nodes: Iterable[str], depth: int) -> "NodeSet":
        return cls(frozenset(nodes), depth)

    def __contains__(self, s: str) -> bool:
        return s in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def sorted_nodes(self) -> list[str]:
        return sorted(self.nodes, key=lenlex_key)

    @cached_property
    def longest_prefixes(self) -> tuple[tuple[str, int], ...]:
        """(s, length of the longest proper prefix of s in the set, or -1) per node s.

        A node s is read as its treecore rank int("1" + s, 2): its proper
        prefixes are the rank's right shifts down to 1 (the root), so none is
        sliced, and a shift to 0 means none is in the set.
        Computed once per set and shared by `minimal_elements`, `phi` and
        `phi_bar_profile`; not a field, so equality and hashing ignore it.
        """
        nodes = self.nodes
        ranks = [int("1" + s, 2) for s in nodes]
        present = set(ranks)
        out = []
        for s, h in zip(nodes, ranks):
            h >>= 1
            while h and h not in present:
                h >>= 1
            out.append((s, h.bit_length() - 1))
        return tuple(out)


# ---------------------------------------------------------------------------
# density and weight statistics on NatSet
# ---------------------------------------------------------------------------


def natural_density_texts(a: NatSet) -> list[str]:
    """The natural density profile as reduced "p/q" strings.

    One string per n in [1, bound]: h / n reduced, where h counts the members
    below n, by Euclid's algorithm on the integers themselves.  Each string
    is written as soon as its gcd is known, so no pair is kept.
    """
    texts = []
    for n, h in enumerate(a.prefix_counts[1:], start=1):
        g, r = n, h
        while r:
            g, r = r, g % r
        texts.append(f"{h // g}/{n // g}")
    return texts


def density_profile(a: NatSet, mode: str) -> tuple[Fraction, ...]:
    """Relative density of `a` over a sweep of windows.

    "dyadic": windows [2^n, 2^(n+1)) for every n with 2^(n+1) <= bound (none
    at bound 1), each divided by 2^n.  "natural": initial segments [0, n) for
    n in [1, bound], divided by n (`natural_density_texts` as Fractions).
    """
    if mode not in DENSITY_MODES:
        raise ValueError(f"mode {mode!r} not in {DENSITY_MODES}")
    if mode == "dyadic":
        return tuple(Fraction(count, 1 << n) for n, count in enumerate(dyadic_counts(a)))
    return tuple(map(Fraction, natural_density_texts(a)))


def dyadic_counts(a: NatSet) -> list[int]:
    """The member count of each dyadic window [2^n, 2^(n+1)) with 2^(n+1) <= bound, by n."""
    # m lies in [2^n, 2^(n+1)) exactly when m.bit_length() == n + 1.
    hits = [0] * (a.bound.bit_length() + 1)
    for m in a.members:
        hits[m.bit_length()] += 1
    return hits[1 : a.bound.bit_length()]


# Members summed into one unreduced partial sum before it is reduced.
_UNREDUCED_RUN = 256


def summable_weight(a: NatSet) -> Fraction:
    """Sum of 1/(n+1) over the members, exactly."""
    # Unreduced (numerator, denominator) pairs added pairwise keep the
    # operands balanced, until each partial sum covers _UNREDUCED_RUN
    # members.  Reducing a sum costs about the square of its size, and an
    # unreduced denominator is the product of the terms' m + 1 where a
    # reduced one divides their lcm.  So a larger set reduces each partial
    # sum as a Fraction and adds those, and never reduces one unreduced sum
    # of all its members; a smaller one is one sum, reduced once.
    terms = [(1, m + 1) for m in a.members]
    run = 1
    while len(terms) > 1 and run < _UNREDUCED_RUN:
        pairs = zip(terms[0::2], terms[1::2])
        merged = [(p * s + r * q, q * s) for (p, q), (r, s) in pairs]
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
        run *= 2
    if len(terms) < 2:
        return Fraction(*terms[0]) if terms else Fraction(0)
    return sum(itertools.starmap(Fraction, terms), Fraction(0))


# str() refuses an int of more than sys.get_int_max_str_digits() digits (4300
# by default, never below 640 unless unlimited), and a summable weight can
# pass that: the full natset of bound 16384 weighs a 7000-digit fraction.
_DIGITS = 600
_CHUNK = 10**_DIGITS


def decimal_text(n: int) -> str:
    """The decimal digits of a nonnegative int of any length, _DIGITS per str() call."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def frac_text(f: Fraction) -> str:
    """A nonnegative Fraction as "p/q", however many digits p and q have."""
    return f"{decimal_text(f.numerator)}/{decimal_text(f.denominator)}"


def interval_count(a: NatSet, ell: int, threshold: int, cmp: str = "ge") -> int:
    """How many length-ell windows inside [0, bound) meet the hit threshold.

    Windows are [m, m + ell) for m in [0, bound - ell]; "ge" counts windows
    with at least `threshold` members, "gt" with strictly more.
    """
    if not 1 <= ell <= a.bound:
        raise RangeError(f"ell {shown(ell)} outside [1, {shown(a.bound)}]")
    if threshold < 0:
        raise RangeError(f"threshold {shown(threshold)} must be >= 0")
    if cmp not in CMP_OPS:
        raise ValueError(f"cmp {cmp!r} not in {CMP_OPS}")
    # Window [m, m + ell) holds counts[m + ell] - counts[m] members, where
    # counts[k] is the number of members below k: the set's shared prefix
    # table, then one subtraction and one comparison per window.
    counts = a.prefix_counts
    hits = map(operator.sub, counts[ell:], counts)
    return sum(map(operator.ge if cmp == "ge" else operator.gt, hits, itertools.repeat(threshold)))


# ---------------------------------------------------------------------------
# column statistics on GridSet
# ---------------------------------------------------------------------------


def column_profile(e: GridSet) -> tuple[int, ...]:
    """Cells per column, one entry for each column in [0, bound)."""
    counts = [0] * e.bound
    for col, _row in e.cells:
        counts[col] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# antichain statistics on NodeSet
# ---------------------------------------------------------------------------


def minimal_elements(a: NodeSet) -> NodeSet:
    """Nodes of `a` with no proper prefix in `a`."""
    return _prechecked(NodeSet, nodes=frozenset(s for s, k in a.longest_prefixes if k < 0), depth=a.depth)


def phi(a: NodeSet) -> Fraction:
    """Sum of 2^-|s| over the minimal elements of `a`."""
    # Every weight is an integer numerator over 2^(depth-1).
    top = a.depth - 1
    return Fraction(sum(1 << (top - len(s)) for s, k in a.longest_prefixes if k < 0), 1 << top)


def max_antichain_weight(a: NodeSet) -> Fraction:
    """Largest sum of 2^-|s| over an antichain inside `a`.

    Dynamic programme over the prefix closure of `a`: a subtree either
    contributes its root (when the root is in `a`) or the best of its two
    child subtrees, whichever weighs more.  Closure nodes are keyed by their
    treecore rank int("1" + s, 2): the parent of rank h is h >> 1 and the
    root is 1.  One level at a time from the deepest, each subtree's best is
    added into its parent's entry, so every closure node is formed once,
    with no sort and no string built.  Always equals phi(a),
    which the tests pin down; it reads nothing `phi` reads (not
    `NodeSet.longest_prefixes`), so it stays an independent oracle.  Weights
    are integer numerators over 2^(depth-1).
    """
    if not a.nodes:
        return Fraction(0)
    top = a.depth - 1
    levels: list[list[int]] = [[] for _ in range(a.depth)]
    for s in a.nodes:
        levels[len(s)].append(int("1" + s, 2))
    below: dict[int, int] = {}  # rank -> best weight of its subtree, one level down
    for n in range(top, -1, -1):
        here: dict[int, int] = {}
        for h, weight in below.items():
            here[h >> 1] = here.get(h >> 1, 0) + weight
        own = 1 << (top - n)
        for h in levels[n]:
            here[h] = max(own, here.get(h, 0))
        below = here
    return Fraction(below[1], 1 << top)


def phi_bar_profile(a: NodeSet, depth: int | None = None) -> tuple[Fraction, ...]:
    """phi of `a` restricted to lengths >= n, for n in [0, depth).

    Non-increasing: every antichain that survives the cut at n + 1 already
    existed at n.
    """
    if depth is None:
        depth = a.depth
    if not 1 <= depth <= a.depth:
        raise RangeError(f"profile depth {shown(depth)} outside [1, {a.depth}]")
    # s is minimal in the tail >= n exactly for n in (k, |s|], where k is the
    # length of its longest proper prefix in `a`: a difference array over n.
    top = a.depth - 1
    delta = [0] * (a.depth + 1)
    for s, k in a.longest_prefixes:
        weight = 1 << (top - len(s))
        delta[k + 1] += weight
        delta[len(s) + 1] -= weight
    out = []
    total = 0
    for n in range(depth):
        total += delta[n]
        out.append(Fraction(total, 1 << top))
    return tuple(out)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def _ints_below(tokens: Iterable[str], bound: int) -> list[int] | None:
    """int() of every token when each parses and lies in [0, bound), else None.

    The readers' bulk check.  On None a reader runs its per-line loop, which
    raises the ParseError naming the first bad line.
    """
    try:
        values = list(map(int, tokens))
    except ValueError:
        return None
    return values if not values or (min(values) >= 0 and max(values) < bound) else None


def natset_from_text(text: str) -> NatSet:
    """Parse `natset v1 bound=<N>` followed by one integer per line."""
    (value,), body = read_format(text, "natset v1 bound=<n>")
    bound = header_int(value, "bound", ELEMENT_CAP)
    # A body of more than `bound` lines holds a bad or repeated member, so it
    # goes straight to the per-line loop.
    members = frozenset(_ints_below(body, bound) or ()) if len(body) <= bound else frozenset()
    if len(members) != len(body):
        # A token failed the bulk check, or two lines hold the same member.
        seen: set[int] = set()
        for i, token in numbered_body(text, body):
            try:
                m = int(token)
            except ValueError:
                raise ParseError(f"not an integer: {token!r}", i) from None
            if not 0 <= m < bound:
                raise ParseError(f"member {m} outside [0, {bound})", i)
            if m in seen:
                raise ParseError(f"duplicate member {m}", i)
            seen.add(m)
        members = frozenset(seen)
    return _prechecked(NatSet, members=members, bound=bound)


def natset_to_text(a: NatSet) -> str:
    lines = [f"natset v1 bound={a.bound}"]
    lines.extend(str(m) for m in a.sorted_members())
    return "\n".join(lines) + "\n"


def gridset_from_text(text: str) -> GridSet:
    """Parse `gridset v1 bound=<N>` followed by `<col> <row>` lines."""
    (value,), body = read_format(text, "gridset v1 bound=<n>")
    bound = header_int(value, "bound", ELEMENT_CAP)
    n = len(body)
    # A body of more than bound² lines holds a bad or repeated cell, so it goes
    # straight to the per-line loop.
    columns = read_columns(body, 2) if n <= bound * bound else None
    values = _ints_below(columns[0] + columns[1], bound) if columns else None
    cells = frozenset(zip(values[:n], values[n:])) if values else frozenset()
    if len(cells) != n:
        # A line failed the bulk check, or two lines hold the same cell.
        seen: set[tuple[int, int]] = set()
        for i, token in numbered_body(text, body):
            parts = token.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<col> <row>', got {token!r}", i)
            try:
                col, row = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"expected '<col> <row>', got {token!r}", i) from None
            if not (0 <= col < bound and 0 <= row < bound):
                raise ParseError(f"cell ({col}, {row}) outside [0, {bound})^2", i)
            if (col, row) in seen:
                raise ParseError(f"duplicate cell ({col}, {row})", i)
            seen.add((col, row))
        cells = frozenset(seen)
    return _prechecked(GridSet, cells=cells, bound=bound)


def gridset_to_text(e: GridSet) -> str:
    lines = [f"gridset v1 bound={e.bound}"]
    lines.extend(f"{col} {row}" for col, row in sorted(e.cells))
    return "\n".join(lines) + "\n"


def nodeset_from_text(text: str) -> NodeSet:
    """Parse `nodeset v1 depth=<D>` followed by one node per line ('-' = root)."""
    (value,), body = read_format(text, "nodeset v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    nodes = frozenset(read_nodes(body, depth) or ())
    if len(nodes) != len(body):
        # A line failed the bulk check, or two lines hold the same node.
        seen: set[str] = set()
        for i, token in numbered_body(text, body):
            s = read_node(token, depth, i)
            if s in seen:
                raise ParseError(f"duplicate node {token!r}", i)
            seen.add(s)
        nodes = frozenset(seen)
    return _prechecked(NodeSet, nodes=nodes, depth=depth)


def nodeset_to_text(a: NodeSet) -> str:
    lines = [f"nodeset v1 depth={a.depth}"]
    lines.extend(format_node(s) for s in a.sorted_nodes())
    return "\n".join(lines) + "\n"
