"""Finite binary strings, pruned level trees, and strong subtree embeddings.

Nodes are plain Python strings over the alphabet {'0', '1'}; the empty
string is the root.  A tree of depth D is stored level by level, so all
structural checks are set operations on slices.  Depth is capped at
D_MAX = 64: level indices stay well inside native integers and every
construction in the package is intended for desk-scale instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import EmbeddingInvalidError, ParseError, RangeError, shown

D_MAX = 64

# The most elements a header may size: a natset or gridset bound, a katetov
# interval ground, the cells of a katetov grid ground.  Files past it are
# refused on line 1 before anything is allocated.  A power of four, so a grid
# side's cap is its exact square root; the node ground's cap, depth 16, holds
# 2^16 - 1 nodes.
ELEMENT_CAP = 1 << 16

# The most work a pairing or levels construction may take on, counted in closed
# form before anything is built: the strings it lists plus the two-branch trees
# its check compares (pairing), or plus the slice colors its check reads
# (levels).  The `levels --max-len 8 --depth 20` construction takes 68 111.
# A game's horizon times window and a generator-union cover search are held to
# it too.
WORK_CAP = 1 << 20

DEFAULT_BUDGET = 1_000_000

# The largest node_budget.  The search's memory grows with its budget: at
# this cap the depth-40 height-2 search peaks at 416 MiB resident, at four
# times it at 1.6 GiB (ru_maxrss, Python 3.11).  It is above DEFAULT_BUDGET.
BUDGET_CAP = 1 << 20

ROOT = ""

# ---------------------------------------------------------------------------
# node helpers
# ---------------------------------------------------------------------------


def is_node(s: object) -> bool:
    """True when `s` is a (possibly empty) string over {'0','1'}."""
    return isinstance(s, str) and not s.strip("01")


def check_node(s: str) -> str:
    if not is_node(s):
        raise ValueError(f"not a binary string: {s!r}")
    return s


def lenlex_key(s: str) -> tuple[int, str]:
    """Canonical node order: by length first, lexicographic within a length."""
    return (len(s), s)


def compatible(s: str, t: str) -> bool:
    """True when one of the strings is a prefix of the other."""
    return s.startswith(t) or t.startswith(s)


# A node is also named by its length-lex rank, counted from 1: int("1" + s, 2).
# The root is 1, the children of rank r are 2r and 2r + 1, its parent is
# r >> 1, its level is r.bit_length() - 1, and its ancestor on level n is
# r >> (level - n).  Rank order is length-lex order.


def node_rank(s: str) -> int:
    """The length-lex rank of node `s`, from 1; a non-node raises check_node's ValueError."""
    return int("1" + check_node(s), 2)


def rank_node(r: int) -> str:
    """The node of length-lex rank r."""
    return bin(r)[3:]


def rank_span(r: int, e: int) -> range:
    """The ranks of the extensions of rank r, e levels down, in lexicographic order."""
    return range(r << e, (r + 1) << e)


def level_nodes(n: int) -> Iterator[str]:
    """All length-n binary strings in lexicographic order."""
    if n == 0:
        yield ROOT
        return
    for bits in itertools.product("01", repeat=n):
        yield "".join(bits)


def arguments(height: int) -> list[str]:
    """The arguments of 2^{<=height} in length-lex order: split arguments, then leaves."""
    return [a for n in range(height + 1) for a in level_nodes(n)]


def extensions(s: str, length: int) -> Iterator[str]:
    """All extensions of `s` of the given total length, in lexicographic order."""
    assert length >= len(s)
    for suffix in level_nodes(length - len(s)):
        yield s + suffix


def format_node(s: str) -> str:
    """Textual form of a node: '-' stands for the root."""
    return s if s else "-"


def parse_node(text: str) -> str:
    if text == "-":
        return ROOT
    if not is_node(text) or text == "":
        raise ValueError(f"not a node: {text!r}")
    return text


# ---------------------------------------------------------------------------
# level trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelTree:
    """Levelwise representation of a pruned subtree of the full binary tree.

    `levels[n]` holds the nodes of length n.  The container itself does not
    enforce the tree invariants; `validate` reports on them, and readers of
    external text reject invalid trees.
    """

    depth: int
    levels: tuple[frozenset[str], ...]

    @classmethod
    def from_branch_set(cls, depth: int, tops: Iterable[str]) -> "LevelTree":
        """Downward closure of a set of length-(depth-1) strings."""
        check_depth(depth)
        top = frozenset(tops)
        for t in top:
            if not is_node(t) or len(t) != depth - 1:
                raise ValueError(f"not a top-level node: {t!r}")
        return cls(depth, tuple(frozenset(t[:n] for t in top) for n in range(depth)))

    def level(self, n: int) -> frozenset[str]:
        if not 0 <= n < self.depth:
            raise RangeError(f"level {shown(n)} outside [0, {self.depth})")
        return self.levels[n]

    def __contains__(self, s: str) -> bool:
        return len(s) < self.depth and s in self.levels[len(s)]

    def all_nodes(self) -> Iterator[str]:
        """Nodes in length-lex order."""
        for level in self.levels:
            yield from sorted(level)


def check_depth(depth: int) -> int:
    if not 1 <= depth <= D_MAX:
        raise RangeError(f"depth {shown(depth)} outside [1, {D_MAX}]")
    return depth


def make_full(depth: int) -> LevelTree:
    """The complete binary tree of the given depth (levels 0 .. depth-1)."""
    check_depth(depth)
    return LevelTree(depth, tuple(frozenset(level_nodes(n)) for n in range(depth)))


@dataclass(frozen=True)
class Violation:
    rule: str
    node: str
    level: int


def validate(tree: LevelTree) -> tuple[Violation, ...]:
    """The level-tree invariants the tree breaks, each naming its rule and node; empty when valid.

    Rules: "shape" (level list inconsistent with depth, or depth out of range),
    "node-length" (a member sits at the wrong level), "root" (level 0 is not
    exactly the empty string), "prefix-closed" (a node's parent is missing),
    "pruned" (a non-top node has no extension on the next level).  A bulk
    pass of set operations checks a valid tree; the per-node rules run only
    when it fails, to name each violation.
    """
    if not 1 <= tree.depth <= D_MAX or len(tree.levels) != tree.depth:
        return (Violation("shape", ROOT, 0),)
    if _levels_hold(tree.levels):
        return ()
    return _node_violations(tree)


# str.translate table deleting '0' and '1', and a node's parent s[:-1].
_BITS = str.maketrans("", "", "01")
_PARENT = itemgetter(slice(None, -1))


def _levels_hold(levels: tuple[frozenset[str], ...]) -> bool:
    """The bulk pass of `validate`: True when every rule holds, by set operations level by level.

    Level 0 is {""}, each level n holds {0,1} strings of length n only, and
    the parents of level n are exactly level n - 1: prefix-closed one way,
    pruned the other.
    """
    if levels[0] != {ROOT}:
        return False
    for n in range(1, len(levels)):
        level = levels[n]
        try:
            joined = "".join(level)
        except TypeError:  # a member that is not a string
            return False
        if joined.translate(_BITS) or set(map(len, level)) - {n} or set(map(_PARENT, level)) != levels[n - 1]:
            return False
    return True


def _node_violations(tree: LevelTree) -> tuple[Violation, ...]:
    """The per-node rules of `validate`, each violation naming its node, in rule order."""
    # Members sort by str, which keeps the order of strings and admits any
    # member; the prefix-closed and pruned rules look at nodes only.
    levels = [sorted(level, key=str) for level in tree.levels]
    bad: list[Violation] = []
    for n, level in enumerate(levels):
        for s in level:
            if not is_node(s) or len(s) != n:
                bad.append(Violation("node-length", str(s), n))
    if tree.levels[0] != frozenset({ROOT}):
        bad.append(Violation("root", ROOT, 0))
    for n in range(1, tree.depth):
        for s in levels[n]:
            if is_node(s) and len(s) == n and s[:-1] not in tree.levels[n - 1]:
                bad.append(Violation("prefix-closed", s, n))
    for n in range(tree.depth - 1):
        children = tree.levels[n + 1]
        for s in levels[n]:
            if is_node(s) and s + "0" not in children and s + "1" not in children:
                bad.append(Violation("pruned", s, n))
    return tuple(bad)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def embedding_problems(images: tuple[str, ...]) -> list[str]:
    """Structural problems of an embedding of 2^{<=h}; empty list means valid.

    The embedding is the tuple of its images in argument order: index i holds
    the image of the argument of length-lex rank i + 1, whose arms are at
    2i + 1 and 2i + 2.  So a height-h embedding has 2^(h+1) - 1 images, and
    the last 2^h are the tops, which must all lie on one level.
    """
    size = len(images)
    if not size or size & (size + 1):
        return [f"{size} images, not 2^(h+1) - 1 for any height h"]
    args = arguments(size.bit_length() - 1)
    for arg, img in zip(args, images):
        if not is_node(img):
            return [f"image of {format_node(arg)!r} is not a binary string"]
    problems: list[str] = []
    top_level = len(images[size >> 1])
    for arg, img in zip(args[size >> 1 :], images[size >> 1 :]):
        if len(img) != top_level:
            problems.append(f"top argument {format_node(arg)!r} maps to level {len(img)}, not {top_level}")
    for i in range(size >> 1):
        parent = images[i]
        if not images[2 * i + 1].startswith(parent + "0"):
            problems.append(f"image of {format_node(args[2 * i + 1])!r} does not extend its parent's 0-side")
        if not images[2 * i + 2].startswith(parent + "1"):
            problems.append(f"image of {format_node(args[2 * i + 2])!r} does not extend its parent's 1-side")
    return problems


def validate_embedding(images: tuple[str, ...]) -> tuple[str, ...]:
    problems = embedding_problems(images)
    if problems:
        raise EmbeddingInvalidError(f"invalid embedding: {problems[0]}", tuple(problems))
    return images


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def tree_to_text(tree: LevelTree) -> str:
    """Serialise a tree: header line, then one node per line in length-lex order."""
    lines = [f"tree v1 depth={tree.depth}"]
    lines.extend(format_node(s) for s in tree.all_nodes())
    return "\n".join(lines) + "\n"


def read_format(text: str, header: str) -> tuple[list[str], list[str]]:
    """Split a text file into its header field values and its body lines.

    `header` spells the format's first line, e.g. 'tree v1 depth=<n>'.  The
    file's first line must have the same kind, version tag and field names
    in the same order; the values are returned in that order.  The body is
    the list of stripped lines after the header, with blank lines and
    whole-line '#' comments dropped: the body rule, stated once.  It carries
    no line numbers; `numbered_body(text, body)` pairs its lines with them.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    want, got = header.split(), lines[0].split()
    names = [field.partition("=")[0] + "=" for field in want[2:]]
    if len(got) != len(want) or got[:2] != want[:2] or not all(map(str.startswith, got[2:], names)):
        raise ParseError(f"expected header {header!r}, got {lines[0]!r}", 1)
    body = list(filter(None, map(str.strip, itertools.islice(lines, 1, None))))
    if "#" in text:
        body = [s for s in body if s[0] != "#"]
    return [value[len(name) :] for value, name in zip(got[2:], names)], body


def numbered_body(text: str, body: list[str]) -> Iterator[tuple[int, str]]:
    """`body`, as `read_format` returned it for `text`, each line paired with its 1-based line number.

    The per-line loops walk it: the ideal reader and a formula morphism file
    always, the other readers only when a bulk check fails, to name the bad
    line.  The pairs are yielded, so a loop that stops there forms no more.
    It walks the stripped lines of `text` alongside `body`: a line
    `read_format` dropped is blank or starts with '#', which no body line
    does, so each body line meets its own.
    """
    kept = iter(body)
    want = next(kept, None)
    for i, s in enumerate(map(str.strip, itertools.islice(text.splitlines(), 1, None)), start=2):
        if s == want:
            yield i, s
            want = next(kept, None)


def read_columns(body: list[str], width: int) -> list[list[str]] | None:
    """The body's tokens column by column when every line holds `width` tokens, else None.

    The readers' bulk split.  The n lines are joined by n - 1 ';' fields.
    When the body holds no other ';', those are the only ';' fields; when they
    fill every (width + 1)-th place of (width + 1) * n - 1 fields, each line is
    the `width` fields between two of them.  On None a reader runs its
    per-line loop, which raises the ParseError naming the first bad line.
    """
    n, step = len(body), width + 1
    joined = " ; ".join(body)
    fields = joined.split()
    if len(fields) != step * n - 1 or joined.count(";") != n - 1 or fields[width::step].count(";") != n - 1:
        return None
    return [fields[k::step] for k in range(width)]


def header_int(value: str, field: str, hi: int | None = None) -> int:
    """A header field's integer value, checked against [1, hi] (no upper end when hi is None)."""
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"bad {field} in header: {value!r}", 1) from None
    if n < 1 or (hi is not None and n > hi):
        allowed = "must be >= 1" if hi is None else f"outside [1, {hi}]"
        raise ParseError(f"{field} {n} {allowed}", 1)
    return n


def read_node(token: str, depth: int, line: int) -> str:
    """The node a body token spells, rejected unless it fits below `depth`."""
    try:
        node = parse_node(token)
    except ValueError:
        raise ParseError(f"not a node: {token!r}", line) from None
    if len(node) >= depth:
        raise ParseError(f"node {token!r} too long for depth {depth}", line)
    return node


# str.translate table deleting the characters of node tokens: '0', '1' and the root's '-'.
_NODE_CHARS = str.maketrans("", "", "01-")


def read_nodes(tokens: list[str], depth: int) -> list[str] | None:
    """Bulk form of `read_node`: the nodes the tokens spell, or None unless all fit below `depth`.

    One character check over the joined tokens, a single C pass that
    deletes '0', '1' and '-' and leaves nothing exactly when no other
    character occurs; then every '-' must be a whole token, and one length
    check, where '-' counts as one character, so a root token at depth 1
    gets None too.  On None a reader runs its per-line loop, which raises
    the ParseError naming the first bad line.
    """
    joined = "".join(tokens)
    if not joined.translate(_NODE_CHARS) and joined.count("-") == tokens.count("-"):
        if max(map(len, tokens), default=0) < depth:
            return list(map({"-": ROOT}.get, tokens, tokens))
    return None


def tree_from_text(text: str) -> LevelTree:
    """Parse and validate a tree; malformed lines and invalid trees are rejected."""
    (value,), body = read_format(text, "tree v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    nodes = read_nodes(body, depth)
    if nodes is None:
        # A line failed the bulk check (or is the root at depth 1): read line by line.
        nodes = [read_node(token, depth, i) for i, token in numbered_body(text, body)]
    levels: list[set[str]] = [set() for _ in range(depth)]
    for node in nodes:
        levels[len(node)].add(node)
    tree = LevelTree(depth, tuple(frozenset(level) for level in levels))
    violations = validate(tree)
    if violations:
        first = violations[0]
        raise ParseError(
            f"tree invalid: rule {first.rule!r} at node {format_node(first.node)!r} (level {first.level})",
            1,
        )
    return tree
