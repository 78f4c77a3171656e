"""Every text reader gives what its per-line loop gives.

The readers check a body in bulk and walk it line by line only when the bulk
check fails.  Each reference below is that per-line loop on its own, reading
every line, with line numbers counted from the text.  For valid bodies with
comments and blank lines mixed in, reader and reference must build equal
carriers; for a body corrupted at one line they must raise the same
ParseError, message and line number alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench import ideals, katetov
from hlbench.colorings import coloring_from_text
from hlbench.errors import ParseError, ShapeError
from hlbench.ideals import GridSet, NatSet, NodeSet, gridset_from_text, natset_from_text, nodeset_from_text
from hlbench.katetov import FORMULAS, Ground, formula_table, parse_ideal_text, parse_morphism_text
from hlbench.treecore import (
    D_MAX,
    ELEMENT_CAP,
    LevelTree,
    format_node,
    header_int,
    numbered_body,
    read_format,
    read_node,
    read_nodes,
    tree_from_text,
    validate,
)

NOISE = st.sampled_from(["", "   ", "\t", "#", "# a comment", "  # indented", "#-> 1"])


def _numbered(text: str) -> list[tuple[int, str]]:
    return [(i, s) for i, s in enumerate((line.strip() for line in text.splitlines()[1:]), start=2)
            if s and not s.startswith("#")]


# ---------------------------------------------------------------------------
# per-line references
# ---------------------------------------------------------------------------


def ref_tree(text):
    (value,), _ = read_format(text, "tree v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    levels = [set() for _ in range(depth)]
    for i, token in _numbered(text):
        node = read_node(token, depth, i)
        levels[len(node)].add(node)
    tree = LevelTree(depth, tuple(frozenset(level) for level in levels))
    violations = validate(tree)
    if violations:
        first = violations[0]
        raise ParseError(
            f"tree invalid: rule {first.rule!r} at node {format_node(first.node)!r} (level {first.level})", 1
        )
    return tree


def ref_coloring(text):
    (value,), _ = read_format(text, "coloring v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    overrides = {}
    for i, line in _numbered(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<node> <bit>', got {line!r}", i)
        node = read_node(parts[0], depth, i)
        if parts[1] not in ("0", "1"):
            raise ParseError(f"color must be 0 or 1, got {parts[1]!r}", i)
        if node in overrides:
            raise ParseError(f"duplicate node {parts[0]!r}", i)
        overrides[node] = int(parts[1])
    return depth, overrides


def ref_natset(text):
    (value,), _ = read_format(text, "natset v1 bound=<n>")
    bound = header_int(value, "bound", ELEMENT_CAP)
    seen = set()
    for i, token in _numbered(text):
        try:
            m = int(token)
        except ValueError:
            raise ParseError(f"not an integer: {token!r}", i) from None
        if not 0 <= m < bound:
            raise ParseError(f"member {m} outside [0, {bound})", i)
        if m in seen:
            raise ParseError(f"duplicate member {m}", i)
        seen.add(m)
    return NatSet(frozenset(seen), bound)


def ref_gridset(text):
    (value,), _ = read_format(text, "gridset v1 bound=<n>")
    bound = header_int(value, "bound", ELEMENT_CAP)
    seen = set()
    for i, token in _numbered(text):
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
    return GridSet(frozenset(seen), bound)


def ref_nodeset(text):
    (value,), _ = read_format(text, "nodeset v1 depth=<n>")
    depth = header_int(value, "depth", D_MAX)
    seen = set()
    for i, token in _numbered(text):
        s = read_node(token, depth, i)
        if s in seen:
            raise ParseError(f"duplicate node {token!r}", i)
        seen.add(s)
    return NodeSet(frozenset(seen), depth)


def ref_ideal(text):
    """The ideal reader has no bulk path: its reference reads the text with the
    noise taken out and names the line the error stands on in `text`."""
    numbered = _numbered(text)
    clean = "\n".join([text.splitlines()[0], *(line for _, line in numbered)]) + "\n"
    try:
        return parse_ideal_text(clean)
    except ParseError as exc:
        if exc.line < 2:
            raise
        message = str(exc).partition(": ")[2]
        raise ParseError(message, numbered[exc.line - 2][0]) from None


def ref_morphism(text, domain, codomain):
    read_format(text, "morphism v1")
    formula, table = None, {}
    for i, stripped in _numbered(text):
        if stripped.startswith("formula="):
            if formula is not None or table:
                raise ParseError("formula line must be the only content", i)
            formula = stripped[len("formula="):]
            if formula not in FORMULAS:
                raise ParseError(f"unknown formula {formula!r} (have {FORMULAS})", i)
            continue
        if formula is not None:
            raise ParseError("table lines cannot follow a formula line", i)
        left, sep, right = stripped.partition("->")
        if not sep:
            raise ParseError(f"expected '<y> -> <x>', got {stripped!r}", i)
        try:
            y = domain.parse_element(left.strip())
            x = codomain.parse_element(right.strip())
        except ValueError as exc:
            raise ParseError(str(exc), i) from None
        if y in table:
            raise ParseError(f"duplicate table entry for {left.strip()!r}", i)
        table[y] = x
    if formula is not None:
        return formula_table(formula, domain, codomain)
    if not table:
        raise ParseError("morphism has neither formula nor table", 1)
    return table


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    except ShapeError as exc:  # a formula that the two grounds do not fit
        return "shape", str(exc)


# ---------------------------------------------------------------------------
# bodies: (header, valid body lines, bad lines to put in place of one of them)
# ---------------------------------------------------------------------------


def _bits(i: int, n: int) -> str:
    return format(i, f"0{n}b") if n else ""


def _nodes(depth: int) -> list[str]:
    return [_bits(i, n) for n in range(depth) for i in range(1 << n)]


NODE_BAD = ["x", "2", "0 1", "012", "0-1", "--", "-0", "0-"]


@st.composite
def tree_bodies(draw):
    depth = draw(st.integers(1, 6))
    tops = draw(st.sets(st.integers(0, (1 << (depth - 1)) - 1), min_size=1))
    tree = LevelTree.from_branch_set(depth, (_bits(t, depth - 1) for t in tops))
    lines = draw(st.permutations([format_node(s) for s in tree.all_nodes()]))
    # A repeated node is legal in a tree; a node one level too deep is not.
    return f"tree v1 depth={depth}", lines, [*NODE_BAD, "0" * depth, "-"]


@st.composite
def coloring_bodies(draw):
    depth = draw(st.integers(1, 6))
    colors = draw(st.dictionaries(st.sampled_from(_nodes(depth)), st.integers(0, 1)))
    lines = [f"{format_node(s)}{draw(st.sampled_from([' ', '  ', chr(9)]))}{v}" for s, v in colors.items()]
    bad = [f"{t} 1" for t in NODE_BAD] + ["0", "- 1 1", "0 2", "1 -", "0 ;", "; 1", "0" * depth + " 0", "- 1", "- 0"]
    return f"coloring v1 depth={depth}", draw(st.permutations(lines)), bad


@st.composite
def natset_bodies(draw):
    bound = draw(st.integers(1, 40))
    members = draw(st.sets(st.integers(0, bound - 1)))
    lines = [draw(st.sampled_from([str(m), f"+{m}", f"0{m}", f"{m:03d}"])) for m in members]
    bad = ["x", "1.5", "1 2", "-1", str(bound), "0", "٣", "1_1", "1__1", ";"]
    return f"natset v1 bound={bound}", draw(st.permutations(lines)), bad


@st.composite
def gridset_bodies(draw):
    bound = draw(st.integers(1, 8))
    cells = draw(st.sets(st.tuples(st.integers(0, bound - 1), st.integers(0, bound - 1))))
    # `007` spells 7 as `7` does.
    spell = st.sampled_from(["{}", "{:03d}", "+{}"])
    lines = [f"{draw(spell).format(c)} {draw(spell).format(r)}" for c, r in cells]
    bad = ["1 x", "1", "1 2 3", "1 ;", "; 1", "-1 0", "0 -1", f"{bound} 0", f"0 {bound}", "0 0", "000 00"]
    return f"gridset v1 bound={bound}", draw(st.permutations(lines)), bad


@st.composite
def nodeset_bodies(draw):
    depth = draw(st.integers(1, 6))
    nodes = draw(st.sets(st.sampled_from(_nodes(depth))))
    return f"nodeset v1 depth={depth}", draw(st.permutations([format_node(s) for s in nodes])), [
        *NODE_BAD, "0" * depth, "-"]


@st.composite
def ideal_bodies(draw):
    ground = Ground(draw(st.sampled_from(["interval", "grid", "nodes"])), draw(st.integers(1, 4)))
    members = [ground.format_element(el) for el in ground.members()]
    lines = [f"name {draw(st.sampled_from(['fin', 'ed']))}"]
    if draw(st.booleans()):
        lines.append("surrogate generator-union max=1")
    for g in range(draw(st.integers(0, 4))):
        lines.append(" ".join(["generator", f"g{g}", *draw(st.lists(st.sampled_from(members), max_size=4))]))
    bad = ["generator", "generator g0", "generator bad 99", "generator bad x", "frobnicate 1", "name a b",
           "surrogate generator-union max=2", "surrogate nothing"]
    return f"ideal v1 ground={ground.kind} params={ground.size}", draw(st.permutations(lines)), bad


GROUNDS = st.builds(Ground, st.sampled_from(["interval"] * 4 + ["grid", "nodes"]), st.integers(1, 5))


@st.composite
def morphism_bodies(draw):
    domain, codomain = draw(GROUNDS), draw(GROUNDS)
    ys = []
    if draw(st.integers(0, 9)) == 0:
        lines = [f"formula={draw(st.sampled_from(FORMULAS))}"]
    else:
        ys = draw(st.lists(st.sampled_from(list(domain.members())), min_size=1, unique=True))
        xs = list(codomain.members())
        # Mostly one spaced arrow throughout, which the bulk path reads; any
        # '->' glued to a token sends the body to the per-line loop.
        arrows = draw(st.sampled_from([[" -> "], [" -> "], [" ->\t"], [" -> ", "->", "-> ", " ->"]]))
        lines = [f"{domain.format_element(y)}{draw(st.sampled_from(arrows))}"
                 f"{codomain.format_element(draw(st.sampled_from(xs)))}" for y in ys]
    # A key no other line holds, so that the bad line is the only fault.
    y0 = domain.format_element(next((y for y in domain.members() if y not in ys), next(domain.members())))
    x0 = codomain.format_element(next(codomain.members()))
    bad = [f"{y0} -> x", f"x -> {x0}", f"{y0} -> ", f"{y0} {x0}", f"-1 -> {x0}", f"{y0} -> 99", f"{y0} -> {x0} ;",
           f"{y0} -> -> {x0}", f"{y0} x {x0}", f"{y0} -> {x0}", "formula=identity", "formula=halve", "; ->"]
    return (domain, codomain), lines, bad


def _morphism_reader(parse):
    return lambda grounds: (lambda text: parse(text, *grounds))


def _coloring_reader(text):
    c = coloring_from_text(text)
    return c.depth, c._overrides


# kind -> (bodies, reader, reference); a reader takes the text, or for
# morphisms the (domain, codomain) pair first.
KINDS = {
    "tree": (tree_bodies(), tree_from_text, ref_tree),
    "coloring": (coloring_bodies(), _coloring_reader, ref_coloring),
    "natset": (natset_bodies(), natset_from_text, ref_natset),
    "gridset": (gridset_bodies(), gridset_from_text, ref_gridset),
    "nodeset": (nodeset_bodies(), nodeset_from_text, ref_nodeset),
    "ideal": (ideal_bodies(), parse_ideal_text, ref_ideal),
    "morphism": (morphism_bodies(), parse_morphism_text, ref_morphism),
}


def _readers(kind, head):
    _, read, ref = KINDS[kind]
    if kind == "morphism":
        return "morphism v1", _morphism_reader(read)(head), _morphism_reader(ref)(head)
    return head, read, ref


def _noisy(data, lines: list[str]) -> str:
    out = []
    for line in lines:
        out.extend(data.draw(st.lists(NOISE, max_size=2)))
        out.append(line)
    out.extend(data.draw(st.lists(NOISE, max_size=2)))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_valid_bodies_read_as_the_per_line_loop(kind, data):
    head, lines, _ = data.draw(KINDS[kind][0])
    header, read, ref = _readers(kind, head)
    text = _noisy(data, [header, *lines])
    assert _outcome(read, text) == _outcome(ref, text)


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_corrupted_bodies_fail_as_the_per_line_loop(kind, data):
    head, lines, bad = data.draw(KINDS[kind][0])
    header, read, ref = _readers(kind, head)
    lines = list(lines)
    at = data.draw(st.integers(0, len(lines)))
    # Replace one line, or (past the end, or into an empty body) append one.
    line = data.draw(st.sampled_from(bad + lines[:at] + lines[at + 1:]))
    lines[at:at + 1] = [line]
    text = _noisy(data, [header, *lines])
    assert _outcome(read, text) == _outcome(ref, text)


@pytest.mark.parametrize(
    "body",
    [
        ["0 -> 1", "1 x 0"],
        ["0 -> 1", "1 -> 0 ; 2 -> 2"],
        ["0 -> 1", "1 -> 0 2"],
        ["0 -> 1", "1 -> 0", "0 -> 2"],
        ["0 -> 1", "3->4"],
        ["0 -> 1", "formula=identity"],
        ["0 -> 1", "1 -> 9"],
        ["0 -> 1", "1 -> -1"],
        ["0 -> 1", "; -> 1"],
        ["0 -> +1", "1 -> 01", "2 -> 1_0"],
    ],
)
def test_interval_tables_the_bulk_path_refuses(body):
    g, h = Ground("interval", 12), Ground("interval", 5)
    text = "\n".join(["morphism v1", "# a table", *body]) + "\n"
    assert _outcome(lambda t: parse_morphism_text(t, g, h), text) == _outcome(lambda t: ref_morphism(t, g, h), text)


GRID, NODES = Ground("grid", 12), Ground("nodes", 3)


@pytest.mark.parametrize(
    "grounds, body",
    [
        ((GRID, NODES), ["0,0 -> -", "0,1 x 0"]),
        ((GRID, NODES), ["0,0 -> -", "0,1 -> 0 ; 1,1 -> 1"]),
        ((GRID, NODES), ["0,0 -> -", "0,1 -> 0 1"]),
        ((GRID, NODES), ["0,0 -> -", "0,1 -> 0", "0,0 -> 1"]),
        ((GRID, NODES), ["0,0 -> -", "1,1->0"]),
        ((GRID, NODES), ["0,0 -> -", "0, 1 -> 0"]),
        ((GRID, NODES), ["0,0 -> -", "formula=identity"]),
        ((GRID, NODES), ["0,0 -> -", "0,1 -> 000"]),
        ((GRID, NODES), ["0,0 -> -", "12,0 -> 0"]),
        ((GRID, NODES), ["0,0 -> -", "; -> 1"]),
        ((GRID, NODES), ["+0,00 -> -", "1,1_0 -> 01"]),
        ((NODES, GRID), ["- -> 0,0", "0 x 0,1"]),
        ((NODES, GRID), ["- -> 0,0", "0 -> 0,1 ; 1 -> 1,1"]),
        ((NODES, GRID), ["- -> 0,0", "0 -> 0,1", "- -> 1,1"]),
        ((NODES, GRID), ["- -> 0,0", "1->1,1"]),
        ((NODES, GRID), ["- -> 0,0", "0 -> 0, 1"]),
        ((NODES, GRID), ["- -> 0,0", "000 -> 0,1"]),
        ((NODES, GRID), ["- -> 0,0", "0 -> 12,0"]),
        ((NODES, GRID), ["- -> 0,0", "-0 -> 1,1"]),
        ((NODES, GRID), ["- -> +0,00", "01 -> 1,1_0"]),
    ],
)
def test_grid_and_node_tables_the_bulk_path_refuses(grounds, body):
    text = "\n".join(["morphism v1", "# a table", *body]) + "\n"
    assert _outcome(lambda t: parse_morphism_text(t, *grounds), text) == _outcome(
        lambda t: ref_morphism(t, *grounds), text)


def test_numbered_body_pairs_the_body_with_its_line_numbers():
    text = "natset v1 bound=9\n\n 3 \n# four\n\t5\n  #\n6\n"
    _, body = read_format(text, "natset v1 bound=<n>")
    assert body == ["3", "5", "6"]
    assert list(numbered_body(text, body)) == [(3, "3"), (5, "5"), (7, "6")]


@given(st.lists(st.one_of(NOISE, st.sampled_from(["3", " 3", "3 #", "a b", "x#"])), max_size=12))
def test_numbered_body_keeps_the_lines_read_format_keeps(lines):
    text = "\n".join(["natset v1 bound=9", *lines])
    _, body = read_format(text, "natset v1 bound=<n>")
    assert list(numbered_body(text, body)) == _numbered(text)
    assert [s for _, s in numbered_body(text, body)] == body


# A natset body of more than `bound` lines, or a gridset body of more than
# bound² lines, holds a bad or repeated line: it goes straight to the per-line loop.
@pytest.mark.parametrize(
    "text, error",
    [
        ("natset v1 bound=2\n0\n1\n0\n", "line 4: duplicate member 0"),
        ("natset v1 bound=1\n0\n# c\nx\n", "line 4: not an integer: 'x'"),
        ("gridset v1 bound=1\n0 0\n0 0\n", "line 3: duplicate cell (0, 0)"),
        ("gridset v1 bound=1\n\n0 0\n1 0\n", "line 4: cell (1, 0) outside [0, 1)^2"),
    ],
    ids=["natset-duplicate", "natset-word", "gridset-duplicate", "gridset-outside"],
)
def test_an_over_long_body_skips_the_bulk_check(monkeypatch, text, error):
    def bulk(*args):
        raise AssertionError("the bulk check ran on a body longer than its header allows")

    monkeypatch.setattr(ideals, "_ints_below", bulk)
    monkeypatch.setattr(ideals, "read_columns", bulk)
    reader = natset_from_text if text.startswith("natset") else gridset_from_text
    with pytest.raises(ParseError) as exc:
        reader(text)
    assert str(exc.value) == error


@pytest.mark.parametrize(
    "text, read",
    [
        ("natset v1 bound=2\n1\n0\n", NatSet.of({0, 1}, 2)),
        ("gridset v1 bound=2\n0 0\n0 1\n1 0\n1 1\n", GridSet.of({(0, 0), (0, 1), (1, 0), (1, 1)}, 2)),
    ],
    ids=["natset", "gridset"],
)
def test_a_full_body_takes_the_bulk_check(monkeypatch, text, read):
    # A body with as many lines as the header allows distinct entries may be valid.
    calls = []
    ints_below = ideals._ints_below
    monkeypatch.setattr(ideals, "_ints_below", lambda *args: calls.append(args) or ints_below(*args))
    reader = natset_from_text if text.startswith("natset") else gridset_from_text
    assert reader(text) == read
    assert len(calls) == 1


# A morphism table's keys are distinct members of its domain, so a body of
# more lines than the domain has members goes straight to the per-line loop.
@pytest.mark.parametrize(
    "body, error",
    [
        (["0 -> 0", "0 -> 1", "1 -> 1"], "line 3: duplicate table entry for '0'"),
        (["0 -> 0", "1 -> 1", "# c", "2 -> 0"], "line 5: element '2' outside the interval ground of size 2"),
    ],
    ids=["duplicate", "outside"],
)
def test_an_over_long_morphism_table_skips_the_bulk_check(monkeypatch, body, error):
    def bulk(*args):
        raise AssertionError("the bulk check ran on a table longer than its domain")

    monkeypatch.setattr(katetov, "_bulk_table", bulk)
    g = Ground("interval", 2)
    with pytest.raises(ParseError) as exc:
        parse_morphism_text("\n".join(["morphism v1", *body]) + "\n", g, Ground("interval", 3))
    assert str(exc.value) == error


def test_a_full_morphism_table_takes_the_bulk_check(monkeypatch):
    calls = []
    bulk_table = katetov._bulk_table
    monkeypatch.setattr(katetov, "_bulk_table", lambda *args: calls.append(args) or bulk_table(*args))
    text = "morphism v1\n0 -> 2\n1 -> 0\n"
    assert parse_morphism_text(text, Ground("interval", 2), Ground("interval", 3)) == {0: 2, 1: 0}
    assert len(calls) == 1


@pytest.mark.parametrize(
    "body",
    [["0 -> 1", "1 -> 0", "2 -> 2"], ["0->1", "1 -> 0", "2 -> 2"], ["formula=identity"]],
    ids=["bulk table", "per-line table", "formula"],
)
def test_reader_built_specs_equal_the_per_line_loop(body):
    g = Ground("interval", 3)
    text = "\n".join(["morphism v1", *body]) + "\n"
    spec = parse_morphism_text(text, g, g)
    assert spec == ref_morphism(text, g, g)


def _set_test_read_nodes(tokens, depth):
    """`read_nodes` as it checked characters before its one-pass check: a set of the joined tokens."""
    joined = "".join(tokens)
    if set(joined) <= {"0", "1", "-"} and joined.count("-") == tokens.count("-"):
        if max(map(len, tokens), default=0) < depth:
            return list(map({"-": ""}.get, tokens, tokens))
    return None


# Node characters, ASCII and Unicode digits, spaces, a minus sign and other non-ASCII characters.
MIXED = st.text(alphabet="01-29 \t\u00a0\u0661\uff10\u2212\u00e9\U0001d7ce", max_size=5)


@given(st.lists(st.one_of(st.text(alphabet="01", min_size=1, max_size=6), st.just("-"), MIXED), max_size=8),
       st.integers(1, 8))
@settings(max_examples=300)
def test_read_nodes_accepts_the_tokens_the_set_test_accepted(tokens, depth):
    assert read_nodes(tokens, depth) == _set_test_read_nodes(tokens, depth)
