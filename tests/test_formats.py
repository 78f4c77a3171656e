"""All seven text formats share one reader: comments and blank lines anywhere
in the body are ignored, and body errors keep their line numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench.colorings import Coloring, coloring_from_text, coloring_to_text, random_coloring
from hlbench.errors import ParseError
from hlbench.ideals import (
    GridSet,
    NatSet,
    NodeSet,
    gridset_from_text,
    gridset_to_text,
    natset_from_text,
    natset_to_text,
    nodeset_from_text,
    nodeset_to_text,
)
from hlbench.katetov import (
    ColumnBoundSurrogate,
    DensityWindowSurrogate,
    FiniteIdealPresentation,
    Generator,
    GeneratorUnionSurrogate,
    Ground,
    SummableBoundSurrogate,
    ideal_to_text,
    morphism_to_text,
    parse_ideal_text,
    parse_morphism_text,
)
from hlbench.treecore import LevelTree, tree_from_text, tree_to_text

NOISE = st.sampled_from(["", "   ", "\t", "#", "# a comment", "  # an indented comment", "#-"])

# A body line that every format rejects on the line where it stands.
BAD_LINE = "x"


def _bits(i: int, n: int) -> str:
    return format(i, f"0{n}b") if n else ""


def nodes_below(depth: int):
    return st.text(alphabet="01", max_size=depth - 1)

trees = st.integers(1, 6).flatmap(
    lambda d: st.sets(st.integers(0, (1 << (d - 1)) - 1), min_size=1).map(
        lambda tops: LevelTree.from_branch_set(d, (_bits(t, d - 1) for t in tops))
    )
)
colorings = st.one_of(
    st.builds(random_coloring, st.integers(1, 5), st.integers(0, 2**32)),
    st.integers(1, 40).flatmap(
        lambda d: st.dictionaries(nodes_below(d), st.integers(0, 1)).map(lambda o: Coloring.sparse(d, o))
    ),
)
natsets = st.integers(1, 40).flatmap(lambda b: st.sets(st.integers(0, b - 1)).map(lambda m: NatSet.of(m, b)))
gridsets = st.integers(1, 6).flatmap(
    lambda b: st.sets(st.tuples(st.integers(0, b - 1), st.integers(0, b - 1))).map(lambda c: GridSet.of(c, b))
)
nodesets = st.integers(1, 8).flatmap(lambda d: st.sets(nodes_below(d)).map(lambda s: NodeSet.of(s, d)))
surrogates = st.one_of(
    st.none(),
    st.builds(DensityWindowSurrogate, st.fractions(0, 1), st.integers(0, 4)),
    st.builds(ColumnBoundSurrogate, st.integers(0, 3), st.integers(0, 3)),
    st.builds(GeneratorUnionSurrogate, st.integers(0, 3)),
    st.builds(SummableBoundSurrogate, st.fractions(0, 3)),
)


@st.composite
def ideals(draw):
    ground = Ground(draw(st.sampled_from(("interval", "grid", "nodes"))), draw(st.integers(1, 4)))
    members = list(ground.members())
    subsets = st.sets(st.sampled_from(members))
    generators = tuple(Generator(f"g{i}", frozenset(draw(subsets))) for i in range(draw(st.integers(0, 4))))
    name = draw(st.sampled_from(("fin", "density-zero", "ed")))
    return FiniteIdealPresentation(name, ground, generators, draw(surrogates))


# Morphisms are tables from the grid [0,3)^2 into the nodes of 2^<3.
DOMAIN, CODOMAIN = Ground("grid", 3), Ground("nodes", 3)
morphisms = st.lists(st.sampled_from(list(CODOMAIN.members())), min_size=9, max_size=9).map(
    lambda images: dict(zip(DOMAIN.members(), images))
)

# name -> (objects, serialiser, parser)
FORMATS = {
    "tree": (trees, tree_to_text, tree_from_text),
    "coloring": (colorings, coloring_to_text, coloring_from_text),
    "natset": (natsets, natset_to_text, natset_from_text),
    "gridset": (gridsets, gridset_to_text, gridset_from_text),
    "nodeset": (nodesets, nodeset_to_text, nodeset_from_text),
    "ideal": (ideals(), ideal_to_text, parse_ideal_text),
    "morphism": (
        morphisms,
        lambda f: morphism_to_text(f, DOMAIN, CODOMAIN),
        lambda text: parse_morphism_text(text, DOMAIN, CODOMAIN),
    ),
}


def _with_noise(data, lines: list[str]) -> tuple[str, list[int]]:
    """Insert noise lines anywhere after the header; also return each input line's new 1-based number."""
    inserts = data.draw(st.lists(st.tuples(st.integers(1, len(lines)), NOISE), max_size=8))
    out, numbers = [], []
    for i, line in enumerate(lines):
        out.extend(noise for at, noise in inserts if at == i)
        out.append(line)
        numbers.append(len(out))
    out.extend(noise for at, noise in inserts if at == len(lines))
    return "\n".join(out) + "\n", numbers


@pytest.mark.parametrize("kind", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_comments_and_blank_lines_are_ignored(kind, data):
    objects, to_text, from_text = FORMATS[kind]
    clean = to_text(data.draw(objects))
    noisy, _ = _with_noise(data, clean.splitlines())
    assert to_text(from_text(noisy)) == to_text(from_text(clean))


@pytest.mark.parametrize("kind", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_body_errors_report_their_own_line(kind, data):
    objects, to_text, from_text = FORMATS[kind]
    lines = to_text(data.draw(objects)).splitlines() + [BAD_LINE]
    noisy, numbers = _with_noise(data, lines)
    with pytest.raises(ParseError) as exc:
        from_text(noisy)
    assert exc.value.line == numbers[-1]



# ---------------------------------------------------------------------------
# reader rejections: the same message and line whether the bad line stands
# alone, after noise, or at the end of a long valid body
# ---------------------------------------------------------------------------

NAT_BOUND, GRID_BOUND, NODE_DEPTH, IDEAL_SIZE, LONG_BODY = 16384, 128, 16, 1024, 10_000
# Nodes of lengths 1 to 13 in length-lex order: the long bodies of the
# coloring and nodeset readers, clear of the root and of every node below.
LONG_NODES = [_bits(i, n) for n in range(1, 14) for i in range(1 << n)][:LONG_BODY]
NODE_15, NODE_16 = "1" * 15, "0" * 16

# kind -> name -> (bad lines, index of the line rejected, message); recorded
# with the per-line readers that the bulk checks now front.
REJECTIONS = {
    "natset": {
        "word": (["x"], 0, "not an integer: 'x'"),
        "decimal": (["1.5"], 0, "not an integer: '1.5'"),
        "two tokens": (["1 2"], 0, "not an integer: '1 2'"),
        "below": (["-1"], 0, "member -1 outside [0, 16384)"),
        "above": (["16384"], 0, "member 16384 outside [0, 16384)"),
        "duplicate": (["12345", "12345"], 1, "duplicate member 12345"),
    },
    "gridset": {
        "word": (["1 x"], 0, "expected '<col> <row>', got '1 x'"),
        "one token": (["1"], 0, "expected '<col> <row>', got '1'"),
        "three tokens": (["1 2 3"], 0, "expected '<col> <row>', got '1 2 3'"),
        "one then three": (["1", "2 3 4"], 0, "expected '<col> <row>', got '1'"),
        "semicolons": (["1 ;", "2 3"], 0, "expected '<col> <row>', got '1 ;'"),
        "column below": (["-1 0"], 0, "cell (-1, 0) outside [0, 128)^2"),
        "row below": (["0 -1"], 0, "cell (0, -1) outside [0, 128)^2"),
        "column above": (["128 0"], 0, "cell (128, 0) outside [0, 128)^2"),
        "row above": (["0 128"], 0, "cell (0, 128) outside [0, 128)^2"),
        "duplicate": (["127 127", "127 127"], 1, "duplicate cell (127, 127)"),
    },
    "coloring": {
        "word": ([f"{NODE_15}x 1"], 0, f"not a node: '{NODE_15}x'"),
        "one token": ([NODE_15], 0, f"expected '<node> <bit>', got '{NODE_15}'"),
        "three tokens": ([f"{NODE_15} 1 1"], 0, f"expected '<node> <bit>', got '{NODE_15} 1 1'"),
        "one then three": (["0", "1 1 0"], 0, "expected '<node> <bit>', got '0'"),
        "semicolon bit": (["0 ;", "1 1"], 0, "color must be 0 or 1, got ';'"),
        "semicolon node": (["1", "; 1"], 0, "expected '<node> <bit>', got '1'"),
        "semicolon line": (["1 1 ;", "0"], 0, "expected '<node> <bit>', got '1 1 ;'"),
        "bit first": (["1 -"], 0, "color must be 0 or 1, got '-'"),
        "bit two": ([f"{NODE_15} 2"], 0, "color must be 0 or 1, got '2'"),
        "dash inside": (["0-1 1"], 0, "not a node: '0-1'"),
        "two dashes": (["-- 0"], 0, "not a node: '--'"),
        "too long": ([f"{NODE_16} 1"], 0, f"node '{NODE_16}' too long for depth 16"),
        "duplicate": ([f"{NODE_15} 1", f"{NODE_15} 0"], 1, f"duplicate node '{NODE_15}'"),
        "duplicate root": (["- 1", "- 1"], 1, "duplicate node '-'"),
    },
    "nodeset": {
        "word": ([f"{NODE_15}x"], 0, f"not a node: '{NODE_15}x'"),
        "two tokens": (["0 1"], 0, "not a node: '0 1'"),
        "digit two": (["012"], 0, "not a node: '012'"),
        "dash inside": (["0-1"], 0, "not a node: '0-1'"),
        "two dashes": (["--"], 0, "not a node: '--'"),
        "too long": ([NODE_16], 0, f"node '{NODE_16}' too long for depth 16"),
        "duplicate": ([NODE_15, NODE_15], 1, f"duplicate node '{NODE_15}'"),
        "duplicate root": (["-", "-"], 1, "duplicate node '-'"),
    },
    "ideal": {
        "outside": (["generator bad 1 1024"], 0, "element '1024' outside the interval ground of size 1024"),
        "word": (["generator bad 1 x"], 0, "bad interval element 'x'"),
        "below": (["generator bad -1"], 0, "element '-1' outside the interval ground of size 1024"),
        "outside then word": (["generator bad 1 2000 x"], 0, "element '2000' outside the interval ground of size 1024"),
        "word then outside": (["generator bad 1 x 2000"], 0, "bad interval element 'x'"),
        "no name": (["generator"], 0, "generator line needs a name"),
        "duplicate": (["generator dup 1", "generator dup 2"], 1, "duplicate generator 'dup'"),
        "unknown directive": (["frobnicate 1"], 0, "unknown directive 'frobnicate'"),
        "name line": (["name a b"], 0, "name line needs exactly one value"),
        "surrogate twice": (["surrogate generator-union max=1", "surrogate generator-union max=2"], 1,
                            "duplicate surrogate line"),
    },
}
READERS = {
    "natset": (natset_from_text, f"natset v1 bound={NAT_BOUND}", [str(m) for m in range(LONG_BODY)]),
    "gridset": (
        gridset_from_text,
        f"gridset v1 bound={GRID_BOUND}",
        [f"{c} {r}" for c in range(GRID_BOUND) for r in range(GRID_BOUND)][:LONG_BODY],
    ),
    "coloring": (
        coloring_from_text,
        f"coloring v1 depth={NODE_DEPTH}",
        [f"{s} {i % 2}" for i, s in enumerate(LONG_NODES)],
    ),
    "nodeset": (nodeset_from_text, f"nodeset v1 depth={NODE_DEPTH}", LONG_NODES),
    "ideal": (
        parse_ideal_text,
        f"ideal v1 ground=interval params={IDEAL_SIZE}",
        [f"generator g{i} {i % IDEAL_SIZE} {(7 * i) % IDEAL_SIZE}" for i in range(LONG_BODY)],
    ),
}
# placement -> lines before the bad ones, given the reader's long valid body
PLACEMENTS = {
    "alone": lambda body: [],
    "after noise": lambda body: ["# a comment", "", "   ", "\t# indented"],
    "after a long body": lambda body: body,
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("kind, case", [(kind, name) for kind, cases in REJECTIONS.items() for name in cases])
def test_rejection_message_and_line(kind, case, placement):
    from_text, header, body = READERS[kind]
    bad, index, message = REJECTIONS[kind][case]
    before = PLACEMENTS[placement](body)
    with pytest.raises(ParseError) as exc:
        from_text("\n".join([header, *before, *bad]) + "\n")
    line = 2 + len(before) + index
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("kind", ["coloring", "nodeset", "ideal"])
def test_long_body_reads_as_listed(kind):
    from_text, header, body = READERS[kind]
    parsed = from_text("\n".join([header, *body]) + "\n")
    if kind == "coloring":
        assert parsed._overrides == {s: i % 2 for i, s in enumerate(LONG_NODES)}
    elif kind == "nodeset":
        assert parsed == NodeSet.of(LONG_NODES, NODE_DEPTH)
    else:
        assert [g.elements for g in parsed.generators] == [
            frozenset({i % IDEAL_SIZE, (7 * i) % IDEAL_SIZE}) for i in range(LONG_BODY)
        ]


@pytest.mark.parametrize(
    "text, parsed",
    [
        ("natset v1 bound=16\n+3\n05\n  7  \n1_1\n", NatSet.of([3, 5, 7, 11], 16)),
        ("gridset v1 bound=8\n+1 02\n 3\t4 \n5    6\n", GridSet.of([(1, 2), (3, 4), (5, 6)], 8)),
    ],
)
def test_tokens_int_accepts_parse_as_before(text, parsed):
    from_text = natset_from_text if text.startswith("natset") else gridset_from_text
    assert from_text(text) == parsed


def test_interval_elements_parse_as_before():
    parsed = parse_ideal_text("ideal v1 ground=interval params=16\ngenerator g +3 05 1_1 3\ngenerator h\n")
    assert [(g.name, g.elements) for g in parsed.generators] == [("g", frozenset({3, 5, 11})), ("h", frozenset())]


@pytest.mark.parametrize(
    "text, parsed",
    [
        ("coloring v1 depth=1\n- 1\n", {"": 1}),
        ("coloring v1 depth=3\n  01\t1 \n-    0\n1 1\n", {"01": 1, "": 0, "1": 1}),
        ("coloring v1 depth=3\n", {}),
        ("nodeset v1 depth=1\n-\n", NodeSet.of([""], 1)),
        ("nodeset v1 depth=3\n 01\t\n-\n1\n", NodeSet.of(["01", "", "1"], 3)),
        ("nodeset v1 depth=3\n", NodeSet.of([], 3)),
    ],
)
def test_node_tokens_parse_as_before(text, parsed):
    if text.startswith("coloring"):
        assert coloring_from_text(text)._overrides == parsed
    else:
        assert nodeset_from_text(text) == parsed
