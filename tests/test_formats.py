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
    FORMULAS,
    ColumnBoundSurrogate,
    DensityWindowSurrogate,
    FiniteIdealPresentation,
    Generator,
    GeneratorUnionSurrogate,
    Ground,
    MorphismSpec,
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


# Morphisms map the grid [0,3)^2 into the nodes of 2^<3.
DOMAIN, CODOMAIN = Ground("grid", 3), Ground("nodes", 3)
morphisms = st.one_of(
    st.builds(MorphismSpec, formula=st.sampled_from(FORMULAS)),
    st.builds(
        lambda images: MorphismSpec(table=dict(zip(DOMAIN.members(), images))),
        st.lists(st.sampled_from(list(CODOMAIN.members())), min_size=9, max_size=9),
    ),
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
# natset and gridset rejections: the same message and line whether the bad
# line stands alone, after noise, or at the end of a long valid body
# ---------------------------------------------------------------------------

NAT_BOUND, GRID_BOUND, LONG_BODY = 16384, 128, 10_000

# name -> (bad lines, index of the line rejected, message); recorded with the
# per-line readers that the bulk checks now front.
NATSET_REJECTIONS = {
    "word": (["x"], 0, "not an integer: 'x'"),
    "decimal": (["1.5"], 0, "not an integer: '1.5'"),
    "two tokens": (["1 2"], 0, "not an integer: '1 2'"),
    "below": (["-1"], 0, "member -1 outside [0, 16384)"),
    "above": (["16384"], 0, "member 16384 outside [0, 16384)"),
    "duplicate": (["12345", "12345"], 1, "duplicate member 12345"),
}
GRIDSET_REJECTIONS = {
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
}
READERS = {
    "natset": (natset_from_text, f"natset v1 bound={NAT_BOUND}", [str(m) for m in range(LONG_BODY)]),
    "gridset": (
        gridset_from_text,
        f"gridset v1 bound={GRID_BOUND}",
        [f"{c} {r}" for c in range(GRID_BOUND) for r in range(GRID_BOUND)][:LONG_BODY],
    ),
}
# placement -> lines before the bad ones, given the reader's long valid body
PLACEMENTS = {
    "alone": lambda body: [],
    "after noise": lambda body: ["# a comment", "", "   ", "\t# indented"],
    "after a long body": lambda body: body,
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize(
    "kind, case",
    [("natset", name) for name in NATSET_REJECTIONS] + [("gridset", name) for name in GRIDSET_REJECTIONS],
)
def test_rejection_message_and_line(kind, case, placement):
    from_text, header, body = READERS[kind]
    bad, index, message = (NATSET_REJECTIONS if kind == "natset" else GRIDSET_REJECTIONS)[case]
    before = PLACEMENTS[placement](body)
    with pytest.raises(ParseError) as exc:
        from_text("\n".join([header, *before, *bad]) + "\n")
    line = 2 + len(before) + index
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


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
