import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench import colorings, game, katetov, search, treecore
from hlbench.colorings import zdensity_coloring
from hlbench.errors import EmbeddingInvalidError, ParseError, RangeError
from hlbench.game import play
from hlbench.ideals import GridSet, NatSet
from hlbench.katetov import Ground
from hlbench.search import SearchBudget
from hlbench.treecore import (
    BUDGET_CAP,
    DEFAULT_BUDGET,
    D_MAX,
    WORK_CAP,
    LevelTree,
    Violation,
    check_depth,
    check_node,
    compatible,
    embedding_problems,
    extensions,
    format_node,
    is_node,
    lenlex_key,
    level_nodes,
    make_full,
    parse_node,
    read_columns,
    tree_from_text,
    tree_to_text,
    validate,
    validate_embedding,
)

nodes_st = st.text(alphabet="01", max_size=8)


def test_caps_are_stated_once():
    # Each module that applies a cap imports treecore's, so every name is one object.
    assert colorings.WORK_CAP is game.WORK_CAP is katetov.WORK_CAP is WORK_CAP == 1 << 20
    assert search.DEFAULT_BUDGET is DEFAULT_BUDGET == 1_000_000
    assert search.BUDGET_CAP is BUDGET_CAP == 1 << 20


class TestNodeHelpers:
    def test_is_node(self):
        assert is_node("") and is_node("0101")
        assert not is_node("012") and not is_node(5) and not is_node(None)

    def test_check_node_rejects(self):
        with pytest.raises(ValueError):
            check_node("2")

    @given(nodes_st, nodes_st)
    def test_compatible_iff_prefix(self, s, t):
        assert compatible(s, t) == (s.startswith(t) or t.startswith(s))

    def test_level_nodes_lex(self):
        assert list(level_nodes(0)) == [""]
        assert list(level_nodes(2)) == ["00", "01", "10", "11"]

    @given(st.integers(min_value=0, max_value=6))
    def test_level_count(self, n):
        assert sum(1 for _ in level_nodes(n)) == 1 << n

    @given(nodes_st)
    def test_format_parse_round_trip(self, s):
        assert parse_node(format_node(s)) == s

    def test_root_spelling(self):
        assert format_node("") == "-"
        assert parse_node("-") == ""

    def test_extensions(self):
        assert list(extensions("1", 3)) == ["100", "101", "110", "111"]
        assert list(extensions("01", 2)) == ["01"]

    @given(nodes_st, nodes_st)
    def test_lenlex_total_order(self, s, t):
        if lenlex_key(s) < lenlex_key(t):
            assert len(s) < len(t) or (len(s) == len(t) and s < t)


class TestLevelTree:
    def test_make_full(self):
        tree = make_full(4)
        assert sum(map(len, tree.levels)) == 15
        assert validate(tree) == ()
        assert list(tree.all_nodes())[:4] == ["", "0", "1", "00"]

    def test_check_depth(self):
        assert check_depth(1) == 1
        for bad in (0, D_MAX + 1):
            with pytest.raises(RangeError):
                check_depth(bad)

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
    def test_from_branch_set_valid(self, tops):
        branch_nodes = frozenset(format(t, "04b") for t in tops)
        tree = LevelTree.from_branch_set(5, branch_nodes)
        assert validate(tree) == ()
        assert tree.levels[-1] == branch_nodes

    def test_validate_rules(self):
        # pruned: "0" has no extension on the top level
        tree = LevelTree(3, (frozenset({""}), frozenset({"0", "1"}), frozenset({"10"})))
        assert {v.rule for v in validate(tree)} == {"pruned"}
        # prefix-closed: "11" present without "1"
        tree = LevelTree(3, (frozenset({""}), frozenset({"1"}), frozenset({"01", "11"})))
        assert {v.rule for v in validate(tree)} == {"prefix-closed"}
        # root missing
        tree = LevelTree(1, (frozenset(),))
        assert {v.rule for v in validate(tree)} == {"root"}
        # node on the wrong level
        tree = LevelTree(2, (frozenset({""}), frozenset({"010"})))
        assert "node-length" in {v.rule for v in validate(tree)}
        # a member that is not a string: one node-length violation, no other rule
        tree = LevelTree(2, (frozenset({""}), frozenset({"0", 7})))
        assert validate(tree) == (Violation("node-length", "7", 1),)
        # shape: levels tuple does not match depth
        tree = LevelTree(3, (frozenset({""}),))
        assert {v.rule for v in validate(tree)} == {"shape"}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bulk_pass_agrees_with_the_per_node_rules(self, data):
        # A valid tree, then up to three members removed or added, each added
        # one a string over "01a" of any length up to the depth, or an int.
        depth = data.draw(st.integers(1, 5))
        tops = data.draw(st.sets(st.text("01", min_size=depth - 1, max_size=depth - 1), min_size=1, max_size=6))
        levels = [set(level) for level in LevelTree.from_branch_set(depth, tops).levels]
        for _ in range(data.draw(st.integers(0, 3))):
            level = levels[data.draw(st.integers(0, depth - 1))]
            if level and data.draw(st.booleans()):
                level.discard(data.draw(st.sampled_from(sorted(level, key=repr))))
            else:
                level.add(data.draw(st.text("01a", max_size=depth) | st.integers(0, 9)))
        tree = LevelTree(depth, tuple(map(frozenset, levels)))
        assert validate(tree) == treecore._node_violations(tree)

    def test_contains_and_level(self):
        tree = make_full(3)
        assert "01" in tree and "010" not in tree
        assert tree.level(1) == frozenset({"0", "1"})
        for n in (-1, 3):
            with pytest.raises(RangeError, match=rf"^level {n} outside \[0, 3\)$"):
                tree.level(n)

    @pytest.mark.parametrize("top", ["0", "0000", "01a", 11])
    def test_from_branch_set_refuses_a_node_off_the_top_level(self, top):
        with pytest.raises(ValueError, match=f"^not a top-level node: {top!r}$"):
            LevelTree.from_branch_set(4, ["010", top])


class TestEmbedding:
    def good(self):
        return ("", "00", "10")

    def test_validates(self):
        assert validate_embedding(self.good()) == ("", "00", "10")

    def test_problem_listing(self):
        # leaves on different levels
        e = ("", "0", "10")
        assert embedding_problems(e)
        with pytest.raises(EmbeddingInvalidError):
            validate_embedding(e)
        # split not the meet of its arms
        e = ("1", "00", "10")
        assert embedding_problems(e)
        # order-reversed arms
        e = ("", "10", "00")
        assert embedding_problems(e)
        # missing argument
        e = ("", "00")
        assert embedding_problems(e)

    @pytest.mark.parametrize("size", [0, 2, 4, 5, 6])
    def test_length_not_a_full_tree(self, size):
        e = ("", "00", "10", "000", "001", "100", "101")[:size]
        assert embedding_problems(e) == [f"{size} images, not 2^(h+1) - 1 for any height h"]
        with pytest.raises(EmbeddingInvalidError):
            validate_embedding(e)

    def test_tops_on_two_levels(self):
        # Every arm extends its parent's side; only the tops' levels differ.
        e = ("", "00", "10", "000", "001", "100", "1011")
        assert embedding_problems(e) == ["top argument '11' maps to level 4, not 3"]
        with pytest.raises(EmbeddingInvalidError):
            validate_embedding(e)

    @pytest.mark.parametrize("image", [None, 0, b"0"])
    def test_image_not_a_string(self, image):
        e = ("", image, "10")
        assert embedding_problems(e) == ["image of '0' is not a binary string"]
        with pytest.raises(EmbeddingInvalidError, match="^invalid embedding: image of '0' is not a binary string$"):
            validate_embedding(e)


class TestTreeText:
    def test_round_trip(self):
        tree = LevelTree.from_branch_set(4, frozenset({"010", "011", "110"}))
        assert tree_from_text(tree_to_text(tree)) == tree

    def test_header_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            tree_from_text("forest v1 depth=3\n-\n")
        with pytest.raises(ParseError, match="line 1"):
            tree_from_text("tree v1 depth=zero\n")
        with pytest.raises(ParseError):
            tree_from_text("")

    def test_body_errors(self):
        with pytest.raises(ParseError, match="line 3"):
            tree_from_text("tree v1 depth=2\n-\n21\n")
        with pytest.raises(ParseError, match="too long"):
            tree_from_text("tree v1 depth=2\n-\n0\n00\n")

    def test_invalid_tree_rejected(self):
        # parses but fails validation (not pruned)
        with pytest.raises(ParseError, match="pruned"):
            tree_from_text("tree v1 depth=3\n-\n0\n1\n10\n")

    @given(st.sets(st.integers(min_value=0, max_value=7), min_size=1))
    @settings(max_examples=30)
    def test_round_trip_random(self, tops):
        tree = LevelTree.from_branch_set(4, frozenset(format(t, "03b") for t in tops))
        assert tree_from_text(tree_to_text(tree)) == tree


class TestReadColumns:
    @given(
        st.lists(st.lists(st.sampled_from(["1", "x", ";", "1;", "->"]), min_size=1, max_size=4).map(" ".join),
                 max_size=6),
        st.integers(1, 3),
    )
    @settings(max_examples=300)
    def test_columns_are_the_tokens_of_lines_of_width_tokens(self, body, width):
        rows = [line.split() for line in body]
        ok = body and all(len(row) == width for row in rows) and not any(";" in line for line in body)
        assert read_columns(body, width) == (list(map(list, zip(*rows))) if ok else None)

    def test_a_line_short_or_long_by_one_is_refused(self):
        assert read_columns(["1 2", "3 4"], 2) == [["1", "3"], ["2", "4"]]
        # The right number of fields, but not a line of two tokens each.
        assert read_columns(["1 2 3", "4"], 2) is None
        assert read_columns(["1", "; 2 3"], 2) is None
        assert read_columns([], 2) is None


# An int whose decimal form is past the interpreter's str() limit (4300 digits).
HUGE = 10**5000


class TestHugeIntMessages:
    """A RangeError names an int too long for str() by its width, and is still a RangeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_depth(HUGE), "depth <16610-bit int> outside [1, 64]"),
            (lambda: zdensity_coloring(HUGE), "n_max <16610-bit int> outside [1, 4]"),
            (lambda: zdensity_coloring(-HUGE), "n_max -<16610-bit int> outside [1, 4]"),
            (lambda: play(-HUGE, "empty", "min-legal", 8), "horizon -<16610-bit int> must be >= 1"),
            (lambda: play(HUGE, "empty", "min-legal", 8),
             "game work <16613-bit int> (horizon <16610-bit int> times window 8) above the cap 1048576"),
            (lambda: NatSet(frozenset({HUGE}), 4), "member <16610-bit int> outside [0, 4)"),
            (lambda: GridSet(frozenset({(1, HUGE)}), 4), "cell (1, <16610-bit int>) outside [0, 4)^2"),
            (lambda: SearchBudget(1, node_budget=HUGE), "node_budget <16610-bit int> above the cap 1048576"),
            (lambda: Ground("nodes", HUGE), "nodes ground depth <16610-bit int> exceeds cap 16"),
        ],
        ids=["check_depth", "zdensity_coloring", "negative n_max", "horizon", "game work", "natset member",
             "gridset cell", "node_budget", "ground size"],
    )
    def test_range_error_names_the_width(self, call, message):
        with pytest.raises(RangeError) as err:
            call()
        assert str(err.value) == message

    def test_ordinary_ints_read_as_before(self):
        with pytest.raises(RangeError, match=r"^depth 65 outside \[1, 64\]$"):
            check_depth(65)
        with pytest.raises(RangeError, match=r"^member -3 outside \[0, 4\)$"):
            NatSet(frozenset({-3}), 4)
