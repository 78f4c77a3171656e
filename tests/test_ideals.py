import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlbench.errors import ParseError, RangeError
from hlbench.ideals import (
    _UNREDUCED_RUN,
    GridSet,
    NatSet,
    NodeSet,
    column_profile,
    density_profile,
    gridset_from_text,
    gridset_to_text,
    interval_count,
    max_antichain_weight,
    minimal_elements,
    natset_from_text,
    natset_to_text,
    natural_density_texts,
    nodeset_from_text,
    nodeset_to_text,
    phi,
    phi_bar_profile,
    summable_weight,
)
from hlbench.treecore import D_MAX, level_nodes

natsets = st.builds(
    lambda members: NatSet.of(members, 64),
    st.sets(st.integers(min_value=0, max_value=63)),
)
nodesets = st.builds(
    lambda picks: NodeSet.of(
        [s for i, s in enumerate(x for n in range(5) for x in level_nodes(n)) if i in picks], 5
    ),
    st.sets(st.integers(min_value=0, max_value=30)),
)


class TestCarriers:
    def test_natset_validation(self):
        with pytest.raises(RangeError):
            NatSet.of([5], 5)
        with pytest.raises(RangeError):
            NatSet.of([-1], 5)
        with pytest.raises(RangeError):
            NatSet.of([], 0)

    def test_gridset_validation(self):
        with pytest.raises(RangeError):
            GridSet.of([(4, 0)], 4)
        with pytest.raises(RangeError):
            GridSet.of([(0, -1)], 4)
        assert GridSet.of([(1, 2)], 4).column(1) == frozenset({2})

    def test_nodeset_validation(self):
        with pytest.raises(RangeError):
            NodeSet.of(["000"], 3)
        with pytest.raises(RangeError):
            NodeSet.of([""], 0)
        with pytest.raises(ValueError):
            NodeSet.of(["2"], 3)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: NatSet.of([True], 4), "member True outside [0, 4)"),
            (lambda: NatSet.of([1.5], 4), "member 1.5 outside [0, 4)"),
            (lambda: NatSet.of([4], 4), "member 4 outside [0, 4)"),
            (lambda: GridSet.of([(0, 1, 2)], 4), "cell (0, 1, 2) outside [0, 4)^2"),
            (lambda: GridSet([[0, 1]], 4), "cell [0, 1] outside [0, 4)^2"),
            (lambda: GridSet.of([(True, 0)], 4), "cell (True, 0) outside [0, 4)^2"),
            (lambda: GridSet.of([(0, 4)], 4), "cell (0, 4) outside [0, 4)^2"),
            (lambda: GridSet.of([], 0), "bound 0 must be >= 1"),
            (lambda: GridSet.of([(1, 2)], 4).column(4), "column 4 outside [0, 4)"),
            (lambda: GridSet.of([(1, 2)], 4).column(-1), "column -1 outside [0, 4)"),
        ],
    )
    def test_rejection_messages(self, build, message):
        with pytest.raises(RangeError) as exc:
            build()
        assert str(exc.value) == message

    def test_int_subclass_members_accepted(self):
        class Int(int):
            pass

        assert NatSet.of([Int(2)], 4).members == frozenset({2})
        assert GridSet.of([(Int(1), 2)], 4).cells == frozenset({(1, 2)})

    @pytest.mark.parametrize(
        "nodes, depth, error, message",
        [
            (["000"], 3, RangeError, "node '000' too long for depth 3"),
            (["0", ""], 0, RangeError, "depth 0 outside [1, 64]"),
            (["0x"], 3, ValueError, "not a binary string: '0x'"),
            (["-"], 3, ValueError, "not a binary string: '-'"),
            ([1], 3, ValueError, "not a binary string: 1"),
        ],
    )
    def test_nodeset_constructor_still_checks(self, nodes, depth, error, message):
        # The reader skips this check; building a NodeSet directly does not.
        with pytest.raises(error) as exc:
            NodeSet.of(nodes, depth)
        assert str(exc.value) == message

    def test_prefix_table_leaves_equality_and_hash(self):
        direct = NodeSet.of(["0", "00", "011", "1"], 4)
        read = nodeset_from_text("nodeset v1 depth=4\n1\n011\n00\n0\n")
        fresh = NodeSet.of(["0", "00", "011", "1"], 4)
        before = hash(direct)
        assert sorted(direct.longest_prefixes) == [("0", -1), ("00", 1), ("011", 1), ("1", -1)]
        assert direct.longest_prefixes is direct.longest_prefixes
        assert direct == read == fresh and hash(direct) == hash(read) == hash(fresh) == before
        assert repr(direct) == repr(fresh)
        assert {read: "x"}[direct] == "x"
        assert direct != NodeSet.of(["0", "00", "011", "1"], 5)

    def test_natset_prefix_counts_leave_equality_and_hash(self):
        direct = NatSet.of([1, 4, 5], 6)
        read = natset_from_text("natset v1 bound=6\n5\n1\n4\n")
        before = hash(direct)
        assert direct.prefix_counts == (0, 0, 1, 1, 1, 2, 3)
        assert direct.prefix_counts is direct.prefix_counts
        assert natural_density_texts(direct) == ["0/1", "1/2", "1/3", "1/4", "2/5", "1/2"]
        assert interval_count(direct, 2, 2) == 1
        assert direct == read and hash(direct) == hash(read) == before
        assert repr(direct) == repr(read)
        assert direct != NatSet.of([1, 4, 5], 7)

    def test_sorted_accessors(self):
        assert NatSet.of([3, 1], 8).sorted_members() == [1, 3]
        assert NodeSet.of(["1", "00", "0"], 3).sorted_nodes() == ["0", "1", "00"]


class TestDensity:
    def test_dyadic_frozen(self):
        k = NatSet.of([1, 2, 4, 8, 16], 64)
        assert density_profile(k, "dyadic") == (
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
            Fraction(0),
        )

    def test_natural_frozen(self):
        assert density_profile(NatSet.of([0, 1], 4), "natural") == (
            Fraction(1),
            Fraction(1),
            Fraction(2, 3),
            Fraction(1, 2),
        )

    def test_mode_and_bound_validation(self):
        with pytest.raises(ValueError):
            density_profile(NatSet.of([], 8), "harmonic")
        # Bound 1 has no dyadic window and one initial segment.
        assert density_profile(NatSet.of([0], 1), "dyadic") == ()
        assert density_profile(NatSet.of([0], 1), "natural") == (Fraction(1),)

    @given(natsets)
    @settings(max_examples=50)
    def test_complement_sums_to_one(self, a):
        for mode in ("dyadic", "natural"):
            mine = density_profile(a, mode)
            other = density_profile(NatSet(frozenset(range(a.bound)) - a.members, a.bound), mode)
            assert all(x + y == 1 for x, y in zip(mine, other))

    @given(natsets)
    @settings(max_examples=50)
    def test_density_bounds(self, a):
        for mode in ("dyadic", "natural"):
            assert all(0 <= d <= 1 for d in density_profile(a, mode))


class TestSummable:
    def test_harmonic_frozen(self):
        assert summable_weight(NatSet.of(range(10), 10)) == Fraction(7381, 2520)

    def test_empty(self):
        assert summable_weight(NatSet.of([], 4)) == 0

    @given(natsets)
    @settings(max_examples=50)
    def test_additive_on_split(self, a):
        evens = NatSet.of([m for m in a.members if m % 2 == 0], 64)
        odds = NatSet.of([m for m in a.members if m % 2 == 1], 64)
        assert summable_weight(evens) + summable_weight(odds) == summable_weight(a)


class TestIntervalCount:
    def test_multiples_of_four_frozen(self):
        mult4 = NatSet.of(range(0, 64, 4), 64)
        assert interval_count(mult4, 4, 2, "ge") == 0
        assert interval_count(mult4, 4, 1, "ge") == 61
        assert interval_count(mult4, 8, 2, "ge") == 57

    def test_validation(self):
        a = NatSet.of([1], 8)
        with pytest.raises(RangeError):
            interval_count(a, 0, 1)
        with pytest.raises(RangeError):
            interval_count(a, 9, 1)
        with pytest.raises(RangeError):
            interval_count(a, 2, -1)
        with pytest.raises(ValueError):
            interval_count(a, 2, 1, "le")

    @given(natsets, st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=8))
    @settings(max_examples=50)
    def test_monotone_and_gt_shift(self, a, ell, threshold):
        assert interval_count(a, ell, threshold + 1, "ge") <= interval_count(a, ell, threshold, "ge")
        assert interval_count(a, ell, threshold, "gt") == interval_count(a, ell, threshold + 1, "ge")

    @given(natsets, st.integers(min_value=1, max_value=16))
    @settings(max_examples=30)
    def test_matches_naive(self, a, ell):
        naive = sum(
            1
            for m in range(a.bound - ell + 1)
            if sum(1 for x in a.members if m <= x < m + ell) >= 2
        )
        assert interval_count(a, ell, 2, "ge") == naive


class TestColumns:
    def test_profile(self):
        grid = GridSet.of([(0, 0), (0, 3), (2, 1)], 4)
        assert column_profile(grid) == (2, 0, 1, 0)

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))))
    @settings(max_examples=40)
    def test_profile_totals(self, cells):
        grid = GridSet.of(cells, 8)
        assert sum(column_profile(grid)) == len(grid.cells)


class TestAntichains:
    def test_minimal_elements(self):
        a = NodeSet.of(["0", "00", "01", "11"], 4)
        assert minimal_elements(a).sorted_nodes() == ["0", "11"]

    def test_phi_frozen(self):
        a = NodeSet.of(["0", "00", "01", "11"], 4)
        assert phi(a) == Fraction(3, 4)
        assert max_antichain_weight(a) == Fraction(3, 4)
        assert phi(NodeSet.of([], 4)) == 0
        assert max_antichain_weight(NodeSet.of([], 4)) == 0

    def test_full_levels_profile(self):
        import itertools

        nodes = frozenset(
            "".join(bits) for n in (2, 4, 6) for bits in itertools.product("01", repeat=n)
        )
        a = NodeSet(nodes, 8)
        assert phi(a) == 1
        assert phi_bar_profile(a, 8) == tuple([Fraction(1)] * 7 + [Fraction(0)])

    @given(nodesets)
    @settings(max_examples=60)
    def test_phi_equals_antichain_weight(self, a):
        assert phi(a) == max_antichain_weight(a)

    @given(nodesets)
    @settings(max_examples=40)
    def test_phi_bar_non_increasing(self, a):
        profile = phi_bar_profile(a)
        assert all(profile[i] >= profile[i + 1] for i in range(len(profile) - 1))
        assert profile[0] == phi(a)

    @given(nodesets, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_phi_monotone_under_subset(self, b, mask_seed):
        keep = [s for i, s in enumerate(b.sorted_nodes()) if (mask_seed >> (i % 31)) & 1]
        a = NodeSet.of(keep, b.depth)
        assert phi(a) <= phi(b)

    def test_phi_bar_depth_validation(self):
        a = NodeSet.of(["0"], 4)
        with pytest.raises(RangeError):
            phi_bar_profile(a, 0)
        with pytest.raises(RangeError):
            phi_bar_profile(a, 5)


class TestTextFormats:
    def test_round_trips(self):
        nat = NatSet.of([0, 5, 9], 12)
        assert natset_from_text(natset_to_text(nat)) == nat
        grid = GridSet.of([(0, 1), (3, 2)], 6)
        assert gridset_from_text(gridset_to_text(grid)) == grid
        nodes = NodeSet.of(["", "01", "110"], 5)
        assert nodeset_from_text(nodeset_to_text(nodes)) == nodes

    def test_comments_and_blanks_skipped(self):
        assert natset_from_text("natset v1 bound=4\n\n# hi\n2\n") == NatSet.of([2], 4)

    def test_natset_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            natset_from_text("gridset v1 bound=4\n")
        with pytest.raises(ParseError, match="line 2"):
            natset_from_text("natset v1 bound=4\nx\n")
        with pytest.raises(ParseError, match="line 3"):
            natset_from_text("natset v1 bound=4\n1\n4\n")
        with pytest.raises(ParseError, match="line 3"):
            natset_from_text("natset v1 bound=4\n1\n1\n")

    def test_gridset_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            gridset_from_text("gridset v1 bound=4\n1\n")
        with pytest.raises(ParseError, match="line 2"):
            gridset_from_text("gridset v1 bound=4\n1 9\n")
        with pytest.raises(ParseError, match="line 3"):
            gridset_from_text("gridset v1 bound=4\n1 2\n1 2\n")

    def test_nodeset_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            nodeset_from_text("nodeset v1 depth=3\n012\n")
        with pytest.raises(ParseError, match="too long"):
            nodeset_from_text("nodeset v1 depth=2\n00\n")
        with pytest.raises(ParseError, match="line 1"):
            nodeset_from_text("nodeset v1 depth=0\n")

    @given(natsets)
    @settings(max_examples=25)
    def test_natset_round_trip_random(self, a):
        assert natset_from_text(natset_to_text(a)) == a


# ---------------------------------------------------------------------------
# the one-pass statistics against their straightforward definitions
# ---------------------------------------------------------------------------


def _ref_minimal(nodes):
    return {s for s in nodes if not any(s[:k] in nodes for k in range(len(s)))}


def _ref_longest_prefixes(nodes):
    return {(s, max((k for k in range(len(s)) if s[:k] in nodes), default=-1)) for s in nodes}


def _ref_phi(nodes):
    return sum((Fraction(1, 1 << len(s)) for s in _ref_minimal(nodes)), Fraction(0))


def _ref_phi_bar(a, depth):
    return tuple(_ref_phi({s for s in a.nodes if len(s) >= n}) for n in range(depth))


def _ref_antichain(a):
    if not a.nodes:
        return Fraction(0)
    closure = {s[:k] for s in a.nodes for k in range(len(s) + 1)}
    best = {}
    for s in sorted(closure, key=lambda s: (len(s), s), reverse=True):
        kids = best.get(s + "0", Fraction(0)) + best.get(s + "1", Fraction(0))
        own = Fraction(1, 1 << len(s)) if s in a.nodes else Fraction(0)
        best[s] = max(own, kids)
    return best[""]


def _ref_dyadic(a):
    out = []
    n = 0
    while (2 << n) <= a.bound:
        width = 1 << n
        out.append(Fraction(sum(1 for m in a.members if width <= m < 2 * width), width))
        n += 1
    return tuple(out)


def _ref_summable(a):
    return sum((Fraction(1, m + 1) for m in a.members), Fraction(0))


def _ref_natural_strings(a):
    out = []
    hits = 0
    for n in range(1, a.bound + 1):
        hits += (n - 1) in a.members
        q = Fraction(hits, n)
        out.append(f"{q.numerator}/{q.denominator}")
    return out


def _bits(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1).map(lambda i: format(i, f"0{n}b") if n else "")


@st.composite
def deep_nodesets(draw):
    depth = draw(st.integers(min_value=1, max_value=10))
    # Lengths are drawn uniformly, so short nodes (and prefixes) are common.
    nodes = draw(st.sets(st.integers(min_value=0, max_value=depth - 1).flatmap(_bits), max_size=80))
    return NodeSet.of(nodes, depth)


@st.composite
def deepest_nodesets(draw):
    """Node sets of any depth up to D_MAX, holding prefixes of one another at every length."""
    depth = draw(st.integers(min_value=1, max_value=D_MAX))
    tips = draw(st.lists(st.integers(min_value=0, max_value=depth - 1).flatmap(_bits), max_size=40))
    # Cuts of the tips put chains of prefixes in the set, down to the root.
    cuts = draw(st.lists(st.integers(min_value=0, max_value=D_MAX), max_size=40)) if tips else []
    return NodeSet.of({*tips, *(tips[i % len(tips)][:k] for i, k in enumerate(cuts))}, depth)


DEEPEST = [
    NodeSet.of([], D_MAX),
    NodeSet.of([""], 1),
    NodeSet.of([""], D_MAX),
    NodeSet.of(["", "0", "11", "0" * 63, "1" * 63], D_MAX),
    NodeSet.of(["1" * n for n in range(D_MAX)], D_MAX),
    NodeSet.of(["0" * 63, "1" * 63, "0" * 62 + "1", "01" * 31 + "0"], D_MAX),
    NodeSet.of(["0" * n for n in range(1, D_MAX, 2)] + ["1" * 63, "10" * 31 + "1"], D_MAX),
]


wide_natsets = st.integers(min_value=1, max_value=1 << 10).flatmap(
    lambda bound: st.sets(st.integers(min_value=0, max_value=bound - 1), max_size=400).map(
        lambda members: NatSet.of(members, bound)
    )
)


class TestOnePassEquivalence:
    @given(deep_nodesets(), st.data())
    @settings(max_examples=150)
    def test_phi_bar_profile_is_phi_of_tails(self, a, data):
        depth = data.draw(st.integers(min_value=1, max_value=a.depth))
        assert phi_bar_profile(a, depth) == _ref_phi_bar(a, depth)
        assert phi_bar_profile(a) == _ref_phi_bar(a, a.depth)

    @given(deep_nodesets())
    @settings(max_examples=150)
    def test_phi_and_minimal_elements(self, a):
        assert minimal_elements(a).nodes == _ref_minimal(a.nodes)
        assert phi(a) == _ref_phi(a.nodes)

    @given(deep_nodesets())
    @settings(max_examples=150)
    def test_max_antichain_weight_matches_fraction_dp(self, a):
        assert max_antichain_weight(a) == _ref_antichain(a)

    @staticmethod
    def check_deep(a):
        assert max_antichain_weight(a) == _ref_antichain(a)
        assert set(a.longest_prefixes) == _ref_longest_prefixes(a.nodes)
        assert len(a.longest_prefixes) == len(a.nodes)
        assert minimal_elements(a).nodes == _ref_minimal(a.nodes)
        assert phi(a) == max_antichain_weight(a)

    @pytest.mark.parametrize("a", DEEPEST, ids=range(len(DEEPEST)))
    def test_deepest_nodesets_match_the_string_references(self, a):
        # The empty set, the root alone, the root above nodes of length 63, and chains to 63.
        self.check_deep(a)

    @given(deepest_nodesets())
    @settings(max_examples=150, deadline=None)
    def test_nodesets_to_depth_64_match_the_string_references(self, a):
        self.check_deep(a)

    def test_max_antichain_weight_reads_no_prefix_table(self):
        # The oracle checks phi, so it must not read phi's prefix table.
        a = NodeSet.of(["", "0", "11", "0" * 63, "1" * 63], D_MAX)
        assert max_antichain_weight(a) == 1
        assert "longest_prefixes" not in vars(a)

    @given(wide_natsets)
    @example(NatSet.of([], 1))
    @example(NatSet.of([0], 1))
    @settings(max_examples=100)
    def test_dyadic_profile_matches_windowed_count(self, a):
        assert density_profile(a, "dyadic") == _ref_dyadic(a)

    @given(wide_natsets)
    @example(NatSet.of([], 1))
    @example(NatSet.of([0], 1))
    @example(NatSet.of([], 2))
    @example(NatSet.of([0, 1], 2))
    @example(NatSet.of([1], 2))
    @example(NatSet.of([], 1 << 10))
    @example(NatSet.of(range(1 << 10), 1 << 10))
    @settings(max_examples=100)
    def test_natural_profile_matches_fraction_sweep(self, a):
        # The report's strings and the Fraction API share one integer kernel.
        want = _ref_natural_strings(a)
        assert natural_density_texts(a) == want
        assert [f"{q.numerator}/{q.denominator}" for q in density_profile(a, "natural")] == want

    @given(wide_natsets)
    @settings(max_examples=100)
    def test_summable_weight_matches_sequential_sum(self, a):
        assert summable_weight(a) == _ref_summable(a)

    @pytest.mark.parametrize(
        "size",
        [0, 1, 2, _UNREDUCED_RUN - 1, _UNREDUCED_RUN, _UNREDUCED_RUN + 1, 2 * _UNREDUCED_RUN + 1, 4000],
    )
    def test_summable_weight_around_the_unreduced_run(self, size):
        # Below, at and past one unreduced partial sum, and the profile benchmark's size.
        a = NatSet.of(random.Random(size).sample(range(16384), size), 16384)
        assert summable_weight(a) == _ref_summable(a)
