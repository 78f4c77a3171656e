import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench import _rng
from hlbench._rng import SplitMix64, splitmix64_low_bits, splitmix64_output
from hlbench.colorings import (
    SERIALIZE_MAX,
    ZDENSITY_N_MAX,
    Coloring,
    MatchingCheck,
    PairingSystem,
    SliceCheck,
    band_range,
    check_levels_bichromatic,
    check_pairing_disjointness,
    color_trace,
    coloring_from_text,
    coloring_to_text,
    constant_coloring,
    h_set,
    i_set,
    last_bit_coloring,
    levels_coloring,
    pairing_coloring,
    perfect_matchings,
    random_coloring,
    residue_splitting,
    zdensity_coloring,
)
from hlbench import colorings
from hlbench.colorings import SplittingAssignment
from hlbench.errors import ConstructionError, ParseError, RangeError, ShapeError
from hlbench.treecore import (
    D_MAX,
    LevelTree,
    compatible,
    extensions,
    level_nodes,
    make_full,
    node_rank,
    rank_node,
    validate,
)


def all_nodes(depth):
    return [s for n in range(depth) for s in level_nodes(n)]


class TestBackends:
    def test_value_range_check(self):
        c = constant_coloring(3, 0)
        with pytest.raises(RangeError):
            c.value("0000")

    def test_sparse_overrides(self):
        c = Coloring.sparse(4, {"01": 1, "011": 1}, default=0)
        assert c.value("01") == 1 and c.value("00") == 0 and c.value("011") == 1

    @pytest.mark.parametrize(
        "overrides, default, error, message",
        [
            ({"012": 1}, 0, RangeError, "override node '012' outside 2^<4"),
            ({"0000": 1}, 0, RangeError, "override node '0000' outside 2^<4"),
            ({"-": 1}, 0, RangeError, "override node '-' outside 2^<4"),
            ({5: 1}, 0, RangeError, "override node 5 outside 2^<4"),
            ({"01": 2}, 0, ValueError, "color must be 0 or 1, got 2"),
            ({}, 2, ValueError, "color must be 0 or 1, got 2"),
        ],
    )
    def test_sparse_still_checks(self, overrides, default, error, message):
        # The reader builds its coloring without this check; Coloring.sparse keeps it.
        with pytest.raises(error) as exc:
            Coloring.sparse(4, overrides, default=default)
        assert str(exc.value) == message

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=2, max_value=6))
    @settings(max_examples=40)
    def test_count_extensions_matches_enumeration(self, seed, depth):
        c = random_coloring(depth, seed)
        for s in ("", "0"):
            for level in range(len(s), depth):
                want = [node_rank(t) for t in level_nodes(level) if t.startswith(s) and c.value(t) == 0]
                assert c.zero_extensions(s, level) == tuple(want[:2])

    @given(
        st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.sampled_from(all_nodes(d)))),
        st.integers(0, 2**64 - 1),
        st.sampled_from(["computed", "sparse-default-0", "sparse-default-1"]),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_count_extensions_matches_a_per_string_count(self, shape, seed, backend, data):
        depth, s = shape
        level = data.draw(st.integers(len(s), depth - 1))
        c = random_coloring(depth, seed)
        if backend != "computed":
            default = int(backend[-1])
            c = Coloring.sparse(depth, {x: c.value(x) for x in all_nodes(depth) if c.value(x) != default}, default)
        want = [node_rank(x) for x in extensions(s, level) if c.value(x) == 0][:2]
        assert c.zero_extensions(s, level) == tuple(want)

    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.sampled_from(all_nodes(d)))),
           st.integers(0, 2**64 - 1), st.booleans())
    @settings(max_examples=40)
    def test_color_trace_matches_per_prefix_reads(self, shape, seed, sparse):
        depth, x = shape
        c = random_coloring(depth, seed)
        if sparse:
            c = Coloring.sparse(depth, {s: c.value(s) for s in all_nodes(depth)})
        colors = [c.value(x[:n]) for n in range(len(x) + 1)]
        assert color_trace(c, x) == tuple(tuple(n for n, v in enumerate(colors) if v == bit) for bit in (0, 1))


NON_NODES = ["2", "0a", " 1", "1 ", "01\n", "-", "０1", 5, None, b"01"]
BACKENDS = {
    "last-bit": lambda: last_bit_coloring(5),
    "random": lambda: random_coloring(5, 1),
    "sparse": lambda: Coloring.sparse(5, {"01": 1}),
    "sparse-default-1": lambda: constant_coloring(5, 1),
}


class TestNodeChecks:
    """Every string entry point refuses a non-node with check_node's ValueError, on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("s", NON_NODES)
    def test_value(self, backend, s):
        with pytest.raises(ValueError, match="^not a binary string: "):
            BACKENDS[backend]().value(s)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("s", ["2", "0a", " 1"])
    def test_zero_extensions_i_set_color_trace(self, backend, s):
        c = BACKENDS[backend]()
        for call in (lambda: c.zero_extensions(s, 3), lambda: i_set(c, s), lambda: color_trace(c, s)):
            with pytest.raises(ValueError, match="^not a binary string: "):
                call()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nodes_past_the_depth_stay_range_errors(self, backend):
        c = BACKENDS[backend]()
        for call in (lambda: c.value("00000"), lambda: i_set(c, "00000"), lambda: color_trace(c, "00000")):
            with pytest.raises(RangeError, match=r"^node of length 5 outside 2\^<5$"):
                call()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_extensions_refuse_a_level_off_the_tree(self, backend):
        c = BACKENDS[backend]()
        for level in (1, 5):
            with pytest.raises(RangeError, match=rf"^level {level} outside \[2, 5\)$"):
                c.zero_extensions("01", level)


def _last_bit(s):
    return int(s[-1]) if s else 0


def _levels_reference(assignment):
    """The levels coloring by node string: on a level k of S_i, the bit a node extending t_i chose just above it."""
    owner = {k: t for t, ks in zip(assignment.domain, assignment.sets) for k in ks}

    def color(s):
        t = owner.get(len(s))
        return int(s[len(t)]) if t is not None and s.startswith(t) else 0

    return color


def _pairing_reference(system):
    """The pairing coloring by node string: on a level of A_i, the side the node's prefix takes in x_i."""
    owner = {k: i for i, ks in enumerate(system.level_sets) for k in ks}
    sides = [{u: bit for pair in matching for bit, u in enumerate(pair)} for matching in system.matchings]

    def color(s):
        i = owner.get(len(s))
        return 0 if i is None else sides[i][s[: system.matching_levels[i]]]

    return color


class TestRankReads:
    """value(s) is the rank read at node_rank(s), and colors(lo, hi) the rank reads of lo .. hi - 1,
    for every constructor and every node up to depth 8."""

    @staticmethod
    def agree(c, reference=None):
        for r, s in enumerate(all_nodes(c.depth), 1):
            assert node_rank(s) == r
            assert c.value(s) == c.at(r)
            if reference is not None:
                assert c.at(r) == reference(s), s
        end = 1 << c.depth
        for lo, hi in ((1, end), (end >> 1, end), (2, min(5, end)), (3, 3)):
            assert c.colors(lo, hi) == bytes(map(c.at, range(lo, hi))), (lo, hi)

    @given(st.integers(1, 8), st.integers(0, 2**64 - 1))
    @settings(max_examples=20)
    def test_random(self, depth, seed):
        self.agree(random_coloring(depth, seed), lambda s: splitmix64_output(seed, node_rank(s)) & 1)

    @given(st.integers(1, 8), st.integers(0, 1))
    @settings(max_examples=10)
    def test_constant(self, depth, bit):
        self.agree(constant_coloring(depth, bit), lambda s: bit)

    @given(st.integers(1, 8))
    @settings(max_examples=8)
    def test_last_bit(self, depth):
        self.agree(last_bit_coloring(depth), _last_bit)

    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(
        st.sampled_from(all_nodes(d)), st.integers(0, 1)))))
    @settings(max_examples=30)
    def test_sparse_from_text(self, shape):
        depth, colors = shape
        body = [f"{s or '-'} {v}" for s, v in colors.items()]
        c = coloring_from_text("\n".join([f"coloring v1 depth={depth}", *body]) + "\n")
        self.agree(c, lambda s: colors.get(s, 0))

    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))))
    @settings(max_examples=30)
    def test_levels(self, shape):
        depth, max_len = shape
        assignment = residue_splitting(max_len, depth)
        self.agree(levels_coloring(assignment, depth), _levels_reference(assignment))

    @given(st.integers(2, 8).flatmap(lambda d: st.tuples(
        st.just(d), st.sets(st.integers(1, min(d - 1, 3)), min_size=1), st.integers(1, 4))))
    @settings(max_examples=30, deadline=None)
    def test_pairing(self, shape):
        depth, base_levels, cap = shape
        c, system = pairing_coloring(base_levels, cap, depth)
        self.agree(c, _pairing_reference(system))

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_zdensity(self, n_max):
        inst = zdensity_coloring(n_max)
        overrides = {s[:lvl]: bits[j] for n, table in inst.band_tables.items()
                     for lvl, bits in table.items() for j, s in enumerate(inst.band_branches[n])}
        self.agree(inst.coloring, lambda s: overrides.get(s, 0))


class TestSplitMix:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25)
    def test_jump_equals_sequential(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(50)] == [splitmix64_output(seed, k) for k in range(1, 51)]

    def test_published_outputs(self):
        # The first outputs of the reference splitmix64 for seeds 0 and 1234567,
        # so the jump function is checked against the stepwise recurrence.
        for seed, want in (
            (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
            (1234567, [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]),
        ):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(3)] == want == [splitmix64_output(seed, k) for k in range(1, 4)]

    def test_below_range(self):
        rng = SplitMix64(9)
        assert all(0 <= rng.below(7) < 7 for _ in range(100))

    @pytest.mark.parametrize("seed", [0, 1, 12345, -1, -(2**70) - 3, 2**64, 2**64 + 5, 2**100 + 7])
    @pytest.mark.parametrize("start", [1, 2**40 + 3])
    def test_low_bits_match_the_scalar_outputs(self, seed, start):
        # Seeds outside [0, 2^64) reduce as the scalar jump reduces them; the
        # counts cover no output, one, a chunk and one either side, and several chunks.
        chunk = _rng._CHUNK
        for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            want = bytes(splitmix64_output(seed, k) & 1 for k in range(start, start + count))
            assert splitmix64_low_bits(seed, start, count) == want, count

    @pytest.mark.parametrize("n", [0, 1, 5, _rng._CHUNK + 1])
    def test_low_bits_continue_the_stream(self, n):
        # low_bits(n) draws what n next_bit() calls draw, and leaves the stream where they leave it.
        bulk, scalar = SplitMix64(-7), SplitMix64(-7)
        bulk.next_u64(), scalar.next_u64()
        assert bulk.low_bits(n) == bytes(scalar.next_bit() for _ in range(n))
        assert [bulk.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


class TestRandomColoring:
    def test_deterministic(self):
        a, b = random_coloring(8, 3), random_coloring(8, 3)
        assert [a.value(s) for s in all_nodes(8)] == [b.value(s) for s in all_nodes(8)]

    def test_seed_sensitivity(self):
        # documented fixed pair: depth 8, seeds 0 and 1 disagree somewhere
        a, b = random_coloring(8, 0), random_coloring(8, 1)
        assert any(a.value(s) != b.value(s) for s in all_nodes(8))

    def test_full_depth_usable(self):
        deep = random_coloring(64, 7)
        assert deep.value("1" * 63) in (0, 1)
        assert deep.value("") in (0, 1)

    def test_depth_cap(self):
        with pytest.raises(RangeError):
            random_coloring(65, 0)


class TestLevelOperations:
    def test_h_set_constant(self):
        c = constant_coloring(5, 1)
        assert h_set(c, make_full(5)) == (0, 1, 2, 3, 4)

    def test_h_set_last_bit(self):
        c = last_bit_coloring(4)
        assert h_set(c, make_full(4)) == (0,)
        branch = LevelTree.from_branch_set(4, frozenset({"010"}))
        assert h_set(c, branch) == (0, 1, 2, 3)

    def test_h_set_depth_mismatch(self):
        with pytest.raises(ShapeError):
            h_set(constant_coloring(4, 0), make_full(3))

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30)
    def test_h_set_antitone(self, seed):
        # thinning the tree can only add constant levels
        c = random_coloring(5, seed)
        p = make_full(5)
        q = LevelTree(5, tuple(frozenset(x for x in level if compatible(x, "01")) for level in p.levels))
        assert set(h_set(c, p)) <= set(h_set(c, q))

    def test_i_set_constant_one(self):
        c = constant_coloring(6, 1)
        assert i_set(c, "0") == (3, 4, 5)
        # The default-1 branch reads no level: this one has 2^63 nodes.
        assert i_set(constant_coloring(64, 1), "") == tuple(range(2, 64))

    def test_i_set_constant_zero(self):
        c = constant_coloring(6, 0)
        assert i_set(c, "0") == ()

    def test_i_set_range_check(self):
        with pytest.raises(RangeError):
            i_set(constant_coloring(3, 0), "000")

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30)
    def test_color_trace_partitions(self, seed):
        c = random_coloring(6, seed)
        x = "01011"
        k0, k1 = color_trace(c, x)
        assert set(k0) | set(k1) == set(range(len(x) + 1))
        assert set(k0).isdisjoint(set(k1))


def _ascending_ints(t):
    return type(t) is tuple and all(type(n) is int for n in t) and all(a < b for a, b in zip(t, t[1:]))


class TestLevelSetContract:
    # Level sets are plain ascending tuples; reports and certificates list them as they come.
    @given(st.data(), st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=60)
    def test_ascending_tuples(self, data, depth, seed):
        c = random_coloring(depth, seed)
        tops = data.draw(st.sets(st.sampled_from(list(level_nodes(depth - 1))), min_size=1, max_size=6))
        p = LevelTree.from_branch_set(depth, tops)
        h = h_set(c, p)
        reference = frozenset(n for n, level in enumerate(p.levels) if len({c.value(s) for s in level}) == 1)
        assert _ascending_ints(h) and h == tuple(sorted(reference))
        s = data.draw(st.sampled_from(all_nodes(depth)))
        assert _ascending_ints(i_set(c, s))
        k0, k1 = color_trace(c, s)
        assert _ascending_ints(k0) and _ascending_ints(k1)


class TestZDensity:
    def test_nmax_one_frozen(self):
        inst = zdensity_coloring(1)
        assert inst.depth == 5
        assert inst.band_branches[1] == ("0000",)
        assert inst.coloring.value("000") == 0
        assert inst.coloring.value("0000") == 1
        assert inst.band_tables[1] == {3: (0,), 4: (1,)}

    def test_band_structure(self):
        inst = zdensity_coloring(3)
        assert inst.depth == 17
        assert validate(inst.host) == ()
        for n in range(1, 4):
            assert len(inst.band_branches[n]) == n
            table = inst.band_tables[n]
            assert sorted(table) == list(band_range(n))
            assert sorted(table.values()) == sorted(
                tuple((m >> j) & 1 for j in range(n)) for m in range(1 << n)
            )

    def test_band_range(self):
        assert list(band_range(2)) == [5, 6, 7, 8]
        with pytest.raises(RangeError):
            band_range(-1)

    def test_nmax_cap_is_the_largest_host_within_d_max(self):
        assert ZDENSITY_N_MAX == 4
        assert zdensity_coloring(ZDENSITY_N_MAX).depth <= D_MAX < (1 << (ZDENSITY_N_MAX + 2)) + 1

    def test_nmax_validation(self):
        with pytest.raises(RangeError, match=r"^n_max 0 outside \[1, 4\]$"):
            zdensity_coloring(0)

    @pytest.mark.parametrize("n_max", [5, 40, 10**9])
    def test_nmax_past_the_cap_refused_before_building(self, n_max):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=rf"^n_max {n_max} outside \[1, 4\]$"):
                zdensity_coloring(n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # refused before 1 << (n_max + 1) is formed


class TestPairing:
    def test_matchings_canonical(self):
        got = list(perfect_matchings(["00", "01", "10", "11"]))
        assert got == [
            (("00", "01"), ("10", "11")),
            (("00", "10"), ("01", "11")),
            (("00", "11"), ("01", "10")),
        ]
        assert list(perfect_matchings(["a", "b"])) == [(("a", "b"),)]

    def test_odd_rejected(self):
        with pytest.raises(ConstructionError):
            list(perfect_matchings(["a", "b", "c"]))

    @staticmethod
    def reference_matchings(rest):
        """The canonical order by recursion: the least string with each later partner in turn."""
        if not rest:
            yield ()
            return
        for i in range(1, len(rest)):
            for tail in TestPairing.reference_matchings(rest[1:i] + rest[i + 1 :]):
                yield ((rest[0], rest[i]),) + tail

    @pytest.mark.parametrize("size", [0, 2, 4, 6, 8, 10])
    def test_matchings_match_the_recursive_order(self, size):
        pool = [format(i, "04b") for i in range(size)]
        assert list(perfect_matchings(reversed(pool))) == list(self.reference_matchings(tuple(pool)))

    def test_first_matching_of_a_large_pool(self):
        # 2^11 strings: a recursion one frame per pair would pass Python's limit.
        pool = list(level_nodes(11))
        assert next(perfect_matchings(pool)) == tuple(zip(pool[0::2], pool[1::2]))

    def test_system_frozen(self):
        coloring, system = pairing_coloring([1, 2], 3, 8)
        assert system.base_levels == (1, 2)
        assert len(system.matchings) == 4
        assert [sorted(s) for s in system.level_sets] == [[4], [5], [2, 6], [3, 7]]

    def test_level_sets_disjoint(self):
        _, system = pairing_coloring([1, 2], 3, 8)
        seen = set()
        for level_set in system.level_sets:
            assert seen.isdisjoint(level_set)
            seen |= set(level_set)

    def test_small_disjointness(self):
        coloring, system = pairing_coloring([1], 1, 6)
        checks = check_pairing_disjointness(coloring, system)
        assert checks and all(ch.passed for ch in checks)

    @pytest.mark.parametrize("own_coloring", [True, False])
    def test_disjointness_matches_tree_h_sets(self, own_coloring):
        # Reference: one two-branch LevelTree and one h_set per branch pair.
        coloring, system = pairing_coloring([1, 2], 3, 8)
        c = coloring if own_coloring else random_coloring(8, 5)
        want = []
        for i, matching in enumerate(system.matchings):
            trees, bad = 0, []
            for u, v in matching:
                for x in level_nodes(system.depth - 1):
                    if not x.startswith(u):
                        continue
                    for y in level_nodes(system.depth - 1):
                        if not y.startswith(v):
                            continue
                        trees += 1
                        overlap = set(h_set(c, LevelTree.from_branch_set(system.depth, (x, y)))) & system.level_sets[i]
                        if overlap:
                            bad.append((x, y, min(overlap)))
            want.append(MatchingCheck(i, system.matching_levels[i], trees, tuple(bad)))
        got = check_pairing_disjointness(c, system)
        assert got == want
        assert sum(len(ch.violations) for ch in got) == (0 if own_coloring else 6416)

    @staticmethod
    def reference_check(c, system):
        """The per-node form: every branch pair through a matched pair, each prefix read through `value`."""
        top = system.depth - 1
        out = []
        for i, matching in enumerate(system.matchings):
            levels = sorted(system.level_sets[i])
            trees, bad = 0, []
            for u, v in matching:
                for x in extensions(u, top):
                    for y in extensions(v, top):
                        trees += 1
                        k = next((k for k in levels if c.value(x[:k]) == c.value(y[:k])), None)
                        if k is not None:
                            bad.append((min(x, y), max(x, y), k))
            out.append(MatchingCheck(i, system.matching_levels[i], trees, tuple(bad)))
        return out

    @given(
        st.integers(2, 7).flatmap(lambda d: st.tuples(
            st.just(d), st.sets(st.integers(1, min(d - 1, 3)), min_size=1), st.integers(1, 3))),
        st.sets(st.integers(0, 1 << 7), max_size=20),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_check_matches_per_node_reads(self, shape, flips, sparse):
        depth, base_levels, cap = shape
        base, system = pairing_coloring(base_levels, cap, depth)
        size = (1 << depth) - 1
        flipped = {r % size + 1 for r in flips}  # ranks
        # The construction's coloring with the drawn nodes flipped, on either backend.
        if sparse:
            c = Coloring.sparse(depth, {s: base.at(r) ^ (r in flipped) for r, s in enumerate(all_nodes(depth), 1)})
        else:
            c = Coloring.computed(depth, lambda r: base.at(r) ^ (r in flipped))
        assert check_pairing_disjointness(c, system) == self.reference_check(c, system)

    @pytest.mark.parametrize("flip", [False, True])
    def test_benchmark_shape_matches_per_node_reads(self, flip):
        # The benchmark's `pairing --base-levels 1,2 --cap 3 --depth 8`, and the same with every other top flipped.
        base, system = pairing_coloring([1, 2], 3, 8)
        c = Coloring.computed(8, lambda r: base.at(r) ^ (flip and r >= 128 and r & 1))
        checks = check_pairing_disjointness(c, system)
        assert checks == self.reference_check(c, system)
        assert all(ch.passed for ch in checks) != flip

    def test_level_outside_the_depth_refused(self):
        c, system = pairing_coloring([1], 1, 4)
        bad = PairingSystem(system.base_levels, 4, system.matchings, system.matching_levels, (frozenset({4}),))
        with pytest.raises(RangeError, match=r"^level set 0 outside \[0, 4\)$"):
            check_pairing_disjointness(c, bad)

    def test_base_level_out_of_range(self):
        with pytest.raises(RangeError):
            pairing_coloring([3], 3, 3)
        with pytest.raises(RangeError):
            pairing_coloring([0], 3, 8)

    def test_no_base_levels_or_no_matchings_refused(self):
        with pytest.raises(ConstructionError, match="^no base levels given$"):
            pairing_coloring([], 3, 8)
        with pytest.raises(ConstructionError, match="^per-level cap 0 admits no matchings$"):
            pairing_coloring([1], 0, 8)

    def test_coloring_of_another_depth_refused(self):
        _, system = pairing_coloring([1], 1, 4)
        for depth in (3, 5):
            with pytest.raises(ShapeError, match=f"^coloring depth {depth} != system depth 4$"):
                check_pairing_disjointness(random_coloring(depth, 0), system)


class TestWorkCap:
    """Pairing and levels constructions count their work in closed form and refuse past WORK_CAP."""

    @staticmethod
    def pairing_work(base_levels, cap, depth):
        coloring, system = pairing_coloring(base_levels, cap, depth)
        trees = sum(ch.trees_checked for ch in check_pairing_disjointness(coloring, system))
        return sum(1 << n for n in set(base_levels)) + trees

    @staticmethod
    def levels_work(max_len, depth):
        assignment = residue_splitting(max_len, depth)
        checks = check_levels_bichromatic(levels_coloring(assignment, depth), assignment)
        return len(assignment.domain) + sum(1 << (ch.level - len(ch.node)) for ch in checks)

    @given(st.integers(2, 9).flatmap(lambda d: st.tuples(
        st.just(d), st.sets(st.integers(1, min(d - 1, 3)), min_size=1), st.integers(1, 4))))
    @settings(max_examples=25, deadline=None)
    def test_pairing_refused_one_unit_past_its_work(self, shape):
        depth, base_levels, cap = shape
        work = self.pairing_work(base_levels, cap, depth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(colorings, "WORK_CAP", work)
            pairing_coloring(base_levels, cap, depth)
            mp.setattr(colorings, "WORK_CAP", work - 1)
            with pytest.raises(RangeError, match=rf"^pairing work {work} \(pool of "):
                pairing_coloring(base_levels, cap, depth)

    @given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))))
    @settings(max_examples=25, deadline=None)
    def test_levels_refused_one_unit_past_its_work(self, shape):
        depth, max_len = shape
        work = self.levels_work(max_len, depth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(colorings, "WORK_CAP", work)
            residue_splitting(max_len, depth)
            mp.setattr(colorings, "WORK_CAP", work - 1)
            with pytest.raises(RangeError, match=rf"^levels work {work} \(domain of "):
                residue_splitting(max_len, depth)

    def test_benchmark_shapes_fit(self):
        assert self.levels_work(8, 20) == 68_111
        assert self.pairing_work([1, 2], 3, 8) == 10_246
        assert colorings.WORK_CAP == 1 << 20

    @pytest.mark.parametrize("build", [
        lambda: residue_splitting(0, 40),
        lambda: residue_splitting(30, 40),
        lambda: pairing_coloring([1], 3, 40),
        lambda: pairing_coloring([21], 1, 22),
    ])
    def test_refused_before_anything_is_built(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=r"above the cap 1048576$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestLevelsColoring:
    def test_residue_domain(self):
        assignment = residue_splitting(4, 12)
        assert len(assignment.domain) == 31
        used = [n for levels in assignment.sets for n in levels]
        assert len(used) == len(set(used))
        assert all(2 <= n < 12 for n in used)

    def test_assignment_floor(self):
        # a level assigned to t must sit above t's children
        assignment = residue_splitting(4, 12)
        for t, levels in zip(assignment.domain, assignment.sets):
            assert all(n >= len(t) + 1 for n in levels)

    def test_bichromatic(self):
        assignment = residue_splitting(3, 10)
        c = levels_coloring(assignment, 10)
        checks = check_levels_bichromatic(c, assignment)
        assert checks and all(ch.passed for ch in checks)

    @staticmethod
    def reference_check(c, assignment):
        """The per-node form: each side of each slice read node by node through `value`."""

        def bad(s, k, color):
            if not len(s) <= k < c.depth:
                raise RangeError(f"level {k} outside [{len(s)}, {c.depth})")
            return sum(c.value(x) != color for x in extensions(s, k))

        return [
            SliceCheck(t, k, bad(t + "0", k, 0), bad(t + "1", k, 1))
            for t, ks in zip(assignment.domain, assignment.sets)
            for k in sorted(ks)
        ]

    @given(
        st.integers(1, 11).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
        st.sets(st.integers(0, 1 << 11), max_size=30),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bichromatic_check_matches_per_node_counts(self, shape, flips, sparse):
        depth, max_len = shape
        assignment = residue_splitting(max_len, depth)
        nodes = all_nodes(depth)
        flipped = {r % len(nodes) + 1 for r in flips}  # ranks
        base = levels_coloring(assignment, depth)
        # The coloring with the drawn nodes flipped, on either backend, so bad counts are compared too.
        if sparse:
            c = Coloring.sparse(depth, {s: base.at(r) ^ (r in flipped)
                                        for r, s in enumerate(nodes, 1) if r in flipped or s[:1] == "1"})
        else:
            c = Coloring.computed(depth, lambda r: base.at(r) ^ (r in flipped))
        checks = check_levels_bichromatic(c, assignment)
        assert checks == self.reference_check(c, assignment)

    def test_benchmark_shape_matches_per_node_reads(self):
        # The benchmark's `levels --max-len 8 --depth 20`: 67 600 slice reads.
        assignment = residue_splitting(8, 20)
        c = levels_coloring(assignment, 20)
        checks = check_levels_bichromatic(c, assignment)
        assert checks == self.reference_check(c, assignment)
        assert len(checks) == 18 and all(ch.passed for ch in checks)

    def test_mutated_coloring_counts_bad_nodes(self):
        assignment = residue_splitting(3, 10)
        base = levels_coloring(assignment, 10)
        # Flip the lex-first and lex-last node of every slice: one bad node on each side.
        flipped = {node_rank(ch.node + bit * (ch.level - len(ch.node)))
                   for ch in self.reference_check(base, assignment) for bit in "01"}
        c = Coloring.computed(10, lambda r: base.at(r) ^ (r in flipped))
        checks = check_levels_bichromatic(c, assignment)
        assert checks == self.reference_check(c, assignment)
        assert checks and all((ch.zero_side_bad, ch.one_side_bad) == (1, 1) for ch in checks)

    def test_slice_level_checked(self):
        c = Coloring.sparse(6, {})
        for bad in (SplittingAssignment(("01",), (frozenset({2}),)), SplittingAssignment(("0",), (frozenset({6}),))):
            with pytest.raises(RangeError) as err:
                check_levels_bichromatic(c, bad)
            with pytest.raises(RangeError) as ref:
                self.reference_check(c, bad)
            assert str(err.value) == str(ref.value)

    def test_overlap_rejected(self):
        bad = SplittingAssignment(("0", "1"), (frozenset({4}), frozenset({4})))
        with pytest.raises(ConstructionError):
            levels_coloring(bad, 6)

    def test_floor_violation_rejected(self):
        bad = SplittingAssignment(("01",), (frozenset({2}),))
        with pytest.raises(ConstructionError):
            levels_coloring(bad, 6)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (SplittingAssignment(("0", "1"), (frozenset({3}),)), "domain and level-set counts differ"),
            (SplittingAssignment(("0",), (frozenset({3}), frozenset({4}))), "domain and level-set counts differ"),
            (SplittingAssignment(("0", "0"), (frozenset({3}), frozenset({4}))), "domain strings not distinct"),
            (SplittingAssignment(("0",), (frozenset({6}),)), "assigned level 6 outside [0, 6)"),
            (SplittingAssignment(("1",), (frozenset({3, 9}),)), "assigned level 9 outside [0, 6)"),
        ],
    )
    def test_malformed_assignment_refused(self, bad, message):
        with pytest.raises(ConstructionError) as err:
            levels_coloring(bad, 6)
        assert str(err.value) == message

    @pytest.mark.parametrize("max_len", [-1, 6, 7])
    def test_residue_max_len_outside_the_depth_refused(self, max_len):
        with pytest.raises(RangeError, match=rf"^max_len {max_len} outside \[0, 6\)$"):
            residue_splitting(max_len, 6)


class TestColoringText:
    def test_dense_round_trip(self):
        c = random_coloring(4, 9)
        back = coloring_from_text(coloring_to_text(c))
        assert [back.value(s) for s in all_nodes(4)] == [c.value(s) for s in all_nodes(4)]

    def test_sparse_round_trip_stays_short(self):
        c = Coloring.sparse(40, {"0" * 30: 1}, default=0)
        text = coloring_to_text(c)
        assert len(text.splitlines()) == 2
        back = coloring_from_text(text)
        assert back.value("0" * 30) == 1 and back.value("1") == 0

    def test_serialize_cap(self):
        with pytest.raises(RangeError):
            coloring_to_text(random_coloring(SERIALIZE_MAX + 1, 0))

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            coloring_from_text("colouring v1 depth=3\n")
        with pytest.raises(ParseError, match="line 3"):
            coloring_from_text("coloring v1 depth=3\n- 1\n- 0\n")
        with pytest.raises(ParseError, match="line 2"):
            coloring_from_text("coloring v1 depth=3\n- 2\n")
        with pytest.raises(ParseError, match="line 2"):
            coloring_from_text("coloring v1 depth=2\n000 1\n")
