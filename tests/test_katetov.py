import inspect
import re
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench.errors import (
    MorphismDomainError,
    NotFoundError,
    ParseError,
    RangeError,
    ShapeError,
)
from hlbench.ideals import NatSet, density_profile
from hlbench.katetov import (
    FORMULAS,
    NODES_GROUND_MAX,
    SCOPE_SENTENCE,
    ColumnBoundSurrogate,
    DensityWindowSurrogate,
    FiniteIdealPresentation,
    Generator,
    GeneratorUnionSurrogate,
    Ground,
    SummableBoundSurrogate,
    SurrogateVerdict,
    builtin_names,
    builtin_witness,
    check_morphism,
    counterexample_names,
    counterexample_witness,
    formula_table,
    ideal_to_text,
    morphism_to_text,
    parse_ideal_text,
    parse_morphism_text,
    report_to_json,
)
from hlbench.treecore import WORK_CAP


class TestGrounds:
    def test_interval(self):
        g = Ground("interval", 5)
        assert list(g.members()) == [0, 1, 2, 3, 4]
        assert 4 in g and 5 not in g
        assert g.parse_element("3") == 3
        assert g.format_element(3) == "3"

    def test_grid(self):
        g = Ground("grid", 3)
        assert len(list(g.members())) == 9
        assert (2, 2) in g and (3, 0) not in g
        assert g.parse_element("1,2") == (1, 2)
        assert g.format_element((1, 2)) == "1,2"
        with pytest.raises(ValueError):
            g.parse_element("1")

    def test_nodes(self):
        g = Ground("nodes", 3)
        assert sorted(g.members(), key=len) == ["", "0", "1", "00", "01", "10", "11"]
        assert "01" in g and "000" not in g
        assert g.parse_element("-") == ""
        assert g.format_element("") == "-"

    @pytest.mark.parametrize("element, member", [
        ((0, 0), True), ((2, 2), True), ((2, 0), True), ((0, 2), True),
        ((3, 0), False), ((0, 3), False), ((-1, 0), False), ((0, -1), False),
        ((True, 0), False), ((0, True), False), ((False, False), False),
        ((0, 0, 0), False), ((0,), False), ((), False), ([0, 0], False),
        ((1.0, 0), False), ((0, "1"), False), ("00", False), (0, False), (None, False),
    ])
    def test_grid_membership(self, element, member):
        assert (element in Ground("grid", 3)) is member

    def test_grid_membership_takes_int_subclasses(self):
        class Int(int):
            pass

        assert (Int(1), Int(2)) in Ground("grid", 3) and (Int(3), 0) not in Ground("grid", 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ground("disc", 4)
        with pytest.raises(RangeError):
            Ground("interval", 0)
        with pytest.raises(RangeError):
            Ground("nodes", NODES_GROUND_MAX + 1)

    def test_presentation_checks_elements(self):
        g = Ground("interval", 4)
        with pytest.raises(RangeError):
            FiniteIdealPresentation("p", g, (Generator("bad", frozenset({9})),), None)

    @pytest.mark.parametrize(
        "ground, element",
        [(Ground("interval", 4), 4), (Ground("interval", 4), -1), (Ground("grid", 3), (0, 3)),
         (Ground("grid", 3), (1,)), (Ground("nodes", 3), "000"), (Ground("nodes", 3), "2")],
    )
    def test_presentation_constructor_still_checks(self, ground, element):
        # The reader skips this check, having checked each element as it parsed it.
        with pytest.raises(RangeError, match="^generator 'g' has element outside the ground: "):
            FiniteIdealPresentation("p", ground, (Generator("g", frozenset({element})),), None)

    def test_parsed_presentation_equals_constructed(self):
        text = "ideal v1 ground=grid params=3\nname e\nsurrogate column-bound\ngenerator a 0,1 2,2\ngenerator b\n"
        built = FiniteIdealPresentation(
            "e", Ground("grid", 3), (Generator("a", frozenset({(0, 1), (2, 2)})), Generator("b", frozenset())),
            ColumnBoundSurrogate(),
        )
        assert parse_ideal_text(text) == built

    def test_out_of_ground_message(self):
        with pytest.raises(RangeError, match=r"^generator 'x' has element outside the ground: 9$"):
            FiniteIdealPresentation("p", Ground("interval", 4), (Generator("x", frozenset({1, 9})),), None)


class TestSurrogates:
    def test_density_window(self):
        s = DensityWindowSurrogate(eps=Fraction(1, 4), floor=0)
        ground = Ground("interval", 16)
        p = FiniteIdealPresentation("z", ground, (), s)
        assert s.accepts(frozenset({4}), p).ok  # window [4,8): density 1/4
        assert not s.accepts(frozenset({4, 5}), p).ok
        assert s.accepts(frozenset(), p).ok

    def test_density_floor_skips_early_windows(self):
        ground = Ground("interval", 16)
        p = FiniteIdealPresentation("z", ground, (), DensityWindowSurrogate(Fraction(1, 4), floor=2))
        dense_early = frozenset({1, 2, 3})
        assert DensityWindowSurrogate(Fraction(1, 4), floor=2).accepts(dense_early, p).ok
        assert not DensityWindowSurrogate(Fraction(1, 4), floor=0).accepts(dense_early, p).ok

    @staticmethod
    def reference_density_accepts(s, elements, presentation):
        """The Fraction-profile form of DensityWindowSurrogate.accepts on an interval ground."""
        bound = presentation.ground.size
        profile = density_profile(NatSet.of(elements, bound), "dyadic")[s.floor :]
        worst = max(profile, default=0)
        if worst == 0:
            return SurrogateVerdict(True, "no constrained window")
        window = s.floor + profile.index(worst)  # ties name the first window reaching the maximum
        return SurrogateVerdict(worst <= s.eps, f"max density {worst} at window {window}")

    @given(st.data(), st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=10),
           st.fractions(min_value=0, max_value=2, max_denominator=64))
    @settings(max_examples=150)
    def test_density_window_equals_the_fraction_profile(self, data, bound, floor, eps):
        # Sparse and dense sets, and sets with several windows tied at the maximum.
        members = data.draw(st.sets(st.integers(min_value=0, max_value=bound - 1)) | st.one_of(
            st.just(frozenset(range(bound))),
            st.lists(st.integers(min_value=0, max_value=8), max_size=9).map(
                lambda ns: frozenset(m for n in ns for m in (1 << n, (1 << n) + 1) if m < bound)),
        ))
        s = DensityWindowSurrogate(eps, floor)
        p = FiniteIdealPresentation("z", Ground("interval", bound), (), s)
        assert s.accepts(frozenset(members), p) == self.reference_density_accepts(s, frozenset(members), p)

    @pytest.mark.parametrize("elements, measure", [
        ({2, 4, 5}, "max density 1/2 at window 1"),  # windows 1 and 2 tie at 1/2: the first is named
        ({8, 9, 10, 11}, "max density 1/2 at window 3"),
        ({1}, "max density 1 at window 0"),
        ({0}, "no constrained window"),
        ({16}, "no constrained window"),  # 16 lies in the partial window [16, 32) of bound 17
    ])
    def test_density_window_measures(self, elements, measure):
        s = DensityWindowSurrogate(Fraction(1, 2))
        p = FiniteIdealPresentation("z", Ground("interval", 17), (), s)
        assert s.accepts(frozenset(elements), p).measure == measure
        assert s.accepts(frozenset(elements), p) == self.reference_density_accepts(s, frozenset(elements), p)

    def test_density_window_checks_its_elements(self):
        s = DensityWindowSurrogate()
        p = FiniteIdealPresentation("z", Ground("interval", 8), (), s)
        for bad in (8, -1, True):
            with pytest.raises(RangeError, match=r"^member .* outside \[0, 8\)$"):
                s.accepts(frozenset({2, bad}), p)

    @pytest.mark.parametrize("surrogate", [DensityWindowSurrogate(Fraction(1, 4), floor=4), SummableBoundSurrogate()])
    def test_check_morphism_does_not_check_preimages_again(self, surrogate, monkeypatch):
        # Each preimage passes one ground check, in accepts; its NatSet is then built unchecked.
        w = builtin_witness("summable_to_z_identity")
        target = FiniteIdealPresentation(w.target.name, w.target.ground, w.target.generators, surrogate)
        want = check_morphism(w.morphism, w.source, target)
        checked = []
        ground_check = Ground.check
        monkeypatch.setattr(Ground, "check", lambda g, elements: checked.append(elements) or ground_check(g, elements))

        def refuse(*args):
            raise AssertionError("a preimage was checked again")

        monkeypatch.setattr(NatSet, "__post_init__", refuse)
        assert check_morphism(w.morphism, w.source, target) == want
        # The identity pulls each generator back unchanged.
        assert checked == [gen.elements for gen in w.source.generators]

    @pytest.mark.parametrize("surrogate, ground, outside", [
        pytest.param(DensityWindowSurrogate(), Ground("interval", 4), r"\[0, 4\)", id="dyadic-density"),
        pytest.param(SummableBoundSurrogate(), Ground("interval", 4), r"\[0, 4\)", id="summable-bound"),
        pytest.param(ColumnBoundSurrogate(), Ground("grid", 4), r"\[0, 4\)\^2", id="column-bound"),
        pytest.param(GeneratorUnionSurrogate(), Ground("interval", 4), r"\[0, 4\)", id="generator-union-interval"),
        pytest.param(GeneratorUnionSurrogate(), Ground("grid", 4), r"\[0, 4\)\^2", id="generator-union-grid"),
        pytest.param(GeneratorUnionSurrogate(), Ground("nodes", 3), r"\{0,1\}\^<3", id="generator-union-nodes"),
    ])
    def test_direct_calls_refuse_elements_outside_the_ground(self, surrogate, ground, outside):
        member = next(ground.members())
        bad = {
            "interval": (4, 99, -1, True, 1.0, "1", (0, 0)),
            "grid": ((99, 0), (0, 4), (-1, 0), (True, 0), (0, True), (1.0, 0), (0,), (0, 0, 0), 5, "00"),
            "nodes": ("000", "2", "0 ", 7, True, ("0",)),
        }[ground.kind]
        p = FiniteIdealPresentation("p", ground, (Generator("g", frozenset({member})),), surrogate)
        assert surrogate.accepts(frozenset({member}), p).ok
        for el in bad:
            with pytest.raises(RangeError, match=rf"^member {re.escape(repr(el))} outside {outside}$"):
                surrogate.accepts(frozenset({member, el}), p)

    def test_density_requires_interval(self):
        p = FiniteIdealPresentation("g", Ground("grid", 4), (), DensityWindowSurrogate())
        with pytest.raises(ShapeError):
            p.surrogate.accepts(frozenset(), p)

    @given(
        st.sets(st.integers(min_value=0, max_value=63)),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_density_loosening_monotone(self, members, num, den):
        eps = Fraction(num, den + num)
        tight = DensityWindowSurrogate(eps)
        loose = DensityWindowSurrogate(eps * 2)
        ground = Ground("interval", 64)
        p = FiniteIdealPresentation("z", ground, (), tight)
        elements = frozenset(members)
        if tight.accepts(elements, p).ok:
            assert loose.accepts(elements, p).ok

    def test_column_bound(self):
        s = ColumnBoundSurrogate(per_column=1, exceptional=1)
        p = FiniteIdealPresentation("e", Ground("grid", 4), (), s)
        ok_set = frozenset({(0, 0), (0, 1), (2, 3)})  # column 0 is the one exception
        assert s.accepts(ok_set, p).ok
        bad = frozenset({(0, 0), (0, 1), (2, 3), (2, 0)})  # two fat columns
        assert not s.accepts(bad, p).ok

    @staticmethod
    def reference_column_accepts(s, elements):
        """ColumnBoundSurrogate.accepts as a dict count over the cells."""
        counts = {}
        for col, _row in elements:
            counts[col] = counts.get(col, 0) + 1
        over = sum(1 for v in counts.values() if v > s.per_column)
        peak = max(counts.values(), default=0)
        return SurrogateVerdict(over <= s.exceptional, f"{over} column(s) above {s.per_column}, peak {peak}")

    @given(st.data(), st.integers(1, 8), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=100)
    def test_column_bound_equals_the_column_count(self, data, size, per_column, exceptional):
        cells = data.draw(st.frozensets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))))
        s = ColumnBoundSurrogate(per_column, exceptional)
        p = FiniteIdealPresentation("e", Ground("grid", size), (), s)
        assert s.accepts(cells, p) == self.reference_column_accepts(s, cells)

    def test_generator_union(self):
        gens = (
            Generator("a", frozenset({1, 2})),
            Generator("b", frozenset({3})),
        )
        s = GeneratorUnionSurrogate(max=2)
        p = FiniteIdealPresentation("fin", Ground("interval", 8), gens, s)
        assert s.accepts(frozenset({1, 2, 3}), p).ok
        assert s.accepts(frozenset({3}), p).ok
        assert s.accepts(frozenset(), p).ok
        assert not s.accepts(frozenset({5}), p).ok
        assert not GeneratorUnionSurrogate(1).accepts(frozenset({1, 2, 3}), p).ok

    @given(
        st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=4),
        st.frozensets(st.integers(0, 5), max_size=4),
        st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_generator_union_matches_the_smallest_cover(self, sets, elements, max_generators):
        # The fewest generators whose union holds the elements, by trying every subset.
        gens = tuple(Generator(f"g{i}", g) for i, g in enumerate(sets))
        p = FiniteIdealPresentation("p", Ground("interval", 6), gens)
        covers = (j for j in range(len(sets) + 1) for combo in combinations(sets, j)
                  if elements <= frozenset().union(*combo))
        needed = next(covers, None)
        for cap in (max_generators, max_generators + 10**12):
            if needed is not None and needed <= cap:
                expected = SurrogateVerdict(True, f"covered by {needed} generator(s)")
            else:
                expected = SurrogateVerdict(False, f"not covered by any {cap} generator(s)")
            assert GeneratorUnionSurrogate(cap).accepts(elements, p) == expected

    @staticmethod
    def reference_union_accepts(s, elements, presentation):
        """GeneratorUnionSurrogate.accepts as a plain search, repeated for each allowance."""
        gens = [g.elements for g in presentation.generators]

        def cover(rest, allowance):
            if not rest:
                return True
            if allowance == 0:
                return False
            pivot = min(rest, key=presentation.ground.sort_key)
            return any(pivot in g and cover(rest - g, allowance - 1) for g in gens)

        allowances = range(min(s.max, len(gens)) + 1)
        needed = next((j for j in allowances if cover(elements, j)), None)
        if needed is None:
            return SurrogateVerdict(False, f"not covered by any {s.max} generator(s)")
        return SurrogateVerdict(True, f"covered by {needed} generator(s)")

    @given(
        st.sampled_from([Ground("interval", 7), Ground("nodes", 3), Ground("grid", 3)]).flatmap(lambda g: st.tuples(
            st.just(g),
            st.lists(st.frozensets(st.sampled_from(list(g.members())), max_size=4), max_size=7),
            st.frozensets(st.sampled_from(list(g.members()))),
        )),
        st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_generator_union_matches_the_plain_search(self, instance, max_generators):
        ground, sets, elements = instance
        gens = tuple(Generator(f"g{i}", g) for i, g in enumerate(sets))
        s = GeneratorUnionSurrogate(max_generators)
        p = FiniteIdealPresentation("p", ground, gens, s)
        assert s.accepts(elements, p) == self.reference_union_accepts(s, elements, p)

    def test_generator_union_of_all_pairs(self):
        # The pairs of [0, 15) cover its 15 elements with 8 generators, never with 7; a search
        # that kept no remainder it had seen took close to a minute for 7.
        k = 15
        gens = tuple(Generator(f"p{a}_{b}", frozenset({a, b})) for a, b in combinations(range(k), 2))
        p = FiniteIdealPresentation("pairs", Ground("interval", k), gens)
        elements = frozenset(range(k))
        assert GeneratorUnionSurrogate(7).accepts(elements, p) == SurrogateVerdict(
            False, "not covered by any 7 generator(s)")
        assert GeneratorUnionSurrogate(8).accepts(elements, p) == SurrogateVerdict(True, "covered by 8 generator(s)")

    def test_generator_union_does_not_recurse_per_generator(self):
        # A cover by 1 100 singletons takes 1 100 generators.  A search that
        # recursed once per generator taken would pass the limit set here.
        k = 1100
        gens = tuple(Generator(f"s{a}", frozenset({a})) for a in range(k))
        p = FiniteIdealPresentation("singletons", Ground("interval", k), gens)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            verdict = GeneratorUnionSurrogate(k).accepts(frozenset(range(k)), p)
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.measure == f"covered by {k} generator(s)"

    def test_generator_union_work_cap(self):
        # k singletons leave one remainder per level, of k, k - 1, ..., 1 elements, so a
        # full search costs k (k + 1) / 2 units: 1 047 628 for k = 1447, under the cap.
        # For k = 1448 (1 049 076 in all) the count first passes the cap at 1 048 580, and
        # the level that would pass it is never formed.
        def singletons(k):
            gens = tuple(Generator(f"s{a}", frozenset({a})) for a in range(k))
            return frozenset(range(k)), FiniteIdealPresentation("singletons", Ground("interval", k), gens)

        assert WORK_CAP == 1 << 20
        assert GeneratorUnionSurrogate(1447).accepts(*singletons(1447)).measure == "covered by 1447 generator(s)"
        with pytest.raises(RangeError, match=r"^generator-union work 1048580 above the cap 1048576$"):
            GeneratorUnionSurrogate(1448).accepts(*singletons(1448))

    def test_generator_union_holding_index(self):
        # Each element's generators, in presentation order, with repeats kept; equal
        # presentations compare equal whether or not one has built its index.
        gens = (Generator("a", frozenset({1, 2})), Generator("b", frozenset({2})), Generator("c", frozenset({1, 2})))
        p = FiniteIdealPresentation("p", Ground("interval", 4), gens)
        q = FiniteIdealPresentation("p", Ground("interval", 4), gens)
        assert p.holding == {1: [gens[0].elements, gens[2].elements], 2: [g.elements for g in gens]}
        assert p.holding is p.holding
        assert p == q and hash(p) == hash(q)

    def test_generator_union_looks_pivots_up_once_per_presentation(self):
        # 4 096 singleton source generators pulled back onto 4 096 target singletons at
        # max=1: scanning the target's generators for each pivot took over a second.
        k = 4096
        ground = Ground("interval", k)
        gens = tuple(Generator(f"s{a}", frozenset({a})) for a in range(k))
        source = FiniteIdealPresentation("fin", ground, gens)
        target = FiniteIdealPresentation("singletons", ground, gens, GeneratorUnionSurrogate(1))
        start = time.perf_counter()
        report = check_morphism(formula_table("identity", ground, ground), source, target)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert [(ch.generator, ch.ok, ch.measure) for ch in report.checks] == [
            (f"s{a}", True, "covered by 1 generator(s)") for a in range(k)]
        assert elapsed < 0.5, f"{elapsed:.2f}s"

    def test_summable_bound(self):
        s = SummableBoundSurrogate(weight=Fraction(1, 2))
        p = FiniteIdealPresentation("s", Ground("interval", 8), (), s)
        assert s.accepts(frozenset({3}), p).ok  # 1/4
        assert not s.accepts(frozenset({0}), p).ok  # 1/1

    def test_parameter_stamps(self):
        assert DensityWindowSurrogate(Fraction(1, 8), 2).parameters() == {"eps": "1/8", "floor": "2"}
        assert "eps=1/8" in DensityWindowSurrogate(Fraction(1, 8), 2).stamp()


class TestMorphismSpec:
    """A morphism is its table, a plain mapping; a formula line is one way to write it."""

    def test_exactly_one_backend(self):
        # A morphism file gives a formula or a table, never both.
        g = Ground("interval", 2)
        with pytest.raises(ParseError, match="line 3: table lines cannot follow a formula line"):
            parse_morphism_text("morphism v1\nformula=identity\n0 -> 0\n", g, g)
        with pytest.raises(ParseError, match="line 3: formula line must be the only content"):
            parse_morphism_text("morphism v1\n0 -> 0\nformula=identity\n", g, g)

    def test_unknown_formula(self):
        g = Ground("interval", 2)
        with pytest.raises(NotFoundError):
            formula_table("transpose", g, g)
        with pytest.raises(ParseError, match="line 2: unknown formula 'transpose'"):
            parse_morphism_text("morphism v1\nformula=transpose\n", g, g)

    def test_formulas_read_as_their_tables(self):
        line, grid, nodes = Ground("interval", 3), Ground("grid", 2), Ground("nodes", 2)
        assert formula_table("identity", line, line) == {0: 0, 1: 1, 2: 2}
        assert formula_table("identity", nodes, nodes) == {"": "", "0": "0", "1": "1"}
        projection = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}
        assert formula_table("column-projection", grid, Ground("interval", 2)) == projection
        for name in FORMULAS:
            for domain, codomain in ((line, line), (grid, grid), (nodes, nodes), (grid, Ground("interval", 2))):
                try:
                    table = formula_table(name, domain, codomain)
                except ShapeError:
                    continue
                assert parse_morphism_text(f"morphism v1\nformula={name}\n", domain, codomain) == table
                assert list(table) == list(domain.members())

    def test_identity_requires_equal_grounds(self):
        formula = "morphism v1\nformula=identity\n"
        cases = [
            (Ground("interval", 8), Ground("interval", 4), "interval/8 -> interval/4"),
            (Ground("grid", 4), Ground("interval", 4), "grid/4 -> interval/4"),
            (Ground("nodes", 3), Ground("nodes", 2), "nodes/3 -> nodes/2"),
        ]
        for domain, codomain, shapes in cases:
            with pytest.raises(ShapeError, match=f"^identity needs equal grounds, got {re.escape(shapes)}$"):
                parse_morphism_text(formula, domain, codomain)

    def test_column_projection_shape(self):
        formula = "morphism v1\nformula=column-projection\n"
        grid = FiniteIdealPresentation("g", Ground("grid", 4), (), ColumnBoundSurrogate())
        fin = FiniteIdealPresentation(
            "f", Ground("interval", 4), (Generator("x", frozenset({1})),), DensityWindowSurrogate()
        )
        cases = [
            (fin.ground, fin.ground, "interval/4 -> interval/4"),  # interval -> interval is not a projection
            (Ground("grid", 4), Ground("interval", 5), "grid/4 -> interval/5"),
            (Ground("grid", 4), Ground("grid", 4), "grid/4 -> grid/4"),
            (Ground("nodes", 4), Ground("interval", 4), "nodes/4 -> interval/4"),
        ]
        for domain, codomain, shapes in cases:
            message = f"^column-projection needs grid/N -> interval/N, got {re.escape(shapes)}$"
            with pytest.raises(ShapeError, match=message):
                parse_morphism_text(formula, domain, codomain)
        report = check_morphism(parse_morphism_text(formula, grid.ground, fin.ground), fin, grid)
        assert report.checks[0].generator == "x"

    def test_table_totality(self):
        src = FiniteIdealPresentation("a", Ground("interval", 3), (), DensityWindowSurrogate())
        partial = {0: 0, 1: 1}
        with pytest.raises(MorphismDomainError):
            check_morphism(partial, src, src)
        escapes = {0: 0, 1: 1, 2: 9}
        with pytest.raises(MorphismDomainError):
            check_morphism(escapes, src, src)

    def test_reader_built_tables_keep_the_totality_check(self):
        g = Ground("interval", 3)
        src = FiniteIdealPresentation("a", g, (Generator("g", frozenset({1})),), DensityWindowSurrogate())
        for table in ({0: 0, 1: 1}, {0: 0, 1: 1, 2: 2}, {0: 2, 1: 2, 2: 2}):
            text = "morphism v1\n" + "".join(f"{y} -> {x}\n" for y, x in table.items())
            read, built = parse_morphism_text(text, g, g), table
            try:
                expected = check_morphism(built, src, src)
            except MorphismDomainError as exc:
                with pytest.raises(MorphismDomainError, match=re.escape(str(exc))):
                    check_morphism(read, src, src)
            else:
                assert check_morphism(read, src, src) == expected

    def test_tables_read_against_other_grounds_are_checked_in_full(self):
        # Read against [0,5) -> [0,5), checked as [0,3) -> [0,3): the mark does not apply.
        wide, narrow = Ground("interval", 5), Ground("interval", 3)
        src = FiniteIdealPresentation("a", narrow, (), DensityWindowSurrogate())
        escapes = parse_morphism_text("morphism v1\n0 -> 0\n1 -> 1\n2 -> 4\n", wide, wide)
        with pytest.raises(MorphismDomainError, match=r"f\(2\) = 4 lands outside the source ground"):
            check_morphism(escapes, src, src)
        extra = parse_morphism_text("morphism v1\n0 -> 0\n1 -> 1\n2 -> 2\n3 -> 0\n", wide, narrow)
        with pytest.raises(MorphismDomainError, match=r"table key 3 outside the target ground"):
            check_morphism(extra, src, src)

    def test_a_replaced_table_is_checked_in_full(self):
        # A read table edited after reading is checked in full, as is one read from a formula.
        g = Ground("interval", 3)
        src = FiniteIdealPresentation("a", g, (Generator("g", frozenset({1})),), DensityWindowSurrogate())
        for text in ("morphism v1\n0 -> 0\n1 -> 1\n2 -> 0\n", "morphism v1\nformula=identity\n"):
            read = parse_morphism_text(text, g, g)
            del read[2]
            read[5] = 0
            with pytest.raises(MorphismDomainError, match=r"undefined at 2"):
                check_morphism(read, src, src)

    def test_bool_keys_and_values_are_not_ground_elements(self):
        g = Ground("interval", 3)
        src = FiniteIdealPresentation("a", g, (Generator("g", frozenset({1})),), DensityWindowSurrogate())
        with pytest.raises(MorphismDomainError, match=r"table key True outside the target ground"):
            check_morphism({0: 0, True: 1, 2: 0}, src, src)
        with pytest.raises(MorphismDomainError, match=r"f\(1\) = False lands outside the source ground"):
            check_morphism({0: 0, 1: False, 2: 0}, src, src)
        assert True not in g and (0, True) not in Ground("grid", 2)

    @pytest.mark.parametrize("kind, size", [("interval", 3), ("grid", 2), ("nodes", 3)])
    def test_the_totality_check_on_every_ground_kind(self, kind, size):
        class Int(int):
            pass

        class Str(str):
            pass

        g = Ground(kind, size)
        p = FiniteIdealPresentation("a", g, (), GeneratorUnionSurrogate())
        # One member, and the same member spelled as a bool, a float and a subclass instance.
        one, as_bool, as_float, as_subclass = {
            "interval": (1, True, 1.0, Int(1)),
            "grid": ((1, 0), (True, 0), (1.0, 0), (Int(1), 0)),
            "nodes": ("1", True, 1.0, Str("1")),
        }[kind]
        outside = {"interval": size, "grid": (size, 0), "nodes": "0" * size}[kind]
        identity = {y: y for y in g.members()}

        def rekeyed(key):
            return {(key if y == one else y): x for y, x in identity.items()}

        cases = {
            "identity": identity,
            "bool key": rekeyed(as_bool),
            "bool value": {**identity, one: as_bool},
            "float key": rekeyed(as_float),
            "missing key": {y: x for y, x in identity.items() if y != one},
            "extra key": {**identity, outside: one},
            "value outside": {**identity, one: outside},
            "subclass key": rekeyed(as_subclass),
        }

        for name, table in cases.items():
            if name in ("identity", "subclass key"):
                assert check_morphism(table, p, p).passed
            else:
                with pytest.raises(MorphismDomainError):
                    check_morphism(table, p, p)

    def test_surrogate_required(self):
        src = FiniteIdealPresentation("a", Ground("interval", 3), (), None)
        with pytest.raises(ValueError):
            check_morphism(formula_table("identity", src.ground, src.ground), src, src)


class TestBuiltins:
    def test_all_pass(self):
        for name in builtin_names():
            w = builtin_witness(name)
            assert w.name == name
            report = check_morphism(w.morphism, w.source, w.target)
            assert report.passed, name

    def test_unknown_builtin(self):
        with pytest.raises(NotFoundError):
            builtin_witness("astral")
        with pytest.raises(NotFoundError):
            counterexample_witness("astral")

    def test_counterexample_fails_on_named_generator(self):
        assert counterexample_names() == ("fin_to_z_one_point",)
        w = counterexample_witness()
        report = check_morphism(w.morphism, w.source, w.target)
        assert not report.passed
        assert [v.generator for v in report.violations] == ["{64}"]

    def test_report_json_shape(self):
        w = builtin_witness("fin_to_z_identity")
        blob = report_to_json(check_morphism(w.morphism, w.source, w.target))
        assert set(blob) == {
            "pass",
            "source",
            "target",
            "surrogate",
            "parameters",
            "checked",
            "checks",
            "violations",
            "scope",
        }
        assert blob["scope"] == SCOPE_SENTENCE
        assert blob["checked"] == 120


class TestTextFormats:
    def test_ideal_round_trip(self):
        w = builtin_witness("summable_to_z_identity")
        for p in (w.source, w.target):
            back = parse_ideal_text(ideal_to_text(p))
            assert back.name == p.name
            assert back.ground == p.ground
            assert back.generators == p.generators
            assert (back.surrogate is None) == (p.surrogate is None)

    def test_header_and_directive_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ideal_text("ideals v1 ground=interval params=4\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_ideal_text("ideal v1 ground=interval params=4\nflavour sweet\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_ideal_text("ideal v1 ground=interval params=4\ngenerator a 1\ngenerator a 2\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_ideal_text("ideal v1 ground=interval params=4\ngenerator a 9\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ideal v1 ground=interval params=8\nname a\nsurrogate\n", "line 3: surrogate line needs a name"),
            ("ideal v1 ground=interval params=8\nsurrogate dyadic-density eps\n",
             "line 2: bad surrogate parameter 'eps'"),
            ("ideal v1 ground=interval params=8\n\nsurrogate dyadic-density =1/4\n",
             "line 3: bad surrogate parameter '=1/4'"),
            ("ideal v1 ground=tree params=8\n",
             "line 1: ground kind must be one of ('interval', 'grid', 'nodes'), got 'tree'"),
            ("ideal v1 ground=nodes params=17\n", "line 1: nodes ground depth 17 exceeds cap 16"),
        ],
    )
    def test_refusals_name_their_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_ideal_text(text)
        assert str(err.value) == message

    def test_surrogate_parsing(self):
        text = "ideal v1 ground=interval params=8\nsurrogate dyadic-density eps=1/4 floor=1\n"
        p = parse_ideal_text(text)
        assert p.surrogate.parameters() == {"eps": "1/4", "floor": "1"}
        with pytest.raises(ParseError, match="unknown surrogate 'x'"):
            parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate x\n")
        with pytest.raises(ParseError, match="unknown surrogate parameter"):
            parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate dyadic-density evil=1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate dyadic-density eps=zebra\n")

    @pytest.mark.parametrize(
        "cls, field, value, line",
        [
            (DensityWindowSurrogate, "eps", Fraction(-1, 8), "dyadic-density eps=-1/8"),
            (DensityWindowSurrogate, "floor", -3, "dyadic-density floor=-3"),
            (ColumnBoundSurrogate, "per_column", -1, "column-bound per_column=-1"),
            (ColumnBoundSurrogate, "exceptional", -2, "column-bound exceptional=-2"),
            (GeneratorUnionSurrogate, "max", -1, "generator-union max=-1"),
            (SummableBoundSurrogate, "weight", Fraction(-1, 2), "summable-bound weight=-1/2"),
        ],
    )
    def test_negative_parameters_refused(self, cls, field, value, line):
        key = line.split()[1].partition("=")[0]
        message = f"{cls.name} {key} {value} must be >= 0"
        with pytest.raises(RangeError, match=re.escape(message)):
            cls(**{field: value})
        with pytest.raises(ParseError, match=re.escape(f"line 3: {message}")):
            parse_ideal_text(f"ideal v1 ground=interval params=8\n# comment\nsurrogate {line}\n")
        assert cls(**{field: 0 * value}).parameters()[key] == "0"

    @pytest.mark.parametrize(
        "line, default",
        [
            ("dyadic-density", DensityWindowSurrogate()),
            ("column-bound", ColumnBoundSurrogate()),
            ("generator-union", GeneratorUnionSurrogate()),
            ("summable-bound", SummableBoundSurrogate()),
        ],
    )
    def test_omitted_parameters_take_the_class_defaults(self, line, default):
        p = parse_ideal_text(f"ideal v1 ground=interval params=8\nsurrogate {line}\n")
        assert p.surrogate == default
        assert p.surrogate.stamp() == default.stamp()

    def test_given_parameters_override_defaults(self):
        p = parse_ideal_text("ideal v1 ground=grid params=8\nsurrogate column-bound exceptional=3\n")
        assert p.surrogate == ColumnBoundSurrogate(per_column=1, exceptional=3)
        p = parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate summable-bound weight=3/2\n")
        assert p.surrogate == SummableBoundSurrogate(weight=Fraction(3, 2))
        assert p.surrogate.stamp() == "summable-bound weight=3/2"
        p = parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate generator-union max=4\n")
        assert p.surrogate.parameters() == {"max": "4"}

    def test_parameters_past_the_str_digit_limit(self):
        # str() refuses ints of more than 4300 digits; a stamp writes them all.
        p = parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate summable-bound weight=1e5000\n")
        assert p.surrogate.stamp() == "summable-bound weight=1" + "0" * 5000
        eps = DensityWindowSurrogate(eps=Fraction(1, 10**5000)).parameters()["eps"]
        assert eps == "1/1" + "0" * 5000

    def test_first_bad_parameter_is_reported(self):
        with pytest.raises(ParseError, match=r"line 2: .*'x'"):
            parse_ideal_text("ideal v1 ground=grid params=8\nsurrogate column-bound per_column=x exceptional=y\n")
        with pytest.raises(ParseError, match=r"bad fraction 'zebra'"):
            parse_ideal_text("ideal v1 ground=interval params=8\nsurrogate summable-bound weight=zebra\n")

    def test_morphism_round_trips(self):
        domain = codomain = Ground("interval", 4)
        table = {0: 1, 1: 0, 2: 2, 3: 3}
        text = morphism_to_text(table, domain, codomain)
        assert parse_morphism_text(text, domain, codomain) == table
        # A formula reads as its table, and writes back as that table.
        identity = parse_morphism_text("morphism v1\nformula=identity\n", domain, codomain)
        text = morphism_to_text(identity, domain, codomain)
        assert text == "morphism v1\n0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n"
        assert parse_morphism_text(text, domain, codomain) == identity

    def test_nodes_are_listed_in_length_lex_order(self):
        g = Ground("nodes", 3)
        p = FiniteIdealPresentation("p", g, (Generator("a", frozenset({"1", "00", ""})),), None)
        assert ideal_to_text(p).splitlines()[-1] == "generator a - 1 00"
        f = {"1": "", "00": "0", "": "1"}
        assert morphism_to_text(f, g, g).splitlines() == ["morphism v1", "- -> 1", "1 -> -", "00 -> 0"]

    def test_morphism_errors(self):
        g = Ground("interval", 4)
        with pytest.raises(ParseError, match="line 1"):
            parse_morphism_text("morphing v1\n", g, g)
        with pytest.raises(ParseError, match="unknown formula"):
            parse_morphism_text("morphism v1\nformula=halve\n", g, g)
        with pytest.raises(ParseError, match="line 3"):
            parse_morphism_text("morphism v1\nformula=identity\n1 -> 2\n", g, g)
        with pytest.raises(ParseError, match="line 3"):
            parse_morphism_text("morphism v1\n1 -> 2\n1 -> 3\n", g, g)
        with pytest.raises(ParseError, match="expected"):
            parse_morphism_text("morphism v1\n1 = 2\n", g, g)
        with pytest.raises(ParseError, match="neither"):
            parse_morphism_text("morphism v1\n", g, g)
