import json
import math
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlbench import search
from hlbench._rng import splitmix64_output
from hlbench.colorings import (
    Coloring,
    band_range,
    constant_coloring,
    h_set,
    last_bit_coloring,
    random_coloring,
    zdensity_coloring,
)
from hlbench.errors import BudgetError, EmbeddingInvalidError, ParseError, RangeError, ShapeError
from hlbench.search import (
    BUDGET_CAP,
    HLCertificate,
    SearchBudget,
    brute_force_max,
    certificate_from_json,
    certificate_to_json,
    enumerate_embeddings,
    enumeration_bound,
    search_best,
    verify_certificate,
    zdensity_band_check,
)
from hlbench.treecore import (
    LevelTree,
    arguments,
    compatible,
    extensions,
    lenlex_key,
    level_nodes,
    node_rank,
    rank_node,
    rank_span,
    validate,
    validate_embedding,
)

# (m, explored, complete, certificate) of search_best on seeded colorings:
# depths 4-7, heights 0-3, both modes, node_budget 1_000_000, 37 and 500
# (depth 7 height 3 only truncated), plus one depth-13 run with a budget too
# small for the DP.  m and the certificate of every node_budget 1_000_000
# case come from the per-partition solver before the DP; `explored`, and
# every field of the budget 37, 500 and 2000 cases, from search_best with
# its one global budget, as it stood when the DP stopped forming the sets
# no ancestor reads.  The last four cases, in both modes, come from the
# string-keyed solver before it named nodes by rank: depth 40, height 2,
# budget 4096 (a walk only, over tops read on first use) and depth 12,
# height 2, budget 2048 (the tops exactly fill the budget, and the DP gives up).
LEVELS_MESSAGE = "certificate levels must be plain ints, each listed once"

GOLDEN = json.loads(Path(__file__).with_name("search_golden.json").read_text())

# Every shape of depth 3-6 whose oracle enumerates at most 20 000 embeddings
# (all but depth 6, height 3).
ORACLE_SHAPES = [
    (d, h) for d in range(3, 7) for h in range(min(3, d - 1) + 1) if enumeration_bound(d, h) <= 20_000
]


class TestEnumeration:
    def test_counts_match_bound(self):
        for depth, height in ((3, 1), (4, 1), (5, 1), (6, 1), (5, 2), (6, 2)):
            want = enumeration_bound(depth, height)
            got = sum(1 for _ in enumerate_embeddings(depth, height))
            assert got == want, (depth, height)

    def test_known_counts(self):
        assert enumeration_bound(6, 1) == math.comb(32, 2)
        assert enumeration_bound(6, 2) == 16120
        assert enumeration_bound(3, 1) == 6

    def test_no_duplicates(self):
        seen = set()
        for e in enumerate_embeddings(5, 2):
            assert e not in seen
            seen.add(e)

    def test_embeddings_are_valid(self):
        for e in enumerate_embeddings(4, 1):
            validate_embedding(e)
            assert validate(LevelTree.from_branch_set(4, e[len(e) >> 1 :])) == ()

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, min(2, d - 1)))))
    @settings(max_examples=30, deadline=None)
    def test_image_tuple_contract(self, shape):
        # Index i holds the image of the argument of length-lex rank i + 1; its
        # arms are at 2i + 1 and 2i + 2, and the last 2^h images are the tops.
        depth, height = shape
        size = (2 << height) - 1
        assert arguments(height) == [rank_node(r) for r in range(1, size + 1)]
        for e in enumerate_embeddings(depth, height):
            assert type(e) is tuple and len(e) == size
            for i in range(size >> 1):
                assert e[2 * i + 1].startswith(e[i] + "0") and e[2 * i + 2].startswith(e[i] + "1")
            assert {len(top) for top in e[size >> 1 :]} == {depth - 1}

    def test_leaf_mode(self):
        got = list(enumerate_embeddings(3, 0))
        assert got == [("00",), ("01",), ("10",), ("11",)]

    def test_height_one_order(self):
        got = list(enumerate_embeddings(3, 1))
        assert got == [("", "00", "10"), ("", "00", "11"), ("", "01", "10"), ("", "01", "11"),
                       ("0", "00", "01"), ("1", "10", "11")]

    @pytest.mark.parametrize("depth, height", [(d, h) for d in range(1, 7) for h in range(min(3, d - 1) + 1)
                                               if enumeration_bound(d, h) <= 20_000])
    def test_order_equals_the_restarting_enumeration(self, depth, height):
        def restarting(region, k):
            # Every right half enumerated again for each left half.
            if k == 0:
                yield from extensions(region, depth - 1)
                return
            for extra in range(depth - k - len(region)):
                for suffix in level_nodes(extra):
                    w = region + suffix
                    for left in restarting(w + "0", k - 1):
                        for right in restarting(w + "1", k - 1):
                            yield w, left, right

        assert list(search._region_embeddings("", height, depth)) == list(restarting("", height))


class TestBudget:
    def test_validation(self):
        with pytest.raises(RangeError):
            SearchBudget(height=-1)
        with pytest.raises(RangeError):
            SearchBudget(height=1, node_budget=0)
        with pytest.raises(RangeError):
            SearchBudget(height=1, workers=0)

    def test_budget_cap(self):
        assert SearchBudget(height=2).node_budget <= BUDGET_CAP
        assert SearchBudget(height=2, node_budget=BUDGET_CAP).node_budget == BUDGET_CAP
        with pytest.raises(RangeError, match=f"node_budget {BUDGET_CAP + 1} above the cap {BUDGET_CAP}"):
            SearchBudget(height=2, node_budget=BUDGET_CAP + 1)

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    def test_budget_too_small_for_any_embedding(self, mode):
        c = random_coloring(5, 1)
        with pytest.raises(BudgetError, match="node budget 1 completes no embedding"):
            search_best(c, SearchBudget(height=1, node_budget=1), mode)
        assert not search_best(c, SearchBudget(height=1, node_budget=2), mode).complete

    def test_brute_force_refuses_over_budget(self):
        c = random_coloring(6, 0)
        with pytest.raises(BudgetError):
            brute_force_max(c, SearchBudget(height=2, node_budget=100), "uniform")

    def test_search_best_incomplete_under_budget(self):
        c = random_coloring(6, 0)
        res = search_best(c, SearchBudget(height=2, node_budget=5), "uniform")
        assert not res.complete
        assert res.explored > 0
        assert verify_certificate(c, res.certificate)

    def test_height_too_large(self):
        with pytest.raises(RangeError):
            search_best(random_coloring(4, 0), SearchBudget(height=4), "uniform")

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    @pytest.mark.parametrize("node_budget", [1, 2, 5, 37, 500])
    def test_explored_bounded_by_twice_the_budget(self, node_budget, mode):
        for depth in range(4, 8):
            for height in range(min(3, depth - 1) + 1):
                c = random_coloring(depth, 10 * depth + height)
                try:
                    res = search_best(c, SearchBudget(height=height, node_budget=node_budget), mode)
                except BudgetError:
                    continue
                assert res.explored <= 2 * node_budget, (depth, height)
                assert verify_certificate(c, res.certificate)
                if res.complete:
                    full = search_best(c, SearchBudget(height=height), mode)
                    assert certificate_to_json(res.certificate) == certificate_to_json(full.certificate)

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_dp_finishes_on_exactly_its_units(self, height, mode):
        # The DP's last unit pays for the root's top products: an allowance of
        # exactly the units a finished DP spends finishes it, one less does not.
        for seed in range(4):
            masks, score, known, units = _walk_inputs(random_coloring(6, seed), height, mode)
            assert search._dp_max(masks, 6, height, score, units) == (known, units, True)
            _, spent, finished = search._dp_max(masks, 6, height, score, units - 1)
            assert not finished and spent <= units - 1

    def test_walk_cross_checks_the_dp(self, monkeypatch):
        dp_max = search._dp_max

        def overstated(*args):
            (m, node), spent, finished = dp_max(*args)
            return (m + 1, node), spent, finished

        monkeypatch.setattr(search, "_dp_max", overstated)
        with pytest.raises(RuntimeError, match="walk finds no such embedding"):
            search_best(random_coloring(5, 3), SearchBudget(height=2), "uniform")

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    @pytest.mark.parametrize("height", [0, 1, 2])
    def test_certificate_cross_checks_the_mask_score(self, monkeypatch, mode, height):
        scorer = search._scorer

        def overstated(*args):
            score = scorer(*args)
            return lambda mask: score(mask) + 1

        monkeypatch.setattr(search, "_scorer", overstated)
        with pytest.raises(RuntimeError, match="differs from the certificate's score"):
            search_best(random_coloring(5, 3), SearchBudget(height=height), mode)

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    def test_certificate_reads_apart_from_the_bulk_read(self, mode):
        # The masks come from the bulk read `colors`, the certificate's score from
        # the scalar `at`: a bulk read that disagrees with `at` is caught.
        base = random_coloring(5, 3)
        c = Coloring.computed(5, base.at, lambda lo, hi: bytes(hi - lo))
        with pytest.raises(RuntimeError, match="differs from the certificate's score"):
            search_best(c, SearchBudget(height=2), mode)


def _score_by_level_sets(at, tops, depth, mode):
    """`search._score` stated level by level: a level counts when its set of prefix colors has one member."""
    levels = [n for n in range(depth) if len({at(t >> (depth - 1 - n)) for t in tops}) == 1]
    bits = [at(tops[0] >> (depth - 1 - n)) for n in levels]
    if mode == "by_levels":
        return len(levels), tuple(levels), tuple(bits)
    col = 0 if 2 * bits.count(0) >= len(bits) else 1
    mono = tuple(n for n, b in zip(levels, bits) if b == col)
    return len(mono), mono, col


class TestScore:
    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    @pytest.mark.parametrize("height", [1, 2])
    def test_same_result_for_any_order_of_tops(self, mode, height):
        # `_score` skips a prefix equal to the previous top's; the result is the
        # level-set rule's in argument order, reversed and shuffled alike.
        c = random_coloring(5, height)
        rng = random.Random(height)
        for images in enumerate_embeddings(5, height):
            tops = list(map(node_rank, images[len(images) >> 1 :]))
            want = _score_by_level_sets(c.at, tops, 5, mode)
            shuffled = rng.sample(tops, len(tops))
            for order in (tops, tops[::-1], shuffled):
                assert search._score(c.at, order, 5, mode) == want

    def test_reads_each_distinct_prefix_once(self):
        # In argument order equal prefixes are adjacent, so a level whose tops
        # share one prefix reads it once.
        c = constant_coloring(5, 0)
        reads = []
        images = ("01", "0100", "0111")  # the tops share the prefixes on levels 0-2
        search._score(lambda r: reads.append(r) or c.at(r), list(map(node_rank, images[1:])), 5, "by_levels")
        assert reads == [1, 2, 5, node_rank("010"), node_rank("011"), node_rank("0100"), node_rank("0111")]


class TestSolver:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_h1(self, seed):
        c = random_coloring(5, seed)
        for mode in ("uniform", "by_levels"):
            bf = brute_force_max(c, SearchBudget(height=1), mode)
            sb = search_best(c, SearchBudget(height=1), mode)
            assert sb.complete
            assert (bf.best_levels, certificate_to_json(bf.certificate)) == (
                sb.best_levels,
                certificate_to_json(sb.certificate),
            )

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=8, deadline=None)
    def test_matches_oracle_h2(self, seed):
        c = random_coloring(5, seed)
        for mode in ("uniform", "by_levels"):
            bf = brute_force_max(c, SearchBudget(height=2), mode)
            sb = search_best(c, SearchBudget(height=2), mode)
            assert certificate_to_json(bf.certificate) == certificate_to_json(sb.certificate)

    @given(st.sampled_from(ORACLE_SHAPES), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    @example((13, 0), 0)  # above depth 12 the oracle reads colors from the coloring itself
    @example((13, 0), 1)
    def test_matches_oracle_all_shapes(self, shape, seed):
        depth, height = shape
        c = random_coloring(depth, seed)
        for mode in ("uniform", "by_levels"):
            bf = brute_force_max(c, SearchBudget(height=height), mode)
            sb = search_best(c, SearchBudget(height=height), mode)
            assert (bf.best_levels, certificate_to_json(bf.certificate)) == (
                sb.best_levels,
                certificate_to_json(sb.certificate),
            )

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=lambda r: f"d{r['depth']}-h{r['height']}-{r['mode']}-b{r['node_budget']}"
    )
    def test_matches_recorded(self, case):
        c = random_coloring(case["depth"], case["seed"])
        res = search_best(c, SearchBudget(height=case["height"], node_budget=case["node_budget"]), case["mode"])
        got = (res.best_levels, res.explored, res.complete, certificate_to_json(res.certificate))
        assert got == (case["m"], case["explored"], case["complete"], case["certificate"])

    def test_last_bit_frozen(self):
        lb = last_bit_coloring(5)
        res = brute_force_max(lb, SearchBudget(height=1), "by_levels")
        assert res.best_levels == 4
        assert res.certificate.levels == (0, 2, 3, 4)
        assert res.certificate.color_witness == (0, 0, 0, 0)
        assert res.certificate.images == ("", "0000", "1000")

    def test_constant_gets_everything(self):
        c = constant_coloring(5, 1)
        res = search_best(c, SearchBudget(height=1), "uniform")
        assert res.best_levels == 5
        assert res.certificate.color_witness == 1

    def test_height_zero_single_branch(self):
        c = constant_coloring(4, 0)
        res = search_best(c, SearchBudget(height=0), "by_levels")
        assert res.best_levels == 4
        assert res.certificate.images == ("000",)

    def test_uniform_tie_prefers_color_zero(self):
        lb = last_bit_coloring(5)
        res = brute_force_max(lb, SearchBudget(height=1), "uniform")
        assert res.certificate.color_witness == 0

    def test_worker_independence(self):
        c = random_coloring(6, 4)
        for mode in ("uniform", "by_levels"):
            one = search_best(c, SearchBudget(height=2, workers=1), mode)
            four = search_best(c, SearchBudget(height=2, workers=4), mode)
            assert one.explored == four.explored
            assert certificate_to_json(one.certificate) == certificate_to_json(four.certificate)


def _walk_inputs(c, height: int, mode: str):
    """(masks, score, DP result, DP units) of search_best's walk on coloring `c`."""
    score = search._scorer(c.depth, mode == "by_levels")
    masks = search._mask_table(c.colors, c.depth).__getitem__
    known, spent, exact = search._dp_max(masks, c.depth, height, score, BUDGET_CAP)
    assert exact
    return masks, score, known, spent


class TestTieOrder:
    """The walk takes each partition's embeddings in tie order, so its first at the floor is the certificate."""

    @pytest.mark.parametrize("depth, height", ORACLE_SHAPES)
    def test_stream_is_the_enumeration_in_tie_order(self, depth, height):
        c = random_coloring(depth, depth + height)
        score = search._scorer(depth, False)
        masks = search._mask_table(c.colors, depth).__getitem__
        stream, _, units = search._tie_order(masks, depth, height, score, 1, BUDGET_CAP)
        got = [tuple(map(rank_node, search._bfs(node, height))) for _, node in stream]
        assert got == sorted(enumerate_embeddings(depth, height), key=search._tie_key)
        assert units() <= BUDGET_CAP

    @pytest.mark.parametrize("mode", ["uniform", "by_levels"])
    @pytest.mark.parametrize("height", [2, 3])
    def test_exact_walk_ends_at_its_first_m_embedding(self, height, mode):
        # The exact walk's last unit is the product that forms its m-embedding:
        # one unit less, and it finds nothing.  On the first seed every smaller
        # allowance stops it too, whichever of _tie_order's budget checks the
        # allowance runs out at.
        for seed in range(12):
            c = random_coloring(5, seed)
            masks, score, known, _ = _walk_inputs(c, height, mode)
            best, spent, complete = search._walk(masks, 5, height, score, known, True, BUDGET_CAP)
            assert complete and best[0] == known[0]
            assert search._walk(masks, 5, height, score, known, True, spent) == (best, spent, True)
            for allowance in range(spent) if seed == 0 else [spent - 1]:
                got = search._walk(masks, 5, height, score, known, True, allowance)
                assert got == (None, allowance, False)
            images = tuple(map(rank_node, search._bfs(best[1], height)))
            assert images == brute_force_max(c, SearchBudget(height=height), mode).certificate.images

    @given(st.sampled_from(ORACLE_SHAPES), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_walk_without_the_dp_matches_the_oracle(self, shape, seed):
        # The floor rises to best + 1 after each find, so the walk keeps the
        # tie-first embedding of the best score.
        depth, height = shape
        c = random_coloring(depth, seed)
        for mode in ("uniform", "by_levels"):
            score = search._scorer(depth, mode == "by_levels")
            masks = search._mask_table(c.colors, depth).__getitem__
            best, _, complete = search._walk(masks, depth, height, score, None, False, BUDGET_CAP)
            oracle = brute_force_max(c, SearchBudget(height=height), mode)
            assert complete and best[0] == oracle.best_levels
            assert tuple(map(rank_node, search._bfs(best[1], height))) == oracle.certificate.images


class TestReplay:
    """A _Replay draws each item from its source once and gives every pass the whole source."""

    @staticmethod
    def counted(items, drawn: list):
        for item in items:
            drawn.append(item)
            yield item

    def test_interleaved_passes(self):
        drawn: list = []
        replay = search._Replay(self.counted(range(1, 6), drawn))
        first, second = iter(replay), iter(replay)
        got = [(a, next(second)) for a in first]
        assert got == [(i, i) for i in range(1, 6)]
        assert next(second, None) is None
        assert drawn == [1, 2, 3, 4, 5]

    def test_bool_draws_at_most_one_item(self):
        drawn: list = []
        replay = search._Replay(self.counted("ab", drawn))
        assert replay and replay
        assert drawn == ["a"]
        assert list(replay) == ["a", "b"] and drawn == ["a", "b"]
        assert not search._Replay(self.counted([], drawn))

    def test_pass_after_the_source_is_exhausted_replays_everything(self):
        drawn: list = []
        replay = search._Replay(self.counted(range(3), drawn))
        assert list(replay) == list(replay) == [0, 1, 2]
        assert list(replay) == [0, 1, 2] and bool(replay)
        assert drawn == [0, 1, 2]


class TestVerification:
    def make(self, seed=0):
        c = random_coloring(5, seed)
        res = brute_force_max(c, SearchBudget(height=1), "by_levels")
        return c, res.certificate

    def test_accepts_genuine(self):
        c, cert = self.make()
        assert verify_certificate(c, cert)

    def test_rejects_wrong_witness(self):
        c, cert = self.make()
        flipped = tuple(1 - b for b in cert.color_witness)
        if flipped != cert.color_witness:
            bad = HLCertificate(cert.mode, cert.images, cert.levels, flipped)
            assert not verify_certificate(c, bad)

    def test_rejects_wrong_levels(self):
        c, cert = self.make(3)
        missing = [n for n in range(5) if n not in set(cert.levels)]
        if missing:
            # claim an extra level with an arbitrary color bit
            levels = tuple(sorted(cert.levels + tuple(missing[:1])))
            bits = dict(zip(cert.levels, cert.color_witness))
            witness = tuple(bits.get(n, 0) for n in levels)
            bad = HLCertificate(cert.mode, cert.images, levels, witness)
            ok0 = verify_certificate(c, bad)
            witness1 = tuple(bits.get(n, 1) for n in levels)
            ok1 = verify_certificate(c, HLCertificate(cert.mode, cert.images, levels, witness1))
            assert not (ok0 and ok1)

    def test_level_out_of_range(self):
        c, cert = self.make()
        bad = HLCertificate(cert.mode, cert.images, (99,), (0,))
        with pytest.raises(RangeError):
            verify_certificate(c, bad)

    def test_witness_shape_errors(self):
        c, cert = self.make()
        with pytest.raises(ValueError):
            verify_certificate(c, HLCertificate("uniform", cert.images, cert.levels, 7))
        with pytest.raises(ValueError):
            verify_certificate(c, HLCertificate("by_levels", cert.images, cert.levels, (0,) * 99))

    def test_corrupt_embedding_raises(self):
        c, cert = self.make()
        split, left, right = cert.images
        bad = HLCertificate(cert.mode, (split, right, left), cert.levels, cert.color_witness)
        with pytest.raises(EmbeddingInvalidError):
            verify_certificate(c, bad)

    def test_bad_mode(self):
        c, cert = self.make()
        with pytest.raises(ValueError):
            verify_certificate(c, HLCertificate("chromatic", cert.images, cert.levels, 0))

    def test_tops_off_the_last_level(self):
        # A depth-4 certificate read against a depth-5 coloring: its tops sit one level short.
        cert = brute_force_max(random_coloring(4, 0), SearchBudget(height=1), "uniform").certificate
        with pytest.raises(ShapeError, match="^embedding tops sit at level 3, tree wants 4$"):
            verify_certificate(random_coloring(5, 0), cert)

    @pytest.mark.parametrize("mode, witness", [("uniform", True), ("uniform", 1.0), ("by_levels", "bits")])
    def test_witness_bits_are_plain_ints(self, mode, witness):
        # A True or 1.0 compares equal to the bit 1, and is still refused, as the JSON reader refuses it.
        c, cert = self.make()
        if mode == "by_levels":
            witness = tuple(map(bool, cert.color_witness))
        with pytest.raises(ValueError, match=f"^{mode} witness bits must be plain ints 0 or 1"):
            verify_certificate(c, HLCertificate(mode, cert.images, cert.levels, witness))
        plain = tuple(map(int, witness)) if mode == "by_levels" else int(witness)
        verify_certificate(c, HLCertificate(mode, cert.images, cert.levels, plain))

    @pytest.mark.parametrize("levels", [(0, 0), (True,), (1.0,)])
    def test_levels_are_distinct_plain_ints(self, levels):
        # A repeated level, a bool and a float are refused by the one level rule
        # the JSON reader also applies, before any level is read.
        c, cert = self.make()
        bad = HLCertificate("by_levels", cert.images, levels, (0,) * len(levels))
        with pytest.raises(ValueError, match=f"^{LEVELS_MESSAGE}$") as caught:
            verify_certificate(c, bad)
        assert type(caught.value) is ValueError

    def test_refuses_a_wrong_color_on_a_shared_prefix(self):
        # On levels 0-2 both tops have the one prefix, read once: the bit
        # opposite to its color is refused, its own color accepted.
        c = random_coloring(5, 0)
        images = ("01", "0100", "0111")
        for n in range(3):
            bit = c.value(images[0][:n])
            assert verify_certificate(c, HLCertificate("by_levels", images, (n,), (bit,)))
            assert not verify_certificate(c, HLCertificate("by_levels", images, (n,), (1 - bit,)))

    @pytest.mark.parametrize("height", [0, 1, 2])
    def test_reads_the_closure_levels(self, height):
        # One certified level at a time, each bit: the verdict is whether the
        # coloring is constant at that bit on the closure's level, the tree of
        # the tops' prefixes built in full.
        c = random_coloring(5, height)
        for images in enumerate_embeddings(5, height):
            closure = LevelTree.from_branch_set(5, images[len(images) >> 1 :])
            for n in range(5):
                for bit in (0, 1):
                    want = all(c.value(s) == bit for s in closure.levels[n])
                    assert verify_certificate(c, HLCertificate("by_levels", images, (n,), (bit,))) == want


class TestCertificateJson:
    def test_round_trip(self):
        c = random_coloring(6, 8)
        for mode in ("uniform", "by_levels"):
            cert = search_best(c, SearchBudget(height=2), mode).certificate
            blob = certificate_to_json(cert)
            back = certificate_from_json(blob)
            assert certificate_to_json(back) == blob
            assert verify_certificate(c, back)
            json.dumps(blob)  # JSON-serialisable as-is

    def test_reversed_levels_pair_with_their_bits(self):
        # A by_levels witness pairs with its levels by position, in whatever
        # order the JSON lists them; parsing sorts the pairs together.
        c = random_coloring(6, 3)
        cert = search_best(c, SearchBudget(height=1), "by_levels").certificate
        blob = certificate_to_json(cert)
        assert len(set(blob["color_witness"])) == 2  # reversing the witness alone would change it
        blob["levels"].reverse()
        blob["color_witness"].reverse()
        back = certificate_from_json(blob)
        assert back == cert
        assert verify_certificate(c, back)

    def test_schema_keys(self):
        c = random_coloring(5, 1)
        blob = certificate_to_json(search_best(c, SearchBudget(height=1), "uniform").certificate)
        assert set(blob) == {"mode", "height", "split_nodes", "leaf_images", "levels", "color_witness"}

    def test_malformed_rejected(self):
        c = random_coloring(5, 1)
        blob = certificate_to_json(search_best(c, SearchBudget(height=1), "uniform").certificate)
        for mutilate in (
            lambda d: d.pop("mode"),
            lambda d: d.update(height=2),
            # Too high for any leaf image, refused before 2^height is formed.
            lambda d: d.update(height=2**40),
            lambda d: d.update(height=10**9),
            lambda d: d.update(height=-1),
            lambda d: d.update(split_nodes=[]),
            lambda d: d.update(leaf_images=d["leaf_images"][:1]),
            lambda d: d.update(levels="nope"),
            # JSON values that int() or `in (0, 1)` would take: bools, floats, strings.
            lambda d: d.update(height=True),
            lambda d: d.update(height=1.7),
            lambda d: d.update(levels=[0.9]),
            lambda d: d.update(levels=["0"]),
            lambda d: d.update(levels=[True]),
            lambda d: d.update(color_witness=False),
            lambda d: d.update(color_witness=1.0),
            lambda d: d.update(mode="by_levels", levels=[0, 1], color_witness=[True, 0]),
            # A repeated level, also with a witness that gives it both colors.
            lambda d: d.update(levels=[0, 0]),
            lambda d: d.update(mode="by_levels", levels=[0, 0], color_witness=[0, 1]),
        ):
            bad = json.loads(json.dumps(blob))
            mutilate(bad)
            with pytest.raises(ParseError):
                certificate_from_json(bad)

    @pytest.mark.parametrize("levels", [[0, 0], [True], [1.0]])
    def test_levels_refused_with_the_verification_message(self, levels):
        c = random_coloring(5, 1)
        blob = certificate_to_json(search_best(c, SearchBudget(height=1), "by_levels").certificate)
        bad = {**blob, "levels": levels, "color_witness": [0] * len(levels)}
        with pytest.raises(ParseError, match=f"^{LEVELS_MESSAGE}$"):
            certificate_from_json(bad)

    def test_by_levels_witness_not_aligned_with_its_levels(self):
        c = random_coloring(5, 1)
        blob = certificate_to_json(search_best(c, SearchBudget(height=1), "by_levels").certificate)
        for witness in ([0], [0, 1, 1], 0):
            bad = {**blob, "levels": [0, 1], "color_witness": witness}
            with pytest.raises(ParseError, match="^by_levels witness must be a tuple of bits aligned with the levels$"):
                certificate_from_json(bad)

    def test_leaves_on_two_levels(self):
        # The embedding's own check refuses it, as it refuses every other structural defect.
        c = random_coloring(5, 1)
        blob = certificate_to_json(search_best(c, SearchBudget(height=1), "uniform").certificate)
        bad = {**blob, "leaf_images": [blob["leaf_images"][0], blob["leaf_images"][1][:-1]]}
        with pytest.raises(EmbeddingInvalidError, match="^invalid embedding: top argument '1' maps to level 3, not 4$"):
            certificate_from_json(bad)


class TestRanks:
    """The solver and the colorings name nodes by length-lex rank; these pin the treecore rank helpers."""

    NODES = [s for n in range(9) for s in level_nodes(n)]

    def test_rank_order_is_lenlex_order(self):
        assert [rank_node(r) for r in range(1, len(self.NODES) + 1)] == sorted(self.NODES, key=lenlex_key)
        assert sorted(self.NODES, key=node_rank) == sorted(self.NODES, key=lenlex_key)

    @given(st.text(alphabet="01", max_size=63))
    @example("0" * 63)
    @example("1" * 63)
    def test_node_and_rank_round_trip(self, s):
        r = node_rank(s)
        assert r == (1 << len(s)) + int(s or "0", 2)
        assert rank_node(r) == s
        assert r.bit_length() - 1 == len(s)
        assert rank_node(2 * r) == s + "0" and rank_node(2 * r + 1) == s + "1"
        if s:
            assert rank_node(r >> 1) == s[:-1]
        for n in range(len(s) + 1):
            assert rank_node(r >> (len(s) - n)) == s[:n]

    def test_span_is_extensions(self):
        for s in [s for s in self.NODES if len(s) <= 7]:
            for length in range(len(s), 8):
                got = [rank_node(r) for r in rank_span(node_rank(s), length - len(s))]
                assert got == list(extensions(s, length))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
    def test_random_coloring_colors_by_rank(self, seed):
        c = random_coloring(9, seed)
        for r in range(1, 1 << 9):
            assert c.value(rank_node(r)) == c.at(r) == splitmix64_output(seed, r) & 1


class TestZDensityChecks:
    def test_empty_selection_refused(self):
        with pytest.raises(ValueError, match="^empty selection$"):
            zdensity_band_check(zdensity_coloring(2), {})

    def test_identity_small(self):
        inst = zdensity_coloring(2)
        for selection, expected in (({1: (0,)}, 2), ({2: (0,)}, 4), ({2: (0, 1)}, 2)):
            (check,) = zdensity_band_check(inst, selection)
            assert check.passed and check.expected == expected

    def test_multi_band_selection(self):
        inst = zdensity_coloring(2)
        checks = zdensity_band_check(inst, {1: (0,), 2: (0, 1)})
        assert [ch.band for ch in checks] == [1, 2]
        assert all(ch.passed for ch in checks)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_band_trees_are_the_compatible_host_nodes(self, n_max):
        # Reference: q holds every host node compatible with a picked branch,
        # and the check counts the band levels of h_set(c, q).  A seeded
        # coloring of the same host tells apart counts that the counting
        # coloring makes equal, such as those of neighbouring levels.
        base = zdensity_coloring(n_max)
        for inst in (base, replace(base, coloring=random_coloring(base.depth, n_max))):
            for n in range(1, n_max + 1):
                for k in range(1, n + 1):
                    for chosen in combinations(range(n), k):
                        picked = [inst.band_branches[n][j] for j in chosen]
                        q = LevelTree(inst.depth, tuple(
                            frozenset(x for x in level if any(compatible(x, s) for s in picked))
                            for level in inst.host.levels
                        ))
                        (check,) = zdensity_band_check(inst, {n: chosen})
                        assert check.actual == sum(lvl in band_range(n) for lvl in h_set(inst.coloring, q))

    def test_bad_selection(self):
        inst = zdensity_coloring(2)
        with pytest.raises(ValueError):
            zdensity_band_check(inst, {2: ()})
        with pytest.raises(RangeError):
            zdensity_band_check(inst, {9: (0,)})
        with pytest.raises(RangeError):
            zdensity_band_check(inst, {2: (5,)})
