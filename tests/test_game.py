import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlbench.colorings import Coloring, constant_coloring, random_coloring
from hlbench.errors import GameProtocolError, NotFoundError, RangeError
from hlbench.game import (
    WINDOW_MAX,
    GameTranscript,
    StrategyId,
    TreeBuilderStrategy,
    check_game,
    parse_strategy_id,
    play,
    transcript_to_json,
    tree_builder_move,
)
from hlbench.treecore import WORK_CAP


class TestStrategyIds:
    def test_bare(self):
        sid = parse_strategy_id("min-legal")
        assert sid.name == "min-legal" and sid.params == ()

    def test_with_params(self):
        sid = parse_strategy_id("random-set:seed=3,level=2")
        assert sid.name == "random-set"
        assert sid.param("seed") == "3" and sid.param("level") == "2"
        assert sid.param("missing") is None

    def test_bad_forms(self):
        with pytest.raises(ValueError):
            parse_strategy_id("")
        with pytest.raises(ValueError):
            parse_strategy_id("name:seedless")

    def test_unknown_names(self):
        with pytest.raises(NotFoundError):
            play(2, "psychic", "min-legal", 8)
        with pytest.raises(NotFoundError):
            play(2, "empty", "psychic", 8)

    def test_unknown_names_list_the_known_ones(self):
        have_one = "('empty', 'initial-segment', 'random-set', 'tree-builder')"
        have_two = "('min-legal', 'min-legal-increasing', 'random-pick')"
        with pytest.raises(NotFoundError, match=re.escape(f"unknown player I strategy 'psychic' (have {have_one})")):
            play(2, "psychic", "min-legal", 8)
        with pytest.raises(NotFoundError, match=re.escape(f"unknown player II strategy 'psychic' (have {have_two})")):
            play(2, "empty", "psychic", 8)
        # Checked before any strategy is built, so before the builder asks for its coloring.
        with pytest.raises(NotFoundError, match="unknown player II strategy 'psychic'"):
            check_game(2, "tree-builder", "psychic", 8)
        with pytest.raises(NotFoundError, match="unknown player II strategy 'psychic'"):
            play(2, "tree-builder", "psychic", 8)
        with pytest.raises(ValueError, match="^invalid literal for int"):
            check_game(2, "tree-builder", "random-pick:seed=x", 8)


    @pytest.mark.parametrize(
        "p1, p2, named",
        [
            ("random-set:sede=3", "min-legal", "'random-set' takes no parameter 'sede'"),
            ("random-set:seed=3,level=2", "min-legal", "'random-set' takes no parameter 'level'"),
            ("empty:seed=3", "min-legal", "'empty' takes no parameter 'seed'"),
            ("initial-segment:seed=3", "min-legal", "'initial-segment' takes no parameter 'seed'"),
            ("tree-builder:seed=3", "min-legal", "'tree-builder' takes no parameter 'seed'"),
            ("empty", "min-legal:foo=1", "'min-legal' takes no parameter 'foo'"),
            ("empty", "min-legal-increasing:seed=1", "'min-legal-increasing' takes no parameter 'seed'"),
            ("empty", "random-pick:sede=1", "'random-pick' takes no parameter 'sede'"),
            ("random-set:seed=1,seed=2", "min-legal", "'random-set' takes parameter 'seed' once"),
            ("empty", "random-pick:seed=1,seed=1", "'random-pick' takes parameter 'seed' once"),
        ],
    )
    def test_unread_parameters_refused(self, p1, p2, named):
        with pytest.raises(ValueError, match=re.escape(f"strategy {named}")):
            play(2, p1, p2, 8, coloring=constant_coloring(4, 0))


class TestFrozenTraces:
    def test_initial_segment_doubles(self):
        t = play(5, "initial-segment", "min-legal", 64)
        assert [r.pick for r in t.rounds] == [1, 2, 4, 8, 16]
        assert sorted(t.outcome) == [1, 2, 4, 8, 16]
        assert t.flags.completed and not t.flags.repeated_pick

    def test_empty_gives_counting(self):
        t = play(5, "empty", "min-legal", 64)
        assert [r.pick for r in t.rounds] == [0, 1, 2, 3, 4]

    def test_min_legal_alias(self):
        a = play(5, "empty", "min-legal", 64)
        b = play(5, "empty", "min-legal-increasing", 64)
        assert transcript_to_json(a) == transcript_to_json(b)

    def test_window_saturation_stops(self):
        t = play(10, "initial-segment", "min-legal", 8)
        assert not t.flags.completed
        assert len(t.rounds) < 10

    def test_min_legal_stops_when_every_pick_above_the_last_is_forbidden(self):
        # Player I forbids everything above 0: min-legal picks 0, then finds no pick and declines.
        above = frozenset(range(1, 8))
        t = play(4, _FixedMoves(above, above, above, above), "min-legal", 8)
        assert not t.flags.completed
        assert [(r.forbidden, r.pick) for r in t.rounds] == [(tuple(range(1, 8)), 0)]

    def test_pick_exhaustion_stops(self):
        # min-legal climbs past the window edge; the run ends, no error
        t = play(6, "random-set:seed=3", "random-pick:seed=5", 8)
        assert isinstance(t, GameTranscript)
        if not t.flags.completed:
            assert len(t.rounds) < 6


class TestRandomStrategies:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, seed):
        a = play(5, f"random-set:seed={seed}", "min-legal", 64)
        b = play(5, f"random-set:seed={seed}", "min-legal", 64)
        assert transcript_to_json(a) == transcript_to_json(b)

    def test_seed_changes_runs(self):
        a = play(6, "random-set:seed=3", "min-legal", 64)
        b = play(6, "random-set:seed=4", "min-legal", 64)
        assert transcript_to_json(a) != transcript_to_json(b)

    def test_default_seed_comes_from_play(self):
        a = play(5, "random-set", "min-legal", 64, seed=12)
        b = play(5, "random-set:seed=12", "min-legal", 64)
        assert transcript_to_json(a) == transcript_to_json(b)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_legality(self, seed):
        t = play(6, f"random-set:seed={seed}", f"random-pick:seed={seed + 1}", 32)
        for r in t.rounds:
            assert r.pick not in r.forbidden
            assert 0 <= r.pick < 32


class TestTreeBuilder:
    def test_needs_coloring(self):
        with pytest.raises(ValueError):
            play(3, "tree-builder", "min-legal", 8)

    def test_constant_one_stuck_after_first_round(self):
        c = constant_coloring(8, 1)
        t = play(3, "tree-builder", "min-legal", 8, coloring=c)
        assert t.rounds[0].forbidden == tuple(range(2, 8))
        assert t.rounds[0].pick == 0
        assert t.flags.player_I_stuck
        assert all(r.forbidden == () for r in t.rounds[1:])

    def test_constant_zero_grows_with_good_picks(self):
        c = constant_coloring(8, 0)
        history = []
        for pick in (1, 2, 3):
            move, snap = tree_builder_move(c, history)
            assert move == frozenset()
            assert not snap["stuck"]
            history.append((tuple(sorted(move)), pick))
        _, snap = tree_builder_move(c, history)
        assert not snap["stuck"]
        assert snap["generation"] == 3
        images = list(snap["assignments"].values())
        assert len(set(images)) == len(images)
        args = [a for a in snap["assignments"] if a != "-"]
        assert len(args) == 2 + 4 + 8

    def test_low_pick_sticks_the_builder(self):
        c = constant_coloring(8, 0)
        _, snap = tree_builder_move(c, [((), 0)])
        assert snap["stuck"]

    def test_images_are_zero_colored(self):
        c = random_coloring(8, 21)
        t = play(5, "tree-builder", "min-legal", 8, coloring=c)
        history = [(r.forbidden, r.pick) for r in t.rounds]
        _, snap = tree_builder_move(c, history, 8)
        if not snap["stuck"]:
            for arg, image in snap["assignments"].items():
                if arg != "-":
                    assert c.value("" if image == "-" else image) == 0

    def test_replay_matches_live(self):
        c = random_coloring(8, 11)
        live = play(4, "tree-builder", "min-legal", 8, coloring=c)
        history = []
        for r in live.rounds:
            move, _ = tree_builder_move(c, history)
            assert tuple(sorted(move)) == r.forbidden
            history.append((r.forbidden, r.pick))

    def test_takes_the_last_two_nodes_of_a_wide_level_at_once(self):
        # Only the last two of the 2^30 nodes on level 30 are 0-colored; the
        # builder reads the coloring's two overrides, not the level.
        left, right = "1" * 29 + "0", "1" * 30
        builder = TreeBuilderStrategy(None, Coloring.sparse(31, {left: 0, right: 0}, default=1))
        builder.observe(30)
        assert builder.assignments == {"": "", "0": left, "1": right}
        assert not builder.stuck

    def test_inconsistent_history_rejected(self):
        c = constant_coloring(8, 0)
        with pytest.raises(GameProtocolError):
            tree_builder_move(c, [((5,), 1)])


class TestEngine:
    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            play(0, "empty", "min-legal", 8)
        with pytest.raises(RangeError):
            play(1, "empty", "min-legal", 0)
        with pytest.raises(RangeError):
            play(1, "empty", "min-legal", WINDOW_MAX + 1)

    def test_work_cap(self):
        # horizon * window may equal WORK_CAP; one round more is refused before
        # any strategy is built, so even an unknown strategy name is not looked up.
        assert len(play(WORK_CAP // 65536, "empty", "min-legal", 65536).rounds) == 16
        assert len(play(1, "empty", "min-legal", WINDOW_MAX).rounds) == 1
        message = "game work 1114112 (horizon 17 times window 65536) above the cap 1048576"
        for p1 in ("empty", "psychic"):
            with pytest.raises(RangeError, match=re.escape(message)):
                play(17, p1, "min-legal", 65536)

    def test_cheating_picker_caught(self):
        class Cheat:
            name = "cheat"

            def move(self, n, forbidden):
                return min(forbidden) if forbidden else 0

            def observe(self, pick):
                pass

        with pytest.raises(GameProtocolError) as err:
            play(3, "initial-segment", Cheat(), 8)
        assert err.value.strategy == "cheat"

    @pytest.mark.parametrize("pick", [8, -1, 2.0])
    def test_pick_outside_the_window_caught(self, pick):
        class Stray:
            name = "stray"

            def move(self, n, forbidden):
                return pick if n == 1 else 0

            def observe(self, pick):
                pass

        with pytest.raises(GameProtocolError, match=re.escape(f"pick {pick!r} not inside [0, 8)")) as err:
            play(3, "empty", Stray(), 8)
        assert (err.value.strategy, err.value.round_index) == ("stray", 1)

    def test_oversized_move_caught(self):
        class Wild:
            name = "wild"

            def move(self, n):
                return frozenset({99})

            def observe(self, pick):
                pass

        with pytest.raises(GameProtocolError):
            play(2, Wild(), "min-legal", 8)

    def test_repeated_pick_flagged(self):
        class Stubborn:
            name = "stubborn"

            def move(self, n, forbidden):
                return 5

            def observe(self, pick):
                pass

        t = play(3, "empty", Stubborn(), 8)
        assert t.flags.repeated_pick
        assert sorted(t.outcome) == [5]

    def test_strategy_id_objects_accepted(self):
        sid = StrategyId("empty", ())
        t = play(2, sid, "min-legal", 8)
        assert len(t.rounds) == 2


class TestTranscriptJson:
    def test_shape(self):
        t = play(3, "initial-segment", "min-legal", 16)
        blob = transcript_to_json(t)
        assert set(blob) == {"rounds", "K", "flags", "horizon", "window"}
        assert blob["rounds"][0] == {"I": [0], "k": 1}
        assert set(blob["flags"]) == {"completed", "player_I_stuck", "repeated_pick"}
        json.dumps(blob)


class _FixedMoves:
    """Player I playing the given moves in turn."""

    name = "fixed"

    def __init__(self, *moves):
        self.moves = moves

    def move(self, n):
        return self.moves[n]

    def observe(self, pick):
        pass


class TestMoveCheck:
    """play's bulk move check takes exactly the moves the per-element test took."""

    @staticmethod
    def reference(move, window):
        return all(isinstance(k, int) and 0 <= k < window for k in move)

    @pytest.mark.parametrize(
        "move",
        [frozenset({-1}), frozenset({0, 8}), frozenset({99}), frozenset({"3"}), frozenset({1, "a"}),
         frozenset({2, 1.5}), ["7"]],
        ids=["negative", "window end", "out of window", "str", "int and str", "float", "str list"],
    )
    def test_refused_moves_name_strategy_and_round(self, move):
        assert not self.reference(move, 8)
        with pytest.raises(GameProtocolError) as err:
            play(3, _FixedMoves(frozenset({0}), move), "min-legal", 8)
        assert str(err.value) == "player I move not inside [0, 8)"
        assert (err.value.strategy, err.value.round_index) == ("fixed", 1)

    @pytest.mark.parametrize(
        "move, forbidden",
        [(frozenset({True}), (True,)), (frozenset({False, 3}), (False, 3)), (frozenset(), ()),
         (range(7), tuple(range(7))), ([0, 7], (0, 7))],
        ids=["bool", "bool and int", "empty", "range", "list"],
    )
    def test_accepted_moves(self, move, forbidden):
        # bool is an int subclass, so the per-element test took bool moves too.
        assert self.reference(move, 8)
        t = play(1, _FixedMoves(move), "min-legal", 8)
        assert t.rounds[0].forbidden == forbidden

    @given(st.sets(st.integers(-3, 10) | st.booleans() | st.text(max_size=1), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_element_check(self, move):
        try:
            play(1, _FixedMoves(frozenset(move)), "min-legal", 8)
            refused = False
        except GameProtocolError as err:
            refused = str(err) == "player I move not inside [0, 8)"
        assert refused == (not self.reference(move, 8))
