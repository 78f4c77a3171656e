"""Finite-horizon evasion game: player I plays finite sets, player II dodges.

A game runs `horizon` rounds over the window [0, N).  Player I announces a
finite set I_n inside the window; player II answers with some k_n not in
I_n.  Nothing is adjudicated at finite horizon: the transcript records the
rounds, the evasion set K, and status flags, and profiling K is left to the
ideals module.

Player I's tree-builder strategy grows a binary tree of 0-colored nodes:
its round-n move is the union of the level sets I(s(t)) over the current
generation's assignments, and each reply k extends every s(t) by the two
lex-least 0-colored extensions at level k.  When no such pair exists (or k
overflows the coloring's depth) the builder is stuck: it keeps its partial
tree and plays the empty set from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Iterable, Sequence

from ._rng import SplitMix64
from .colorings import Coloring, i_set
from .errors import GameProtocolError, NotFoundError, RangeError, shown
from .treecore import WORK_CAP, format_node, rank_node

WINDOW_MAX = 1 << 20

PLAYER_ONE_NAMES = ("empty", "initial-segment", "random-set", "tree-builder")
PLAYER_TWO_NAMES = ("min-legal", "min-legal-increasing", "random-pick")
_SEEDED = ("random-set", "random-pick")  # the only strategies that take a parameter: `seed`


@dataclass(frozen=True)
class StrategyId:
    name: str
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default


def parse_strategy_id(text: str) -> StrategyId:
    """Parse "name" or "name:key=val,key=val"."""
    name, sep, rest = text.partition(":")
    if not name:
        raise ValueError(f"strategy id needs a name, got {text!r}")
    params: list[tuple[str, str]] = []
    if sep:
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            if not eq or not key:
                raise ValueError(f"bad strategy parameter {piece!r} in {text!r}")
            params.append((key, val))
    return StrategyId(name, tuple(params))


@dataclass(frozen=True)
class GameRound:
    forbidden: tuple[int, ...]
    pick: int


@dataclass(frozen=True)
class GameFlags:
    completed: bool
    player_I_stuck: bool
    repeated_pick: bool


@dataclass(frozen=True)
class GameTranscript:
    horizon: int
    window: int
    rounds: tuple[GameRound, ...]
    flags: GameFlags

    @property
    def outcome(self) -> frozenset[int]:
        return frozenset(r.pick for r in self.rounds)


# ---------------------------------------------------------------------------
# player I strategies
# ---------------------------------------------------------------------------


class _Oblivious:
    """A player I strategy whose moves ignore player II's picks."""

    def __init__(self, name: str, move: Callable[[int], frozenset[int]]):
        self.name = name
        self.move = move

    def observe(self, pick: int) -> None:
        pass


class TreeBuilderStrategy:
    """Replayable state machine of the tree-builder strategy."""

    name = "tree-builder"

    def __init__(self, window: int | None, coloring: Coloring):
        self.coloring = coloring
        self.window = window
        self.assignments: dict[str, str] = {"": ""}
        self.generation = 0
        self.stuck = False

    def _generation_args(self) -> list[str]:
        return sorted(a for a in self.assignments if len(a) == self.generation)

    def move(self, round_index: int) -> frozenset[int]:
        if self.stuck:
            return frozenset()
        move: set[int] = set()
        for arg in self._generation_args():
            move.update(i_set(self.coloring, self.assignments[arg]))
        if self.window is not None:
            move = {k for k in move if k < self.window}
        return frozenset(move)

    def observe(self, pick: int) -> None:
        if self.stuck:
            return
        if pick >= self.coloring.depth:
            self.stuck = True
            return
        grown: dict[str, str] = {}
        for arg in self._generation_args():
            s = self.assignments[arg]
            zeros = self.coloring.zero_extensions(s, pick) if pick > len(s) else ()
            if len(zeros) < 2:
                self.stuck = True
                return
            grown[arg + "0"], grown[arg + "1"] = map(rank_node, zeros)
        self.assignments.update(grown)
        self.generation += 1

    def snapshot(self) -> dict:
        return {
            "generation": self.generation,
            "stuck": self.stuck,
            "assignments": {
                format_node(arg): format_node(node) for arg, node in sorted(self.assignments.items())
            },
        }


def tree_builder_move(
    c: Coloring, history: Sequence[tuple[Iterable[int], int]], window: int | None = None
) -> tuple[frozenset[int], dict]:
    """Pure replay of the tree-builder: next move plus the internal snapshot.

    `history` lists completed rounds as (move_I, pick) pairs.  Each recorded
    move_I must equal what the builder itself would have played; anything
    else is an inconsistent history.
    """
    builder = TreeBuilderStrategy(window, c)
    for index, (forbidden, pick) in enumerate(history):
        if frozenset(forbidden) != builder.move(index):
            raise GameProtocolError(
                f"history round {index}: recorded move does not match the builder's",
                strategy="tree-builder",
                round_index=index,
            )
        builder.observe(pick)
    return builder.move(len(history)), builder.snapshot()


# ---------------------------------------------------------------------------
# player II strategies
# ---------------------------------------------------------------------------


class MinLegalStrategy:
    """Least k above the previous pick with k not forbidden.

    Returns None once no such k exists; the engine ends the run there.  The
    increasing policy is the strategy's own, not a rule, so running out is
    an honest stop rather than a protocol violation.
    """

    name = "min-legal"

    def __init__(self, window: int):
        self.window = window
        self._prev = -1

    def move(self, round_index: int, forbidden: frozenset[int]) -> int | None:
        for k in range(self._prev + 1, self.window):
            if k not in forbidden:
                return k
        return None

    def observe(self, pick: int) -> None:
        self._prev = pick


class RandomPickStrategy(MinLegalStrategy):
    """Uniform choice among the legal picks above the previous one."""

    name = "random-pick"

    def __init__(self, window: int, seed: int):
        super().__init__(window)
        self._rng = SplitMix64(seed)

    def move(self, round_index: int, forbidden: frozenset[int]) -> int | None:
        pool = [k for k in range(self._prev + 1, self.window) if k not in forbidden]
        if not pool:
            return None
        return pool[self._rng.below(len(pool))]


# ---------------------------------------------------------------------------
# registry and engine
# ---------------------------------------------------------------------------


def _seed_of(sid: StrategyId, default_seed: int) -> int:
    raw = sid.param("seed")
    return default_seed if raw is None else int(raw)


def make_player_one(sid: StrategyId, window: int, coloring: Coloring | None = None, default_seed: int = 0):
    """Player I's strategy for an id that check_game accepts."""
    if sid.name == "empty":
        return _Oblivious(sid.name, lambda n: frozenset())
    if sid.name == "initial-segment":  # the doubling initial segment [0, 2^n), window-clipped
        return _Oblivious(sid.name, lambda n: frozenset(range(min(1 << n, window))))
    if sid.name == "random-set":  # each window element independently with probability 1/2
        rng = SplitMix64(_seed_of(sid, default_seed))
        return _Oblivious(sid.name, lambda n: frozenset(compress(range(window), rng.low_bits(window))))
    if coloring is None:  # tree-builder
        raise ValueError("tree-builder strategy needs a coloring")
    return TreeBuilderStrategy(window, coloring)


def make_player_two(sid: StrategyId, window: int, default_seed: int = 0):
    """Player II's strategy for an id that check_game accepts."""
    if sid.name == "random-pick":
        return RandomPickStrategy(window, _seed_of(sid, default_seed))
    return MinLegalStrategy(window)  # min-legal and its alias min-legal-increasing


def _resolve(strategy, maker):
    if isinstance(strategy, str):
        return maker(parse_strategy_id(strategy))
    if isinstance(strategy, StrategyId):
        return maker(strategy)
    return strategy


def check_game(horizon: int, s1, s2, window: int) -> None:
    """Refuse, before any strategy is built or coloring read, a bad horizon, window or strategy id.

    A move may fill the window, so horizon * window is held to treecore.WORK_CAP.
    A ready strategy instance is not checked.
    """
    if horizon < 1:
        raise RangeError(f"horizon {shown(horizon)} must be >= 1")
    if not 1 <= window <= WINDOW_MAX:
        raise RangeError(f"window {shown(window)} outside [1, {WINDOW_MAX}]")
    if horizon * window > WORK_CAP:
        work = f"{shown(horizon * window)} (horizon {shown(horizon)} times window {window})"
        raise RangeError(f"game work {work} above the cap {WORK_CAP}")
    for strategy, names, player in ((s1, PLAYER_ONE_NAMES, "player I"), (s2, PLAYER_TWO_NAMES, "player II")):
        sid = parse_strategy_id(strategy) if isinstance(strategy, str) else strategy
        if not isinstance(sid, StrategyId):
            continue  # a ready strategy instance
        if sid.name not in names:
            raise NotFoundError(f"unknown {player} strategy {sid.name!r} (have {names})")
        for key, _ in sid.params:
            if key != "seed" or sid.name not in _SEEDED:
                raise ValueError(f"strategy {sid.name!r} takes no parameter {key!r}")
        if len(sid.params) > 1:
            raise ValueError(f"strategy {sid.name!r} takes parameter 'seed' once")
        _seed_of(sid, 0)  # refuses a seed that is not an integer


def play(
    horizon: int,
    s1,
    s2,
    window: int,
    *,
    coloring: Coloring | None = None,
    seed: int = 0,
) -> GameTranscript:
    """Run the game; returns the transcript, never a winner.

    s1/s2 may be strategy ids ("random-set:seed=3"), StrategyId values, or
    ready strategy instances.  Illegal moves raise a protocol error naming
    the strategy and round.  The run stops early with completed=False when
    player I's set covers the whole window or player II declines to pick.
    What check_game refuses is refused before any strategy is built.
    """
    check_game(horizon, s1, s2, window)
    player_one = _resolve(s1, lambda sid: make_player_one(sid, window, coloring, seed))
    player_two = _resolve(s2, lambda sid: make_player_two(sid, window, seed))

    rounds: list[GameRound] = []
    completed = True
    for n in range(horizon):
        move = player_one.move(n)
        name_one = getattr(player_one, "name", type(player_one).__name__)
        # Types first, so that min and max compare ints only.
        in_window = all(map(isinstance, move, repeat(int))) and (not move or 0 <= min(move) and max(move) < window)
        if not in_window:
            raise GameProtocolError(
                f"player I move not inside [0, {window})", strategy=name_one, round_index=n
            )
        if len(move) >= window:
            completed = False
            break
        pick = player_two.move(n, frozenset(move))
        name_two = getattr(player_two, "name", type(player_two).__name__)
        if pick is None:
            completed = False
            break
        if not isinstance(pick, int) or not 0 <= pick < window:
            raise GameProtocolError(
                f"pick {pick!r} not inside [0, {window})", strategy=name_two, round_index=n
            )
        if pick in move:
            raise GameProtocolError(f"pick {pick} is forbidden", strategy=name_two, round_index=n)
        player_one.observe(pick)
        player_two.observe(pick)
        rounds.append(GameRound(tuple(sorted(move)), pick))

    picks = [r.pick for r in rounds]
    flags = GameFlags(
        completed=completed,
        player_I_stuck=bool(getattr(player_one, "stuck", False)),
        repeated_pick=len(set(picks)) < len(picks),
    )
    return GameTranscript(horizon, window, tuple(rounds), flags)


# ---------------------------------------------------------------------------
# transcript JSON
# ---------------------------------------------------------------------------


def transcript_to_json(t: GameTranscript) -> dict:
    return {
        "rounds": [{"I": list(r.forbidden), "k": r.pick} for r in t.rounds],
        "K": sorted(t.outcome),
        "flags": {
            "completed": t.flags.completed,
            "player_I_stuck": t.flags.player_I_stuck,
            "repeated_pick": t.flags.repeated_pick,
        },
        "horizon": t.horizon,
        "window": t.window,
    }
