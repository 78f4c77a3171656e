"""Monochromatic-subtree search: certificates, exhaustive oracle, level-mask solver.

The search space for (depth D, height h) is the set of level-respecting
embeddings of the full height-h binary tree whose leaf images all sit on
level D-1.  An embedding is identified with its image set: the split nodes
are forced as meets of the leaf images, so enumeration walks canonical
split/arm choices in length-lex order and never produces duplicates.

Two scoring modes follow the two notions being searched for: "uniform"
counts the largest level family monochromatic in one shared color, and
"by_levels" counts every level whose slice is constant on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, tee
from typing import Callable, Iterator, Mapping

from .colorings import Coloring, ZDensityInstance, band_range
from .errors import BudgetError, ParseError, RangeError, ShapeError, shown
from .treecore import (
    BUDGET_CAP,
    DEFAULT_BUDGET,
    D_MAX,
    extensions,
    format_node,
    lenlex_key,
    level_nodes,
    node_rank,
    parse_node,
    rank_node,
    rank_span,
    validate_embedding,
)

MODES = ("uniform", "by_levels")


def _check_fits(depth: int, height: int) -> None:
    if height > depth - 1:
        raise RangeError(f"height {shown(height)} does not fit below depth {shown(depth)}")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class SearchBudget:
    height: int
    node_budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.height < 0:
            raise RangeError(f"height {shown(self.height)} negative")
        if self.node_budget < 1:
            raise RangeError(f"node_budget {shown(self.node_budget)} must be >= 1")
        if self.node_budget > BUDGET_CAP:
            raise RangeError(f"node_budget {shown(self.node_budget)} above the cap {BUDGET_CAP}")
        if self.workers < 1:
            raise RangeError(f"workers {shown(self.workers)} must be >= 1")


@dataclass(frozen=True)
class HLCertificate:
    mode: str
    images: tuple[str, ...]  # in argument order, as validate_embedding takes them
    levels: tuple[int, ...]  # ascending; a by_levels witness pairs with it by position
    color_witness: int | tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    best_levels: int
    certificate: HLCertificate
    explored: int
    complete: bool


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _region_embeddings(region: str, height: int, depth: int) -> Iterator:
    # Canonical embeddings whose image set lies above `region`, as nested
    # (split, left, right) nodes with a leaf image at height 0; each split
    # is the meet of the leaf images below it.  A split's right halves are
    # listed once, in a plain list, and replayed for every left half.
    if height == 0:
        yield from extensions(region, depth - 1)
        return
    for extra in range(depth - height - len(region)):
        for suffix in level_nodes(extra):
            w = region + suffix
            rights = list(_region_embeddings(w + "1", height - 1, depth))
            for left in _region_embeddings(w + "0", height - 1, depth):
                for right in rights:
                    yield w, left, right


def enumerate_embeddings(depth: int, height: int) -> Iterator[tuple[str, ...]]:
    """All height-h embeddings with tops on level depth-1, in canonical order, as image tuples."""
    _check_fits(depth, height)
    for node in _region_embeddings("", height, depth):
        yield _bfs(node, height)


def enumeration_bound(depth: int, height: int) -> int:
    """Exact number of embeddings enumerate_embeddings(depth, height) yields."""
    _check_fits(depth, height)

    def count(region_len: int, h: int) -> int:
        if h == 0:
            return 1 << (depth - 1 - region_len)
        return sum((1 << (k - region_len)) * count(k + 1, h - 1) ** 2 for k in range(region_len, depth - h))

    return count(0, height)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _score(at: Callable[[int], int], tops: list[int], depth: int, mode: str):
    """(m, levels, witness) for the maximal admissible level set of one embedding, its tops given by rank.

    The prefix on level n of the top of rank t has rank t >> (depth - 1 - n).
    A prefix equal to the previous top's is the same node, so its color is
    not read again; in argument order equal prefixes are adjacent, so each
    distinct prefix is read once.  The result is the same for any order.
    """
    levels: list[int] = []  # the levels on which every top's prefix has one color
    bits: list[int] = []  # that color, per level
    first, rest = tops[0], tops[1:]
    for n in range(depth):
        shift = depth - 1 - n
        prev = first >> shift
        col = at(prev)
        for t in rest:
            p = t >> shift
            if p != prev:
                if at(p) != col:
                    break
                prev = p
        else:
            levels.append(n)
            bits.append(col)
    if mode == "by_levels":
        return len(levels), tuple(levels), tuple(bits)
    # Equal counts prefer color 0.
    col = 0 if 2 * bits.count(0) >= len(bits) else 1
    mono = tuple(compress(levels, map(col.__eq__, bits)))
    return len(mono), mono, col


def _value_lookup(c: Coloring) -> Callable[[int], int]:
    # Enumeration only ever fits small depths; a flat table by rank keeps the
    # hot scoring loops away from backend dispatch.  It is filled through the
    # scalar `at`, never the bulk `colors` the solver's masks come from, so
    # the oracle checks the bulk read too.
    if c.depth > 12:
        return c.at
    return [0, *map(c.at, range(1, 1 << c.depth))].__getitem__  # index 0 unused


def _tie_key(images: tuple[str, ...]) -> tuple:
    """The tie order of embeddings of one height, given their images in argument order.

    The smaller key wins: the split nodes compare first, then the leaves,
    each image by lenlex_key.
    """
    return tuple(map(lenlex_key, images))


def _certificate(at, ranks: tuple[int, ...], depth: int, mode: str) -> tuple[int, HLCertificate]:
    """(m, certificate) of the embedding whose images have `ranks` in argument order, levels and witness by _score."""
    m, levels, witness = _score(at, ranks[len(ranks) >> 1 :], depth, mode)
    return m, HLCertificate(mode, tuple(map(rank_node, ranks)), levels, witness)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _check_levels(levels) -> None:
    """Refuse certificate levels that are not plain ints, or that repeat."""
    if any(type(n) is not int for n in levels) or len(set(levels)) != len(levels):
        raise ValueError("certificate levels must be plain ints, each listed once")


def _check_witness(mode: str, witness, count: int) -> None:
    """Refuse a witness other than one plain-int 0/1 bit (uniform) or a tuple of `count` such bits (by_levels)."""
    bits = (witness,) if mode == "uniform" else witness
    if mode == "by_levels" and (type(witness) is not tuple or len(witness) != count):
        raise ValueError("by_levels witness must be a tuple of bits aligned with the levels")
    if not all(type(b) is int and b in (0, 1) for b in bits):
        raise ValueError(f"{mode} witness bits must be plain ints 0 or 1, got {shown(witness)!r}")


def verify_certificate(c: Coloring, cert: HLCertificate) -> bool:
    """Re-check a certificate against the coloring from scratch.

    Structural defects raise (invalid embedding, wrong top level, levels
    that are not distinct plain ints or lie off the tree, ill-typed
    witness); an intact certificate whose color claims fail returns False.
    The closure of the tops holds on level n exactly their length-n
    prefixes, so those are the nodes read on each certified level, by rank
    through the scalar `c.at`.  A valid embedding's tops are in
    lexicographic order, so equal prefixes are adjacent: each level's ranks
    are walked in that order and each distinct prefix is read once.
    """
    _check_mode(cert.mode)
    tops = validate_embedding(cert.images)[len(cert.images) >> 1 :]
    if len(tops[0]) != c.depth - 1:
        raise ShapeError(f"embedding tops sit at level {len(tops[0])}, tree wants {c.depth - 1}")
    _check_levels(cert.levels)
    for n in cert.levels:
        if not 0 <= n < c.depth:
            raise RangeError(f"certificate level {shown(n)} outside [0, {c.depth})")
    _check_witness(cert.mode, cert.color_witness, len(cert.levels))
    want = (cert.color_witness,) * len(cert.levels) if cert.mode == "uniform" else cert.color_witness
    ranks, at = list(map(node_rank, tops)), c.at
    for n, expected in zip(cert.levels, want):
        shift, prev = c.depth - 1 - n, 0  # no node has rank 0
        for t in ranks:
            r = t >> shift
            if r != prev:
                if at(r) != expected:
                    return False
                prev = r
    return True


# ---------------------------------------------------------------------------
# exhaustive oracle and pruned solver
# ---------------------------------------------------------------------------


def check_enumerable(depth: int, budget: SearchBudget) -> None:
    """Raise BudgetError when brute_force_max at this depth would pass node_budget.

    The bound is closed-form in (depth, height), so a caller can refuse the
    oracle before any other work.
    """
    bound = enumeration_bound(depth, budget.height)
    if bound > budget.node_budget:
        raise BudgetError(f"enumeration bound {bound} exceeds node budget {budget.node_budget}")


def brute_force_max(c: Coloring, budget: SearchBudget, mode: str) -> SearchResult:
    """Exhaustive maximum over every admissible embedding.

    Refuses to start when check_enumerable does; this is the reproducible
    guardrail, there is no timeout.  Ties are broken by the length-lex
    split-node list, then the leaf list.
    """
    _check_mode(mode)
    depth, height = c.depth, budget.height
    check_enumerable(depth, budget)
    at = _value_lookup(c)
    rank_of = {s: r for r, s in enumerate(level_nodes(depth - 1), 1 << (depth - 1))}.__getitem__  # a top's rank
    first_leaf = (1 << height) - 1
    best = None  # (m, tie key, images in argument order)
    explored = 0
    for listed in enumerate_embeddings(depth, height):
        explored += 1
        m = _score(at, list(map(rank_of, listed[first_leaf:])), depth, mode)[0]
        if best is None or m > best[0]:
            best = (m, _tie_key(listed), listed)
        elif m == best[0] and (key := _tie_key(listed)) < best[1]:
            best = (m, key, listed)
    assert best is not None
    m, cert = _certificate(at, tuple(map(node_rank, best[2])), depth, mode)
    return SearchResult(m, cert, explored, True)


# A level mask is one int: bit n is set when every leaf's length-n prefix is
# 0-colored, bit depth + n when every one is 1-colored.  A top's mask has
# exactly one of the two bits for each level.  Joining two halves ANDs their
# masks, so a level bichromatic on a half stays bichromatic in every
# embedding built from it and no join raises a score.  A sub-embedding is a
# pair (mask, node): `node` is a leaf image or a nested (split, left, right).
#
# The solver names each node by its length-lex rank (treecore.node_rank), so
# rank order is the tie order's node order, and it reads colors by rank.


class _OutOfBudget(Exception):
    """The next unit of work would pass the allowance."""


def _mask_lookup(read: Callable[[int], int], depth: int) -> Callable[[int], int]:
    # A node's prefix mask holds the bits of the levels up to its own: its
    # parent's plus one color read, computed on first use and cached for one
    # search, so the work tracks the tops reached and each color is read once.
    @cache
    def prefix_mask(r: int) -> int:
        n = r.bit_length() - 1
        bit = 1 << (depth + n if read(r) else n)
        return bit | prefix_mask(r >> 1) if r > 1 else bit

    return prefix_mask


def _mask_table(colors: Callable[[int, int], bytes], depth: int) -> list[int]:
    # Every node's prefix mask, indexed by rank (index 0 unused) and filled level
    # by level from one bulk read of the 2^depth - 1 colors: the color reads of
    # _mask_lookup once every top has been reached.
    read = b"\x00" + colors(1, 1 << depth)  # by rank
    table = [0, 1 << depth if read[1] else 1]
    for n in range(1, depth):
        zero, one = 1 << n, 1 << (depth + n)
        table += [table[r >> 1] | (one if read[r] else zero) for r in range(1 << n, 2 << n)]
    return table


def _scorer(depth: int, by_levels: bool) -> Callable[[int], int]:
    """The score of a level mask: the levels an embedding with that mask counts."""
    if by_levels:
        # The 0-colored and 1-colored halves of a mask never share a level.
        return int.bit_count
    full = (1 << depth) - 1

    def uniform(mask: int) -> int:
        zeros, ones = (mask & full).bit_count(), (mask >> depth).bit_count()
        return zeros if zeros > ones else ones

    return uniform


def _dp_max(masks, depth: int, height: int, score, allowance: int):
    """The maximum score m over height >= 1 embeddings, by dynamic programming.

    A(r, k) holds the maximal masks of the height-k sub-embeddings above
    region r, on level n: those of A(2r, k) and A(2r+1, k) and, when a
    split at r fits (n <= depth-k-1), every a & b with a in A(2r, k-1)
    and b in A(2r+1, k-1); A(top, 0) is the top's mask.  A region forms
    its height-k set only for k >= height - its level: a parent merges its
    children's sets of its own heights and pairs those one lower, so no
    ancestor reads the others, and their slots stay empty.  AND is monotone,
    so a mask contained in another adds nothing; distinct top masks never
    contain one another.  A mask scoring below the best full-height product
    so far is dropped, since no embedding built from it reaches that score;
    masks at the best are kept, so the products at split w reach m exactly
    when the partition of w holds an m-embedding.  Each kept mask carries
    the node of one sub-embedding that has it.

    Returns ((m, node), units spent, finished), the node being an
    m-embedding in the rank-first partition that holds one.  A unit
    is a mask formed or re-scored, or one containment test.  The DP gives up
    rather than pass `allowance` units; it then returns its best full-height
    product so far (or None) with finished False.
    """
    best = None
    spent = 0
    # For each region r done whose parent is not: (the floor its sets were cut
    # at, [A(r, k) as {mask: node} for k in 0 .. min(height - 1, depth - 1 - n)]),
    # n being r's level, the sets for k < height - n empty.  The regions on
    # levels 0 .. depth - 2 come in post-order, children before parents and
    # left before right: from a left child to the deepest leftmost region
    # below its sibling, from a right child to its parent, so a region's
    # children are the last two entries.
    stack: list[tuple[int, list[dict]]] = []
    # The heights k of the sets a region on level n forms.
    ranges = [range(max(0, height - n), min(height, depth - 1 - n) + 1) for n in range(depth - 1)]
    r = 1 << (depth - 2)
    try:
        while True:
            n = r.bit_length() - 1
            if n == depth - 2:
                # The children are tops: A(top, 0) is the top's own mask.
                if spent + 2 > allowance:
                    raise _OutOfBudget
                spent += 2
                cut, lo, hi = -1, [{masks(2 * r): 2 * r}], [{masks(2 * r + 1): 2 * r + 1}]
            else:
                hi = stack.pop()[1]
                cut, lo = stack.pop()
            floor = -1 if best is None else best[0]
            ks = ranges[n]
            sets = [{}] * ks.start  # the empty slots below height - n
            for k in ks:
                cand = {**lo[k], **hi[k]} if k < len(lo) else {}
                if floor > cut and cand:
                    # The floor rose since the sets below were cut.
                    if spent + len(cand) > allowance:
                        raise _OutOfBudget
                    spent += len(cand)
                    cand = {mask: node for mask, node in cand.items() if score(mask) >= floor}
                if k:
                    a, b = lo[k - 1], hi[k - 1]
                    if spent + len(a) * len(b) > allowance:
                        raise _OutOfBudget
                    spent += len(a) * len(b)
                    if k == height:
                        scores = [score(x & y) for x in a for y in b]
                        top = max(scores, default=-1)
                        if top > floor or (top == floor >= 0 and r < best[1][0]):
                            x, y = divmod(scores.index(top), len(b))  # the first product at the top
                            best = (top, (r, [*a.values()][x], [*b.values()][y]))
                        break
                    cand.update({mask: (r, a[x], b[y]) for x in a for y in b if score(mask := x & y) >= floor})
                    if len(cand) > 1:
                        cand, spent = _maximal(cand, spent, allowance)
                sets.append(cand)
            stack.append((floor, sets))
            if r == 1:
                return best, spent, True
            r = r >> 1 if r & 1 else (r + 1) << (depth - 2 - n)
    except _OutOfBudget:
        return best, spent, False


def _maximal(cand: dict, spent: int, allowance: int) -> tuple[dict, int]:
    """(the inclusion-maximal masks of `cand` with their nodes, spent plus one unit per containment test)."""
    kept: dict = {}
    for mask in sorted(cand, key=int.bit_count, reverse=True):
        spent += len(kept)
        if spent > allowance:
            raise _OutOfBudget
        for other in kept:
            if mask & other == mask:
                break
        else:
            kept[mask] = cand[mask]
    return kept, spent


def _tie_order(masks, depth: int, height: int, score, start: int, allowance: int):
    """The embeddings of height `height` scoring at least a floor, lazily and in tie order.

    Returns (stream, raise_floor, units).  `stream` yields (mask, node) pairs,
    `node` nested as (split, left, right) over leaf ranks, in the order of
    _tie_key: partitions (the embeddings sharing a first split; height 0 is
    one partition of all tops) come in rank order of the split from `start`
    on, and within a partition the split nodes come level by level, the left
    and right halves' images on each level interleaved, then the leaves.
    raise_floor(f) sets the floor, -1 at first, for every embedding and half
    formed after it; a half scoring below the floor is dropped, since no
    embedding built from it reaches the floor.  units() is the work spent: a
    unit is a top looked at or a pair formed, of two halves' masks or of two
    groups of halves.  The stream raises _OutOfBudget rather than pass
    `allowance` units.

    A group is the halves above one region that share their images on the
    levels above some level, listed as the non-empty groups one level down,
    or as (mask, node) pairs on the leaves' level; a _Replay records it
    wherever it is listed more than once, as one itertools.tee buffer that
    every pass copies.  Pairing two groups lists the pairs of their
    children, left child first, so the two halves' levels interleave.
    """
    floor = -1
    spent = 0

    def raise_floor(f: int) -> None:
        nonlocal floor
        floor = f

    def tops(region: int) -> Iterator[tuple[int, int]]:
        nonlocal spent
        for top in rank_span(region, depth - region.bit_length()):
            if spent == allowance:
                raise _OutOfBudget
            spent += 1
            mask = masks(top)
            if score(mask) >= floor:
                yield mask, top

    def halves(region: int, k: int) -> Iterator:
        # The height-k halves above `region`: its tops, or its non-empty
        # groups by split in rank order.  A pairing draws its left halves
        # once, and replays its right halves for each left one.
        if k == 0:
            return tops(region)
        n = region.bit_length() - 1
        groups = (_Replay(pairs(w, halves(2 * w, k - 1), _Replay(halves(2 * w + 1, k - 1)), k, False))
                  for extra in range(depth - k - n) for w in rank_span(region, extra))
        return filter(None, groups)

    def pairs(w: int, lefts, rights, k: int, flat: bool) -> Iterator:
        # The height-k embeddings split at w, their halves from the groups
        # `lefts` and `rights`: as (mask, node) pairs when `flat` or k is 1,
        # else as the non-empty groups one level down.
        nonlocal spent
        if k == 1:
            for lmask, left in lefts:
                for rmask, right in rights:
                    if spent == allowance:
                        raise _OutOfBudget
                    spent += 1
                    mask = lmask & rmask
                    if score(mask) >= floor:
                        yield mask, (w, left, right)
            return
        # Left child first, then right: the two halves' levels interleave.
        for left, right in ((left, right) for left in lefts for right in rights):
            if spent == allowance:
                raise _OutOfBudget
            spent += 1
            if flat:
                yield from pairs(w, left, right, k - 1, True)
            elif group := _Replay(pairs(w, left, right, k - 1, False)):
                yield group

    if height == 0:
        stream = tops(1)
    else:
        splits = range(start, 1 << (depth - height))  # the ranks above level depth - height
        stream = chain.from_iterable(
            pairs(w, halves(2 * w, height - 1), _Replay(halves(2 * w + 1, height - 1)), height, True) for w in splits
        )
    return stream, raise_floor, lambda: spent


def _walk(masks, depth: int, height: int, score, known, exact: bool, allowance: int):
    """The tie-first best embedding, by a walk over _tie_order.

    When the DP's (m, node) is `known` and `exact`, the floor is m and the
    walk starts at that node's partition, the first that holds an
    m-embedding, and ends at its first embedding.  Otherwise the walk starts
    at the first partition with the score of `known` as its floor (-1 when
    the DP gave none), and raises the floor to best + 1 after each
    embedding it finds, so an embedding reaching the floor is the tie-first
    of its score.  The walk stops rather than pass `allowance` units.

    Returns (best, units spent, complete), best being (score, node) or None.
    """
    stream, raise_floor, units = _tie_order(masks, depth, height, score, known[1][0] if exact else 1, allowance)
    if known is not None:
        raise_floor(known[0])
    best = None
    try:
        for mask, node in stream:
            best = (score(mask), node)
            if exact:
                break
            raise_floor(best[0] + 1)
    except _OutOfBudget:
        return best, units(), False
    return best, units(), True


class _Replay:
    """A generator recorded on demand as one itertools.tee buffer; every pass copies it from the start.

    The solver's alone: the string oracle (_region_embeddings) replays its
    right halves from a plain list, so the two share no replay code.

    The buffer's head never advances, so a pass replays what earlier passes
    drew and draws the rest, each item from the source once.  Only the items
    drawn are held, so a budget that stops the source also bounds the memory.
    """

    __slots__ = ("_head",)

    def __init__(self, source: Iterator):
        (self._head,) = tee(source, 1)

    def __iter__(self) -> Iterator:
        return self._head.__copy__()

    def __bool__(self) -> bool:
        """True when the source yields an item, the first being drawn if need be; no item is None."""
        return next(self._head.__copy__(), None) is not None


def _bfs(node, height: int) -> tuple:
    """The images of a nested (split, left, right) node in argument order."""
    images: list = []
    level = [node]
    for _ in range(height):
        images += [split for split, _, _ in level]
        level = [half for _, left, right in level for half in (left, right)]
    return (*images, *level)


def search_best(c: Coloring, budget: SearchBudget, mode: str) -> SearchResult:
    """The certificate brute_force_max picks, found in two phases.

    For height >= 1, a dynamic program over level masks (_dp_max) first
    finds the maximum m and the first partition holding it; a walk from
    that partition (_walk) then takes the embeddings in tie order
    (_tie_order), scoring them by ANDing level masks and dropping halves
    below m, and its first m-embedding is the certificate.  If the walk
    finds none, or first one scoring other than m, it raises, which
    cross-checks the DP.  When the DP does not fit the budget, or at height
    0, the walk visits every partition in tie order, starting from the
    score of the best embedding the DP found before it gave up and raising
    its floor to best + 1 after each find.  Ties go by _tie_key, as in
    brute_force_max, and the certificate's levels and witness come from
    _score on its leaves; a score other than the mask score m raises, which
    cross-checks the level masks.

    node_budget bounds the whole search.  `explored` counts the units of
    work done: the DP's masks formed or re-scored and containment tests,
    then the walk's tops looked at and pairs formed.  The DP runs only
    when the 2^(depth-1) tops fit node_budget and gives up before its units
    would pass node_budget; the walk stops before `explored` would pass
    2 * node_budget, so explored <= 2 * node_budget always.  `complete` is
    True when the walk ran to its end, so that the certificate is the one
    brute_force_max picks; otherwise it is the best found so far, and m is
    still exact when the DP finished.  Raises BudgetError when the budget
    completes no embedding.  budget.workers is accepted but changes neither
    the result nor the speed.
    """
    _check_mode(mode)
    depth, height = c.depth, budget.height
    _check_fits(depth, height)
    score = _scorer(depth, mode == "by_levels")
    known, spent, exact = None, 0, False
    if height and 1 << (depth - 1) <= budget.node_budget:
        masks = _mask_table(c.colors, depth).__getitem__
        known, spent, exact = _dp_max(masks, depth, height, score, budget.node_budget)
    else:
        masks = _mask_lookup(c.at, depth)
    best, walked, complete = _walk(masks, depth, height, score, known, exact, 2 * budget.node_budget - spent)
    explored = spent + walked
    if exact and complete and (best is None or best[0] != known[0]):
        found = "no such embedding" if best is None else f"first an embedding scoring {best[0]}"
        raise RuntimeError(f"the level-mask DP gives m = {known[0]} but the walk finds {found}")
    if best is None:
        best = known
    if best is None:
        raise BudgetError(f"node budget {budget.node_budget} completes no embedding")
    m, node = best
    scored, cert = _certificate(c.at, _bfs(node, height), depth, mode)
    if scored != m:
        raise RuntimeError(f"the level-mask score {m} differs from the certificate's score {scored}")
    return SearchResult(m, cert, explored, complete)


# ---------------------------------------------------------------------------
# zdensity band counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandCheck:
    band: int
    selection: tuple[int, ...]
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


def zdensity_band_check(inst: ZDensityInstance, selection: Mapping[int, object]) -> tuple[BandCheck, ...]:
    """Count monochromatic band levels for selected branches; compare to 2^(n-k+1).

    For each band n in the selection, q is the closure inside the host of the
    chosen branches s_j^n; the check compares |h_set(c, q) ∩ B_n| with the
    counting identity's 2^(n-k+1) for k selected branches.
    """
    if not selection:
        raise ValueError("empty selection")
    checks: list[BandCheck] = []
    for n in sorted(selection):
        if not 1 <= n <= inst.n_max:
            raise RangeError(f"band {shown(n)} outside [1, {inst.n_max}]")
        chosen = tuple(sorted(set(selection[n])))
        if not chosen:
            raise ValueError(f"empty branch selection for band {n}")
        for j in chosen:
            if not 0 <= j < n:
                raise RangeError(f"branch index {shown(j)} outside [0, {n}) for band {n}")
        picked = [inst.band_branches[n][j] for j in chosen]
        # q holds the host nodes compatible with a picked branch.  The
        # branches of band n end on its top level and the host is
        # prefix-closed, so q's level l inside the band is the set of the
        # branches' length-l prefixes; only those levels enter the count.
        value = inst.coloring.value
        actual = sum(len({value(s[:lvl]) for s in picked}) == 1 for lvl in band_range(n))
        expected = 1 << (n - len(chosen) + 1)
        checks.append(BandCheck(n, chosen, expected, actual))
    return tuple(checks)


# ---------------------------------------------------------------------------
# certificate JSON
# ---------------------------------------------------------------------------


def certificate_to_json(cert: HLCertificate) -> dict:
    images = list(map(format_node, cert.images))
    first_leaf = len(images) >> 1
    witness = cert.color_witness if cert.mode == "uniform" else list(cert.color_witness)
    return {
        "mode": cert.mode,
        "height": len(images).bit_length() - 1,
        "split_nodes": images[:first_leaf],
        "leaf_images": images[first_leaf:],
        "levels": list(cert.levels),
        "color_witness": witness,
    }


def certificate_from_json(obj: dict) -> HLCertificate:
    try:
        mode = _check_mode(obj["mode"])
        height, levels, witness_raw = obj["height"], list(obj["levels"]), obj["color_witness"]
        split_nodes = [parse_node(s) for s in obj["split_nodes"]]
        leaf_images = [parse_node(s) for s in obj["leaf_images"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from None
    if type(height) is not int:
        raise ParseError("certificate height must be a plain int")
    try:
        _check_levels(levels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not 0 <= height < D_MAX:
        raise ParseError(f"certificate height {shown(height)} outside [0, {D_MAX})")
    if len(split_nodes) != (1 << height) - 1 or len(leaf_images) != (1 << height):
        raise ParseError("certificate image counts do not match the height")
    images = validate_embedding((*split_nodes, *leaf_images))
    witness = tuple(witness_raw) if isinstance(witness_raw, list) else witness_raw
    try:
        _check_witness(mode, witness, len(levels))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if mode == "by_levels":
        bit_at = dict(zip(levels, witness))
        witness = tuple(bit_at[n] for n in sorted(levels))
    return HLCertificate(mode, images, tuple(sorted(levels)), witness)
