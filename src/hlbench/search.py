"""Monochromatic-subtree search: certificates, exhaustive oracle, pruned solver.

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
from typing import Callable, Iterator, Mapping

from .colorings import Coloring, ZDensityInstance, band_range, h_set
from .errors import BudgetError, ParseError, RangeError, ShapeError
from .treecore import (
    LevelSet,
    LevelTree,
    TreeEmbedding,
    compatible,
    embed_closure,
    extensions,
    format_node,
    lenlex_key,
    level_nodes,
    parse_node,
    validate_embedding,
)

MODES = ("uniform", "by_levels")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class SearchBudget:
    height: int
    node_budget: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        if self.height < 0:
            raise RangeError(f"height {self.height} negative")
        if self.node_budget < 1:
            raise RangeError(f"node_budget {self.node_budget} must be >= 1")
        if self.workers < 1:
            raise RangeError(f"workers {self.workers} must be >= 1")


@dataclass(frozen=True)
class HLCertificate:
    mode: str
    embedding: TreeEmbedding
    levels: LevelSet
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


def _region_embeddings(region: str, height: int, depth: int) -> Iterator[dict[str, str]]:
    # Canonical embeddings whose image set lies above `region`; the root
    # argument maps to the meet of the leaf images.
    if height == 0:
        for leaf in extensions(region, depth - 1):
            yield {"": leaf}
        return
    for extra in range(depth - height - len(region)):
        for suffix in level_nodes(extra):
            w = region + suffix
            for left in _region_embeddings(w + "0", height - 1, depth):
                for right in _region_embeddings(w + "1", height - 1, depth):
                    images = {"": w}
                    for a, img in left.items():
                        images["0" + a] = img
                    for a, img in right.items():
                        images["1" + a] = img
                    yield images


def enumerate_embeddings(depth: int, height: int) -> Iterator[TreeEmbedding]:
    """All height-h embeddings with tops on level depth-1, in canonical order."""
    if height > depth - 1:
        raise RangeError(f"height {height} does not fit below depth {depth}")
    for images in _region_embeddings("", height, depth):
        yield TreeEmbedding(height, images, depth - 1)


def enumeration_bound(depth: int, height: int) -> int:
    """Exact number of embeddings enumerate_embeddings(depth, height) yields."""
    if height > depth - 1:
        raise RangeError(f"height {height} does not fit below depth {depth}")

    def count(region_len: int, h: int) -> int:
        if h == 0:
            return 1 << (depth - 1 - region_len)
        total = 0
        for k in range(region_len, depth - h):
            total += (1 << (k - region_len)) * count(k + 1, h - 1) ** 2
        return total

    return count(0, height)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _ordered_tops(images: dict[str, str], height: int) -> tuple[str, ...]:
    return tuple(images[a] for a in sorted(images, key=lenlex_key) if len(a) == height)


def _score(value: Callable[[str], int], tops: tuple[str, ...], depth: int, mode: str):
    """(m, levels, witness) for the maximal admissible level set of one embedding."""
    if mode == "by_levels":
        levels: list[int] = []
        bits: list[int] = []
        for n in range(depth):
            col = value(tops[0][:n])
            for t in tops[1:]:
                if value(t[:n]) != col:
                    break
            else:
                levels.append(n)
                bits.append(col)
        return len(levels), tuple(levels), tuple(bits)
    mono = ([], [])
    for n in range(depth):
        col = value(tops[0][:n])
        for t in tops[1:]:
            if value(t[:n]) != col:
                break
        else:
            mono[col].append(n)
    # Equal counts prefer color 0.
    col = 0 if len(mono[0]) >= len(mono[1]) else 1
    return len(mono[col]), tuple(mono[col]), col


def _value_lookup(c: Coloring) -> Callable[[str], int]:
    # Enumeration only ever fits small depths; a flat table keeps the hot
    # scoring loops away from backend dispatch.
    if c.depth > 12:
        return c.value
    table = {s: c.value(s) for n in range(c.depth) for s in level_nodes(n)}
    return table.__getitem__


def _tie_key(images: dict[str, str], height: int) -> tuple:
    args = sorted(images, key=lenlex_key)
    splits = tuple(lenlex_key(images[a]) for a in args if len(a) < height)
    leaves = tuple(lenlex_key(images[a]) for a in args if len(a) == height)
    return (splits, leaves)


def _make_certificate(mode: str, images: dict[str, str], height: int, depth: int, levels, witness) -> HLCertificate:
    embedding = TreeEmbedding(height, dict(images), depth - 1)
    return HLCertificate(mode, embedding, LevelSet.of(levels), witness)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_certificate(c: Coloring, cert: HLCertificate) -> bool:
    """Re-check a certificate against the coloring from scratch.

    Structural defects raise (invalid embedding, wrong top level, ill-typed
    witness); an intact certificate whose color claims fail returns False.
    """
    _check_mode(cert.mode)
    closure = embed_closure(cert.embedding, c.depth)
    levels = cert.levels.as_tuple()
    for n in levels:
        if not 0 <= n < c.depth:
            raise RangeError(f"certificate level {n} outside [0, {c.depth})")
    if cert.mode == "uniform":
        if cert.color_witness not in (0, 1):
            raise ValueError(f"uniform witness must be a bit, got {cert.color_witness!r}")
        want = [cert.color_witness] * len(levels)
    else:
        witness = cert.color_witness
        if not isinstance(witness, tuple) or len(witness) != len(levels):
            raise ValueError("by_levels witness must align with the level set")
        want = list(witness)
    for n, expected in zip(levels, want):
        for s in closure.levels[n]:
            if c.value(s) != expected:
                return False
    return True


# ---------------------------------------------------------------------------
# exhaustive oracle and pruned solver
# ---------------------------------------------------------------------------


def brute_force_max(c: Coloring, budget: SearchBudget, mode: str) -> SearchResult:
    """Exhaustive maximum over every admissible embedding.

    Refuses to start when the enumeration bound exceeds node_budget; this is
    the reproducible guardrail, there is no timeout.  Ties are broken by the
    length-lex split-node list, then the leaf list.
    """
    _check_mode(mode)
    depth, height = c.depth, budget.height
    bound = enumeration_bound(depth, height)
    if bound > budget.node_budget:
        raise BudgetError(f"enumeration bound {bound} exceeds node budget {budget.node_budget}")
    value = _value_lookup(c)
    best = None  # (m, key, images, levels, witness)
    explored = 0
    for images in _region_embeddings("", height, depth):
        explored += 1
        tops = _ordered_tops(images, height)
        m, levels, witness = _score(value, tops, depth, mode)
        if best is None or m > best[0]:
            best = (m, _tie_key(images, height), images, levels, witness)
        elif m == best[0]:
            key = _tie_key(images, height)
            if key < best[1]:
                best = (m, key, images, levels, witness)
    assert best is not None
    cert = _make_certificate(mode, best[2], height, depth, best[3], best[4])
    return SearchResult(best[0], cert, explored, True)


# A sub-embedding is a tuple (and0, and1, node): `node` is a leaf image or a
# nested (split, left, right), and bit n of and0 (and1) is set when every
# leaf's length-n prefix is 0-colored (1-colored).  Joining two halves ANDs
# their masks, so levels bichromatic on a half stay bichromatic in every
# embedding built from it.


def _mask_lookup(value, depth: int) -> Callable[[str], tuple[int, int, str]]:
    # Masks are computed on first use and cached for one search, so the work
    # tracks the tops reached rather than all 2^(depth-1) of them.
    full = (1 << depth) - 1
    cache: dict[str, tuple[int, int, str]] = {}

    def masks(top: str) -> tuple[int, int, str]:
        got = cache.get(top)
        if got is None:
            zeros = 0
            for n in range(depth):
                if not value(top[:n]):
                    zeros |= 1 << n
            got = cache[top] = (zeros, full ^ zeros, top)
        return got

    return masks


class _Replay:
    """Iterate a generator once while recording it; later passes replay the record.

    Only the items a pass has consumed are held, so a budget that stops the
    first pass also bounds the memory.  Callers never start a pass before the
    previous one has run to the end.
    """

    __slots__ = ("_source", "_items")

    def __init__(self, source: Iterator):
        self._source = source
        self._items: list = []

    def __iter__(self) -> Iterator:
        if self._source is None:
            return iter(self._items)
        return self._record()

    def _record(self) -> Iterator:
        items = self._items
        for item in self._source:
            items.append(item)
            yield item
        self._source = None


def _halves(masks, region: str, height: int, depth: int) -> Iterator[tuple]:
    """Sub-embeddings above `region`, in the order of _region_embeddings."""
    if height == 0:
        for top in extensions(region, depth - 1):
            yield masks(top)
        return
    for extra in range(depth - height - len(region)):
        for suffix in level_nodes(extra):
            w = region + suffix
            rights = _Replay(_halves(masks, w + "1", height - 1, depth))
            for l0, l1, left in _halves(masks, w + "0", height - 1, depth):
                for r0, r1, right in rights:
                    yield l0 & r0, l1 & r1, (w, left, right)


def _images(node, height: int) -> dict[str, str]:
    # Pre-order, the insertion order _region_embeddings gives its dicts.
    images: dict[str, str] = {}
    stack = [("", node, height)]
    while stack:
        arg, node, h = stack.pop()
        if h == 0:
            images[arg] = node
            continue
        split, left, right = node
        images[arg] = split
        stack.append((arg + "1", right, h - 1))
        stack.append((arg + "0", left, h - 1))
    return images


def _tie_precedes(node, other, height: int) -> bool:
    """True when `node`'s _tie_key is smaller than `other`'s.

    Both keys list the images breadth-first in length-lex order, so the
    walk stops at the first image that differs.
    """
    level, other_level = [node], [other]
    for _ in range(height):
        below, other_below = [], []
        for (s, left, right), (t, other_left, other_right) in zip(level, other_level):
            if s != t:
                return lenlex_key(s) < lenlex_key(t)
            below += (left, right)
            other_below += (other_left, other_right)
        level, other_level = below, other_below
    for s, t in zip(level, other_level):
        if s != t:
            return lenlex_key(s) < lenlex_key(t)
    return False


def _mask_score(and0: int, and1: int, by_levels: bool) -> int:
    return (and0 | and1).bit_count() if by_levels else max(and0.bit_count(), and1.bit_count())


def _search_partition(masks, split: str | None, height: int, depth: int, node_budget: int, by_levels: bool):
    # Explore every embedding whose first split is `split` (every top, for
    # height 0), pruning left halves whose score is strictly below the
    # partition's best.
    if split is None:
        lefts, rights = _halves(masks, "", 0, depth), None
    else:
        lefts = _halves(masks, split + "0", height - 1, depth)
        rights = _Replay(_halves(masks, split + "1", height - 1, depth))
    best = None  # (m, and0, and1, node)
    best_m = -1
    explored = 0
    for l0, l1, left in lefts:
        if explored >= node_budget:
            return best, explored, False
        explored += 1
        m = _mask_score(l0, l1, by_levels)
        if rights is None:
            # Tops come in tie-key order, so the first of equal scores wins.
            if m > best_m:
                best, best_m = (m, l0, l1, left), m
            continue
        if m < best_m:
            continue
        for r0, r1, right in rights:
            if explored >= node_budget:
                return best, explored, False
            explored += 1
            a0 = l0 & r0
            a1 = l1 & r1
            m = _mask_score(a0, a1, by_levels)
            if m < best_m:
                continue
            node = (split, left, right)
            if m > best_m or _tie_precedes(node, best[3], height):
                best, best_m = (m, a0, a1, node), m
    return best, explored, True


def _mask_levels(mask: int, depth: int) -> tuple[int, ...]:
    return tuple(n for n in range(depth) if mask >> n & 1)


def search_best(c: Coloring, budget: SearchBudget, mode: str) -> SearchResult:
    """Pruned search for the same maximum as brute_force_max.

    The space is partitioned by the first split node (height 0 is a single
    partition of all tops).  Partitions are explored depth-first in
    length-lex order in one thread, scoring embeddings by ANDing level masks;
    budget.workers is accepted but changes neither the result nor the
    speed.  node_budget caps the states explored in each partition; if any
    partition stops early the result is flagged incomplete and carries the
    best certificate so far; BudgetError when no partition completed one.
    """
    _check_mode(mode)
    depth, height = c.depth, budget.height
    if height > depth - 1:
        raise RangeError(f"height {height} does not fit below depth {depth}")
    masks = _mask_lookup(_value_lookup(c), depth)
    by_levels = mode == "by_levels"
    splits = [None] if height == 0 else (w for extra in range(depth - height) for w in level_nodes(extra))
    best = None
    explored = 0
    complete = True
    for split in splits:
        part_best, part_explored, part_complete = _search_partition(
            masks, split, height, depth, budget.node_budget, by_levels
        )
        explored += part_explored
        complete = complete and part_complete
        # Partitions come in tie-key order (the split is the key's first
        # image), so an equal score never displaces an earlier partition's.
        if part_best is not None and (best is None or part_best[0] > best[0]):
            best = part_best
    if best is None:
        raise BudgetError(f"node budget {budget.node_budget} completes no embedding")
    m, and0, and1, node = best
    if by_levels:
        levels = _mask_levels(and0 | and1, depth)
        witness = tuple(and1 >> n & 1 for n in levels)
    else:
        # Equal counts prefer color 0.
        col = 0 if and0.bit_count() >= and1.bit_count() else 1
        levels = _mask_levels(and1 if col else and0, depth)
        witness = col
    cert = _make_certificate(mode, _images(node, height), height, depth, levels, witness)
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
            raise RangeError(f"band {n} outside [1, {inst.n_max}]")
        chosen = tuple(sorted(set(selection[n])))
        if not chosen:
            raise ValueError(f"empty branch selection for band {n}")
        for j in chosen:
            if not 0 <= j < n:
                raise RangeError(f"branch index {j} outside [0, {n}) for band {n}")
        picked = [inst.band_branches[n][j] for j in chosen]
        q = LevelTree(
            inst.depth,
            tuple(
                frozenset(x for x in level if any(compatible(x, s) for s in picked))
                for level in inst.host.levels
            ),
        )
        hs = h_set(inst.coloring, q)
        actual = sum(1 for lvl in band_range(n) if lvl in hs)
        expected = 1 << (n - len(chosen) + 1)
        checks.append(BandCheck(n, chosen, expected, actual))
    return tuple(checks)


# ---------------------------------------------------------------------------
# certificate JSON
# ---------------------------------------------------------------------------


def certificate_to_json(cert: HLCertificate) -> dict:
    args = sorted(cert.embedding.images, key=lenlex_key)
    h = cert.embedding.height
    witness = cert.color_witness if cert.mode == "uniform" else list(cert.color_witness)
    return {
        "mode": cert.mode,
        "height": h,
        "split_nodes": [format_node(cert.embedding.images[a]) for a in args if len(a) < h],
        "leaf_images": [format_node(cert.embedding.images[a]) for a in args if len(a) == h],
        "levels": list(cert.levels.as_tuple()),
        "color_witness": witness,
    }


def certificate_from_json(obj: dict) -> HLCertificate:
    try:
        mode = _check_mode(obj["mode"])
        height = int(obj["height"])
        split_nodes = [parse_node(s) for s in obj["split_nodes"]]
        leaf_images = [parse_node(s) for s in obj["leaf_images"]]
        levels = [int(n) for n in obj["levels"]]
        witness_raw = obj["color_witness"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from None
    if height < 0 or len(split_nodes) != (1 << height) - 1 or len(leaf_images) != (1 << height):
        raise ParseError("certificate image counts do not match the height")
    lengths = {len(s) for s in leaf_images}
    if len(lengths) != 1:
        raise ParseError("leaf images not level-uniform")
    args = sorted((a for n in range(height + 1) for a in level_nodes(n)), key=lenlex_key)
    images: dict[str, str] = {}
    split_iter = iter(split_nodes)
    leaf_iter = iter(leaf_images)
    for a in args:
        images[a] = next(leaf_iter) if len(a) == height else next(split_iter)
    embedding = TreeEmbedding(height, images, lengths.pop())
    validate_embedding(embedding)
    witness: int | tuple[int, ...]
    if mode == "uniform":
        if witness_raw not in (0, 1):
            raise ParseError("uniform witness must be 0 or 1")
        witness = witness_raw
    else:
        if not isinstance(witness_raw, list) or len(witness_raw) != len(levels):
            raise ParseError("by_levels witness must align with levels")
        for b in witness_raw:
            if b not in (0, 1):
                raise ParseError("witness entries must be bits")
        witness = tuple(witness_raw)
    return HLCertificate(mode, embedding, LevelSet.of(levels), witness)
