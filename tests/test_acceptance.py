"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line.

The lines are collected in RESULTS and echoed by conftest's terminal summary
so they appear in the pytest output; criterion 10 (whole-suite wall time and
exact arithmetic) is split between the last test here and the session hook.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hlbench._rng import SplitMix64
from hlbench.colorings import (
    check_levels_bichromatic,
    check_pairing_disjointness,
    constant_coloring,
    i_set,
    last_bit_coloring,
    levels_coloring,
    pairing_coloring,
    random_coloring,
    residue_splitting,
    zdensity_coloring,
)
from hlbench.game import play, transcript_to_json, tree_builder_move
from hlbench.ideals import (
    NatSet,
    NodeSet,
    density_profile,
    max_antichain_weight,
    phi,
    phi_bar_profile,
    summable_weight,
)
from hlbench.katetov import (
    builtin_names,
    builtin_witness,
    check_morphism,
    counterexample_witness,
)
from hlbench.search import (
    SearchBudget,
    brute_force_max,
    certificate_to_json,
    search_best,
    verify_certificate,
    zdensity_band_check,
)
from hlbench.treecore import level_nodes

RESULTS: list[str] = []


def _record(num: int, name: str, ok: bool, detail: str) -> None:
    RESULTS.append(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_01_zdensity_identity():
    t0 = time.monotonic()
    inst = zdensity_coloring(4)
    bad: list[str] = []
    identity_checks = 0
    for n in range(1, 5):
        for k in range(1, n + 1):
            for subset in itertools.combinations(range(n), k):
                (check,) = zdensity_band_check(inst, {n: subset})
                identity_checks += 1
                if not (check.passed and check.expected == 1 << (n - k + 1)):
                    bad.append(f"band {n} subset {subset}: {check.actual} != {check.expected}")
    rejected = 0
    for n in range(1, 5):
        with pytest.raises(ValueError):
            zdensity_band_check(inst, {n: ()})
        rejected += 1
    elapsed = time.monotonic() - t0
    ok = not bad and identity_checks == 26 and rejected == 4 and elapsed < 1.0
    _record(
        1,
        "zdensity band identity",
        ok,
        f"{identity_checks} nonempty-subset checks + {rejected} empty-selection rejections "
        f"(30 pairs) in {elapsed:.2f}s (bound 1s)",
    )
    assert ok, bad


def test_criterion_02_band_bijections():
    t0 = time.monotonic()
    inst = zdensity_coloring(4)
    bad: list[str] = []
    for n in range(1, 5):
        table = inst.band_tables[n]
        want = sorted(tuple((m >> j) & 1 for j in range(n)) for m in range(1 << n))
        if len(table) != 1 << n or sorted(table.values()) != want:
            bad.append(f"band {n} table is not a bijection onto {{0,1}}^{n}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 1.0
    _record(2, "band-to-assignment bijections", ok, f"bands 1..4 in {elapsed:.2f}s (bound 1s)")
    assert ok, bad


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    bad: list[str] = []
    cases = [(1, 50), (2, 20)]
    checked = 0
    for height, n_seeds in cases:
        for seed in range(n_seeds):
            coloring = random_coloring(6, seed)
            for mode in ("uniform", "by_levels"):
                oracle = brute_force_max(coloring, SearchBudget(height=height), mode)
                one = search_best(coloring, SearchBudget(height=height, workers=1), mode)
                four = search_best(coloring, SearchBudget(height=height, workers=4), mode)
                checked += 1
                if not (oracle.best_levels == one.best_levels == four.best_levels):
                    bad.append(f"h={height} seed={seed} {mode}: m disagrees")
                    continue
                certs = [certificate_to_json(r.certificate) for r in (oracle, one, four)]
                if not (certs[0] == certs[1] == certs[2]):
                    bad.append(f"h={height} seed={seed} {mode}: certificates disagree")
                if one.explored != four.explored or not (one.complete and four.complete):
                    bad.append(f"h={height} seed={seed} {mode}: worker runs differ")
                if not all(verify_certificate(coloring, r.certificate) for r in (oracle, one, four)):
                    bad.append(f"h={height} seed={seed} {mode}: certificate fails verification")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    _record(
        3,
        "search equals exhaustive oracle",
        ok,
        f"50 seeds (h=1) + 20 seeds (h=2), both modes, workers 1 and 4, "
        f"{checked} comparisons in {elapsed:.1f}s (bound 30s)",
    )
    assert ok, bad[:5]


def test_criterion_04_pairing_disjointness():
    t0 = time.monotonic()
    coloring, system = pairing_coloring([1, 2], 3, 8)
    checks = check_pairing_disjointness(coloring, system)
    trees = sum(ch.trees_checked for ch in checks)
    bad = [f"matching {ch.index}: {ch.violations}" for ch in checks if not ch.passed]
    elapsed = time.monotonic() - t0
    ok = not bad and len(checks) == 4 and trees == 10240 and elapsed < 10.0
    _record(
        4,
        "pairing level sets avoid all monochromatic sets",
        ok,
        f"4 matchings, {trees} spanning subtrees of 2^<8 in {elapsed:.1f}s (bound 10s)",
    )
    assert ok, bad


def test_criterion_05_levels_bichromatic():
    t0 = time.monotonic()
    assignment = residue_splitting(4, 12)
    coloring = levels_coloring(assignment, 12)
    checks = check_levels_bichromatic(coloring, assignment)
    bad = [f"t={ch.node!r} n={ch.level}" for ch in checks if not ch.passed]
    covered = sorted(n for levels in assignment.sets for n in levels)
    elapsed = time.monotonic() - t0
    ok = (
        not bad
        and len(checks) == len(covered)
        and all(n < 12 for n in covered)
        and elapsed < 5.0
    )
    _record(
        5,
        "splitting-level slices are bichromatic",
        ok,
        f"all |t| <= 4, {len(checks)} assigned levels below D=12 in {elapsed:.1f}s (bound 5s)",
    )
    assert ok, bad


def _seeded_nodeset(seed: int, depth: int) -> NodeSet:
    rng = SplitMix64(seed)
    nodes = frozenset(
        s for n in range(depth) for s in level_nodes(n) if rng.below(8) == 0
    )
    return NodeSet(nodes, depth)


def test_criterion_06_phi_suite():
    t0 = time.monotonic()
    bad: list[str] = []
    for n in range(11):
        full = NodeSet(frozenset(level_nodes(n)), n + 1)
        if phi(full) != Fraction(1):
            bad.append(f"phi(full level {n}) != 1")

    nodes4 = [s for n in range(4) for s in level_nodes(n)]
    for mask in range(1 << len(nodes4)):
        a = NodeSet(frozenset(nodes4[i] for i in range(len(nodes4)) if mask >> i & 1), 4)
        if phi(a) != max_antichain_weight(a):
            bad.append(f"phi != antichain weight on mask {mask}")
            break

    for seed in range(500):
        a = _seeded_nodeset(seed, 10)
        p = phi(a)
        if not isinstance(p, Fraction) or p != max_antichain_weight(a):
            bad.append(f"seeded set {seed}: phi mismatch")
            break
        profile = phi_bar_profile(a, 10)
        if any(profile[i] < profile[i + 1] for i in range(len(profile) - 1)):
            bad.append(f"seeded set {seed}: phi_bar not non-increasing")
            break

    for seed in range(200):
        b = _seeded_nodeset(seed, 10)
        rng = SplitMix64(seed + 10_000)
        a = NodeSet(frozenset(s for s in b.nodes if rng.next_bit()), 10)
        if phi(a) > phi(b):
            bad.append(f"nested pair {seed}: phi not monotone under subset")
            break

    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 20.0
    _record(
        6,
        "phi suite",
        ok,
        f"11 full levels, 32768 exhaustive subsets of 2^<4, 500 seeded sets, "
        f"200 nested pairs in {elapsed:.1f}s (bound 20s)",
    )
    assert ok, bad


def test_criterion_07_i_set_laws():
    t0 = time.monotonic()
    depth = 10
    ones = constant_coloring(depth, 1)
    last = last_bit_coloring(depth)
    bad: list[str] = []
    nodes = [s for n in range(depth) for s in level_nodes(n)]
    for s in nodes:
        if i_set(ones, s) != tuple(range(len(s) + 2, depth)):
            bad.append(f"constant-1 I({s!r}) wrong")
        if len(s) <= depth - 3 and i_set(last, s) != ():
            bad.append(f"last-bit I({s!r}) not empty")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 5.0
    _record(
        7,
        "i_set laws",
        ok,
        f"constant-1 and last-bit over all {len(nodes)} nodes at D=10 "
        f"in {elapsed:.1f}s (bound 5s)",
    )
    assert ok, bad[:5]


def test_criterion_08_game_suite():
    t0 = time.monotonic()
    bad: list[str] = []
    horizon, window, depth = 6, 32, 8
    ones = ("empty", "initial-segment", "random-set:seed={s}", "tree-builder")
    twos = ("min-legal", "random-pick:seed={s}")
    games = 0
    for seed in range(100):
        p1 = ones[seed % 4].format(s=seed)
        p2 = twos[seed % 2].format(s=seed + 1)
        coloring = random_coloring(depth, seed) if p1 == "tree-builder" else None
        first = play(horizon, p1, p2, window, coloring=coloring, seed=seed)
        again = play(horizon, p1, p2, window, coloring=coloring, seed=seed)
        games += 1
        blob = json.dumps(transcript_to_json(first), sort_keys=True)
        if blob != json.dumps(transcript_to_json(again), sort_keys=True):
            bad.append(f"game {seed}: transcript not reproducible")
            continue
        for i, rnd in enumerate(first.rounds):
            if rnd.pick in rnd.forbidden:
                bad.append(f"game {seed} round {i}: pick inside the forbidden set")
        if p1 == "tree-builder":
            history: list[tuple[tuple[int, ...], int]] = []
            for rnd in first.rounds:
                move, _ = tree_builder_move(coloring, history, window)
                if tuple(sorted(move)) != rnd.forbidden:
                    bad.append(f"game {seed}: replay move disagrees")
                    break
                history.append((rnd.forbidden, rnd.pick))
            _, snap = tree_builder_move(coloring, history, window)
            if not snap["stuck"]:
                images = list(snap["assignments"].values())
                if len(set(images)) != len(images):
                    bad.append(f"game {seed}: assignment images collide")
                for arg, image in snap["assignments"].items():
                    if arg != "-":
                        node = "" if image == "-" else image
                        if coloring.value(node) != 0:
                            bad.append(f"game {seed}: image {image!r} not 0-colored")
    elapsed = time.monotonic() - t0
    ok = not bad and games == 100 and elapsed < 10.0
    _record(
        8,
        "game suite",
        ok,
        f"{games} seeded games: legality, reproducibility, builder invariants "
        f"in {elapsed:.1f}s (bound 10s)",
    )
    assert ok, bad[:5]


def test_criterion_09_katetov_suite():
    t0 = time.monotonic()
    bad: list[str] = []
    for name in builtin_names():
        w = builtin_witness(name)
        report = check_morphism(w.morphism, w.source, w.target)
        if not report.passed:
            bad.append(f"builtin {name} failed: {[v.generator for v in report.violations]}")
    mutant = counterexample_witness("fin_to_z_one_point")
    report = check_morphism(mutant.morphism, mutant.source, mutant.target)
    if report.passed:
        bad.append("one-point mutation was accepted")
    elif [v.generator for v in report.violations] != ["{64}"]:
        bad.append(f"mutation named {[v.generator for v in report.violations]}, wanted ['{{64}}']")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 2.0
    _record(
        9,
        "Katetov suite",
        ok,
        f"{len(builtin_names())} builtins pass, one-point mutation fails naming {{64}} "
        f"in {elapsed:.1f}s (bound 2s)",
    )
    assert ok, bad


def test_criterion_10_exact_arithmetic():
    # The wall-time half of criterion 10 lives in conftest (session hook);
    # this half pins exactness: rational outputs are Fractions and the
    # package sources never touch floating point.
    t0 = time.monotonic()
    bad: list[str] = []
    k = NatSet.of([1, 2, 4, 8, 16], 64)
    for value in (*density_profile(k, "dyadic"), *density_profile(k, "natural"), summable_weight(k)):
        if not isinstance(value, Fraction):
            bad.append(f"non-Fraction statistic {value!r}")
    a = _seeded_nodeset(1, 8)
    for value in (phi(a), max_antichain_weight(a), *phi_bar_profile(a, 8)):
        if not isinstance(value, Fraction):
            bad.append(f"non-Fraction tree statistic {value!r}")
    src = Path(__file__).resolve().parent.parent / "src" / "hlbench"
    for module in sorted(src.glob("*.py")):
        text = module.read_text()
        if "float(" in text or "import math" in text:
            bad.append(f"{module.name} uses floating point")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 5.0
    _record(
        10,
        "exact arithmetic",
        ok,
        f"Fraction-typed statistics, no float/math usage in sources ({elapsed:.1f}s); "
        "wall-time gate reported by the session summary",
    )
    assert ok, bad
