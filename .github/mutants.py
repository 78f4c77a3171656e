"""Mutation gate: every one-line mutant listed in MUTANTS must be killed by each of its named tests.

A mutant is one source line of `src/hlbench` replaced by another.  The gate
first runs the union of the named tests on an unmodified copy of `src/`,
which must pass.  Then, for each mutant, it copies `src/` and `tests/` to a
fresh directory, applies the one replacement and runs that mutant's tests
there with `pytest -q -rf`, loading the `hypothesis_noshrink` plugin
beside this script: a failing example is reported as found, without the
shrink phase, which the gate does not need.  A mutant is killed when pytest reports failed
tests (exit status 1) and each named test is among them, so a test that no
longer kills its mutant shows even when another named test still does.
The gate exits 1 when a line is not found exactly once, the unmodified run
fails, or a mutant is not killed: a named test passes, or pytest exits with
any other status (an unknown test id, a mutant that breaks collection).
Stdlib only; it is not a `test_*` file, so the tier-1 suite does not
collect it.  From the root of a checkout:

    python3 .github/mutants.py

prints one line per mutant with its wall time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/hlbench, exact source line without its indentation, replacement, test ids that must fail)
MUTANTS = [
    # Node numbering: length-lex ranks count from 1, the children of r are 2r and 2r + 1.
    ("search.py", "splits = range(start, 1 << (depth - height))  # the ranks above level depth - height",
     "splits = range(start, (1 << (depth - height)) - 1)  # the ranks above level depth - height",
     ["tests/test_search.py::TestSolver::test_matches_oracle_h2",
      "tests/test_search.py::TestSolver::test_matches_recorded[d4-h3-uniform-b1000000]"]),
    ("search.py", "return bit | prefix_mask(r >> 1) if r > 1 else bit",
     "return bit | prefix_mask(r >> 1) if r > 2 else bit",
     ["tests/test_search.py::TestBudget::test_budget_too_small_for_any_embedding[uniform]",
      "tests/test_search.py::TestBudget::test_search_best_incomplete_under_budget"]),
    ("search.py", "table += [table[r >> 1] | (one if read[r] else zero) for r in range(1 << n, 2 << n)]",
     "table += [table[(r - 1) >> 1] | (one if read[r] else zero) for r in range(1 << n, 2 << n)]",
     ["tests/test_search.py::TestSolver::test_matches_recorded[d4-h1-uniform-b1000000]",
      "tests/test_search.py::TestSolver::test_matches_oracle_h1"]),
    ("search.py",
     "groups = (_Replay(pairs(w, halves(2 * w, k - 1), _Replay(halves(2 * w + 1, k - 1)), k, False))",
     "groups = (_Replay(pairs(w, halves(2 * w, k - 1), _Replay(halves(2 * w + 2, k - 1)), k, False))",
     ["tests/test_search.py::TestBudget::test_search_best_incomplete_under_budget",
      "tests/test_search.py::TestSolver::test_matches_oracle_h2"]),
    ("search.py", "cut, lo, hi = -1, [{masks(2 * r): 2 * r}], [{masks(2 * r + 1): 2 * r + 1}]",
     "cut, lo, hi = -1, [{masks(2 * r + 1): 2 * r + 1}], [{masks(2 * r + 2): 2 * r + 2}]",
     ["tests/test_search.py::TestBudget::test_walk_cross_checks_the_dp",
      "tests/test_search.py::TestSolver::test_matches_oracle_h1"]),
    # The DP's budget: a product set is paid for before it is formed, and only past the allowance refused.
    ("search.py", "if spent + len(a) * len(b) > allowance:",
     "if spent + len(a) * len(b) >= allowance:",
     ["tests/test_search.py::TestBudget::test_dp_finishes_on_exactly_its_units[2-uniform]",
      "tests/test_search.py::TestBudget::test_dp_finishes_on_exactly_its_units[1-by_levels]"]),
    # Replays: every pass copies the tee buffer from its head, and an empty group is false.
    ("search.py", "return self._head.__copy__()",
     "return self._head",
     ["tests/test_search.py::TestReplay::test_interleaved_passes",
      "tests/test_search.py::TestSolver::test_matches_oracle_h2"]),
    ("search.py", "return next(self._head.__copy__(), None) is not None",
     "return True",
     ["tests/test_search.py::TestReplay::test_bool_draws_at_most_one_item",
      "tests/test_search.py::TestSolver::test_matches_recorded[d5-h2-uniform-b1000000]"]),
    # Tie order: the halves' levels interleave left first, and a find raises the floor past its score.
    ("search.py", "for left, right in ((left, right) for left in lefts for right in rights):",
     "for left, right in ((left, right) for right in rights for left in lefts):",
     ["tests/test_search.py::TestTieOrder::test_stream_is_the_enumeration_in_tie_order[5-2]",
      "tests/test_search.py::TestTieOrder::test_exact_walk_ends_at_its_first_m_embedding[2-uniform]"]),
    ("search.py", "raise_floor(best[0] + 1)",
     "raise_floor(best[0])",
     ["tests/test_search.py::TestTieOrder::test_walk_without_the_dp_matches_the_oracle",
      "tests/test_search.py::TestSolver::test_matches_recorded[d4-h0-uniform-b1000000]"]),
    ("treecore.py", "return range(r << e, (r + 1) << e)",
     "return range((r << e) - 1, ((r + 1) << e) - 1)",
     ["tests/test_search.py::TestRanks::test_span_is_extensions",
      "tests/test_search.py::TestSolver::test_matches_oracle_h1"]),
    ("colorings.py", "x_colors = [at(x >> s) for s in shifts]",
     "x_colors = [at((x >> s) - 1) for s in shifts]",
     ["tests/test_colorings.py::TestPairing::test_small_disjointness",
      "tests/test_colorings.py::TestPairing::test_check_matches_per_node_reads"]),
    ("colorings.py", "if slot is None or r >> slot[0] != slot[1]:",
     "if slot is None or (r + 1) >> slot[0] != slot[1]:",
     ["tests/test_colorings.py::TestRankReads::test_levels",
      "tests/test_colorings.py::TestLevelsColoring::test_bichromatic"]),
    ("colorings.py", "zeros = (1 << e) - sum(map(at, rank_span(2 * r + 1, e)))",
     "zeros = (1 << e) - sum(map(at, rank_span(2 * r + 2, e)))",
     ["tests/test_colorings.py::TestLevelsColoring::test_mutated_coloring_counts_bad_nodes",
      "tests/test_colorings.py::TestLevelsColoring::test_bichromatic_check_matches_per_node_counts"]),
    ("colorings.py", "parts[c.at(r >> (len(x) - n))].append(n)",
     "parts[c.at((r >> (len(x) - n)) - 1)].append(n)",
     ["tests/test_colorings.py::TestBackends::test_color_trace_matches_per_prefix_reads"]),
    # The lane kernel: lane i of a chunk holds output first + i in its low 64 bits.
    ("_rng.py", "keep = (1 << (lanes << 7)) - 1",
     "keep = (1 << (lanes << 6)) - 1",
     ["tests/test_colorings.py::TestSplitMix::test_low_bits_match_the_scalar_outputs[1-0]",
      "tests/test_search.py::TestSolver::test_matches_recorded[d4-h1-uniform-b1000000]"]),
    ("_rng.py", "z = (seed + k * _GAMMA) & _MASK",
     "z = (seed + (k + 1) * _GAMMA) & _MASK",
     ["tests/test_colorings.py::TestSplitMix::test_published_outputs",
      "tests/test_search.py::TestSolver::test_matches_recorded[d4-h0-uniform-b1000000]"]),
    ("colorings.py", "return Coloring.computed(depth, lambda r: r & 1 if r > 1 else 0)",
     "return Coloring.computed(depth, lambda r: r & 1 if r else 0)",
     ["tests/test_colorings.py::TestRankReads::test_last_bit",
      "tests/test_search.py::TestSolver::test_last_bit_frozen"]),
    # Readers: the body follows the header, drops '#' lines, and is numbered from line 2.
    ("treecore.py", "body = list(filter(None, map(str.strip, itertools.islice(lines, 1, None))))",
     "body = list(filter(None, map(str.strip, itertools.islice(lines, 0, None))))",
     ["tests/test_reader_equivalence.py::test_numbered_body_pairs_the_body_with_its_line_numbers",
      "tests/test_formats.py::test_long_body_reads_as_listed[nodeset]",
      "tests/test_formats.py::test_long_body_reads_as_listed[ideal]"]),
    ("treecore.py", 'body = [s for s in body if s[0] != "#"]',
     'body = [s for s in body if s != "#"]',
     ["tests/test_reader_equivalence.py::test_numbered_body_pairs_the_body_with_its_line_numbers",
      "tests/test_formats.py::test_comments_and_blank_lines_are_ignored[natset]",
      "tests/test_formats.py::test_rejection_message_and_line[natset-word-after noise]"]),
    ("treecore.py",
     "for i, s in enumerate(map(str.strip, itertools.islice(text.splitlines(), 1, None)), start=2):",
     "for i, s in enumerate(map(str.strip, itertools.islice(text.splitlines(), 1, None)), start=1):",
     ["tests/test_reader_equivalence.py::test_numbered_body_pairs_the_body_with_its_line_numbers",
      "tests/test_formats.py::test_body_errors_report_their_own_line[natset]"]),
    ("ideals.py", "return values if not values or (min(values) >= 0 and max(values) < bound) else None",
     "return values if not values or (min(values) >= 0 and max(values) <= bound) else None",
     ["tests/test_formats.py::test_rejection_message_and_line[natset-above-alone]",
      "tests/test_formats.py::test_rejection_message_and_line[gridset-column above-after a long body]"]),
    # Certificates: verification reads the tops' prefixes on each certified level,
    # wants the tops on the last level, and takes plain-int bits only.
    ("search.py", "for r in {t >> (c.depth - 1 - n) for t in ranks}:",
     "for r in {t >> (c.depth - 2 - n) for t in ranks}:",
     ["tests/test_search.py::TestVerification::test_reads_the_closure_levels[1]",
      "tests/test_search.py::TestVerification::test_reads_the_closure_levels[2]"]),
    ("search.py", "if len(tops[0]) != c.depth - 1:",
     "if len(tops[0]) > c.depth - 1:",
     ["tests/test_search.py::TestVerification::test_tops_off_the_last_level"]),
    ("search.py", "if not all(type(b) is int and b in (0, 1) for b in bits):",
     "if not all(b in (0, 1) for b in bits):",
     ["tests/test_search.py::TestVerification::test_witness_bits_are_plain_ints[uniform-True]",
      "tests/test_search.py::TestVerification::test_witness_bits_are_plain_ints[by_levels-bits]",
      "tests/test_search.py::TestCertificateJson::test_malformed_rejected"]),
]


def mutate(text: str, line: str, replacement: str) -> str:
    """`text` with its one line that reads `line`, indentation aside, replaced; ValueError unless exactly one."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, s in enumerate(lines) if s.strip() == line]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} lines read {line!r}, want exactly 1")
    (i,) = hits
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = f"{indent}{replacement}\n"
    return "".join(lines)


def run_tests(work: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """pytest -q -rf over `tests` in `work`, importing hlbench from work/src, hypothesis without shrinking."""
    path = os.pathsep.join([str(work / "src"), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    plugins = ["-p", "no:cacheprovider", "-p", "hypothesis_noshrink"]
    command = [sys.executable, "-m", "pytest", "-q", "-rf", *plugins, *tests]
    return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, check=False)


def failed_ids(stdout: str) -> set[str]:
    """The node ids on the `FAILED <id>[ - <message>]` lines of pytest's short summary."""
    return {line[len("FAILED "):].split(" - ")[0] for line in stdout.splitlines() if line.startswith("FAILED ")}


def copy_tree(work: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)


def main() -> int:
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_tree(work)
        selection = sorted({test for *_, tests in MUTANTS for test in tests})
        proc = run_tests(work, selection)
        print(f"unmutated: {'pass' if proc.returncode == 0 else 'FAIL'} ({len(selection)} tests)", flush=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
    for number, (name, line, replacement, tests) in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            copy_tree(work)
            path = work / "src" / "hlbench" / name
            try:
                path.write_text(mutate(path.read_text(), line, replacement))
            except ValueError as exc:
                print(f"mutant {number} ({name}): {exc}", flush=True)
                failed += 1
                continue
            began = time.perf_counter()
            proc = run_tests(work, tests)
            survivors = sorted(set(tests) - failed_ids(proc.stdout))
            if proc.returncode not in (0, 1):
                verdict = f"pytest exit {proc.returncode}"
            else:
                verdict = f"SURVIVED {', '.join(survivors)}" if survivors else "killed"
            failed += verdict != "killed"
            print(f"mutant {number} ({name}): {verdict} in {time.perf_counter() - began:.1f} s: {replacement}",
                  flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
