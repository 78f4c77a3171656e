"""One workload process: set up, run the timed loop, check every report.

    python3 perfbench/worker.py setup|run <workload> <seed> <seconds> <trace>

Started by run.py from the root of a checkout, one process per set-up
sample and one for the run.  `setup` only times the set-up.  `run` then
calls `hlbench.cli.main(argv)` in-process for each op, in whole passes over
the workload's ops: at least MIN_PASSES passes, and then as many more as
should end within <seconds>.  With <trace> 1, passes alternate untraced and
traced and the run ends on a traced pass, so the traced throughput can be
set against the untraced one.  Reports are checked after the loop, and the
process prints one JSON line on stdout.

Only what starts the set-up clock is imported before it, so the set-up time
includes the whole import of `hlbench.cli`.

Other tenants of a shared machine slow every instruction of this process by
up to 1.8 times, for seconds to minutes at a time.  So the process also
times `reference_loop()`, a fixed loop that is not part of the program: once
before every op, and REFERENCE_SAMPLES times on each side of the set-up.
run.py scales every time by the reference time measured around it.
"""

import os
import sys
import time

# Every op runs at least this often; the end-to-end figures take the median
# of each op's runs.
MIN_PASSES = 2
CHECK_PROCESSES = 2
REFERENCE_SAMPLES = 11


def reference_loop() -> int:
    """Fixed pure-Python work, about 1 ms: string slicing, dict updates, small tuples."""
    acc = 0
    table = {}
    for i in range(300):
        key = format(i & 63, "06b")
        for j in range(1, 6):
            part = key[:j] + "1"
            table[part] = table.get(part, 0) + (i ^ j)
            acc += len(part) + (table[part] & 3)
        acc += hash(tuple(key[k] for k in range(0, 6, 2))) & 1
    return acc


def time_reference() -> int:
    start = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - start


def setup(workload: str, seed: int):
    start = time.perf_counter_ns()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import hlbench.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hlbench was imported from {cli.__file__}, not from {src}")
    import workloads

    ops = workloads.build(workload, seed)
    return cli, ops, time.perf_counter_ns() - start


def run_op(cli, argv):
    """(exit status or None if it raised, ns, stdout, stderr) of one CLI command."""
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an op that raises is a failed op, the run goes on
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def timed_passes(cli, ops, seconds: int, tracer):
    import gc
    import hashlib

    passes = []
    first_outputs = []  # (stdout, stderr) of every op of the first pass, for the checks
    # The heap left by the import and the set-up is moved out of the
    # collector's reach, so the collection before each op only scans what
    # the previous op left and stays well under a millisecond.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter_ns() + seconds * 10**9
    longest = 0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        records = []
        start = time.perf_counter_ns()
        for op in ops:
            gc.collect()  # each op starts from a clean heap, as a fresh CLI process would
            ref_ns = time_reference()
            code, ns, out, err = run_op(cli, op.argv)
            data = out.encode()
            records.append((code, ns, hashlib.sha256(data).hexdigest(), len(data), ref_ns))
            if not passes:
                first_outputs.append((out, err))
        wall = time.perf_counter_ns() - start
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "wall_ns": wall, "records": records})
        # Go on only while the next pass (or, traced, the next untraced and
        # traced pair) should end before the deadline.
        longest = max(longest, wall)
        ahead = 2 * longest if tracer else longest
        done = traced if tracer else len(passes) >= MIN_PASSES
        if done and time.perf_counter_ns() + ahead > deadline:
            return passes, first_outputs


def check_passes(ops, passes, first_outputs):
    """Per-pass list of per-op verdicts (None or (kind, message)).

    The first run of each distinct command is checked; every other run of
    it, in any pass, must repeat that run's exit status and stdout exactly.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    import workloads

    first = passes[0]["records"]
    reference = {}
    for i, op in enumerate(ops):
        reference.setdefault(op.argv, i)
    checked = sorted(set(reference.values()))
    with ProcessPoolExecutor(CHECK_PROCESSES, mp_context=get_context("spawn")) as pool:
        found = pool.map(workloads.check_op, [ops[i] for i in checked], [first[i][0] for i in checked],
                         *zip(*(first_outputs[i] for i in checked)))
        verdicts = dict(zip(checked, found))
    out = []
    for p in passes:
        pass_verdicts = []
        for op, (code, _, digest, _, _) in zip(ops, p["records"]):
            ref = reference[op.argv]
            same = (code, digest) == (first[ref][0], first[ref][2])
            pass_verdicts.append(verdicts[ref] or (None if same else ("wrong", "report differs from another run")))
        out.append(pass_verdicts)
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, trace = argv[0], argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
    refs = [time_reference() for _ in range(REFERENCE_SAMPLES)]
    cli, ops, setup_ns = setup(workload, seed)
    refs += [time_reference() for _ in range(REFERENCE_SAMPLES)]
    import json
    import statistics

    setup_ref_ns = statistics.median(refs)
    if mode == "setup":
        print(json.dumps({"setup_ns": setup_ns, "setup_ref_ns": setup_ref_ns}))
        return 0
    import resource

    import spans

    tracer = spans.Tracer() if trace else None
    passes, first_outputs = timed_passes(cli, ops, seconds, tracer)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks run
    verdicts = check_passes(ops, passes, first_outputs)

    failures = {}
    for p, pass_verdicts in enumerate(verdicts):
        for i, v in enumerate(pass_verdicts):
            if v and i not in failures:
                failures[i] = {"op": i, "pass": p, "argv": list(ops[i].argv), "kind": v[0], "message": v[1]}
    traced_ops = sum(len(p["records"]) for p in passes if p["traced"])
    result = {
        "setup_ns": setup_ns,
        "setup_ref_ns": setup_ref_ns,
        "peak_rss_kib": peak_rss_kib,
        "hlbench_version": sys.modules["hlbench"].__version__,
        "passes": [
            {
                "traced": p["traced"],
                "wall_ns": p["wall_ns"],
                "latency_ns": [rec[1] for rec in p["records"]],
                "bytes": [rec[3] for rec in p["records"]],
                "ref_ns": [rec[4] for rec in p["records"]],
                "failed": [v is not None for v in pv],
                "wrong": [v is not None and v[0] == "wrong" for v in pv],
            }
            for p, pv in zip(passes, verdicts)
        ],
        "digests": [rec[2] for rec in passes[0]["records"]],
        "failures": list(failures.values()),
        "layers": spans.layer_metrics(tracer, traced_ops) if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
