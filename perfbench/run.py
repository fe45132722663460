"""Benchmark of the beliefmerge command line, driven in-process.

    python3 perfbench/run.py --workload merge-distance --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One closed-loop client sends each request as one ``beliefmerge.cli.main``
call with stdout and stderr captured, and waits for the answer before the
next.  Inputs are generated from ``--seed`` and written to files under
``.perfbench/`` before the clock starts; answers are checked after it
stops.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from math import ceil
from pathlib import Path

import reference as ref
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0                 # the seed whose answer digests are recorded
WORKLOADS = ("merge-distance", "merge-forget", "wide-results", "check-matrix")

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
SETUP_SAMPLES = 8                # fresh interpreters before and again after timing
WARMUP_REQUESTS = 3
SPAN_REQUESTS = 50               # requests of the first traced pass whose spans are written


def _import_engine():
    """Import the engine from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import beliefmerge.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import beliefmerge from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: beliefmerge was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# measuring

def setup_samples(count: int) -> list[float]:
    """Wall seconds for a fresh interpreter to finish ``import beliefmerge.cli``.
    Every child reads and writes bytecode under ``.perfbench/pycache``,
    whatever the caller's environment, and one uncounted import fills that
    cache first, so each sample loads cached bytecode as an installed CLI
    would."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-c", "import beliefmerge.cli"]
    samples = []
    for _ in range(count + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit("perfbench: a fresh interpreter failed to import "
                             "beliefmerge.cli:\n" + done.stderr.decode(errors="replace"))
    return samples[1:]


def call(cli, argv) -> tuple:
    """One request: (exit code, stdout, stderr); a crash is exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def closed_loop(cli, requests, seconds: float):
    """Send requests in list order, cycling, until ``seconds`` have passed.
    Returns (latencies, answers as (index, answer), wall seconds).  A repeated
    answer equal to the request's first answer is kept as that same object,
    so memory does not grow with the number of passes."""
    latencies, answers, first = [], [], {}
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        index = i % len(requests)
        t0 = clock()
        answer = call(cli, requests[index].argv)
        t1 = clock()
        latencies.append(t1 - t0)
        kept = first.setdefault(index, answer)
        answers.append((index, kept if kept == answer else answer))
        i += 1
        if t1 >= deadline:
            return latencies, answers, t1 - start


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that has at least
    ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50, statistics.median(ordered))
    for p in TAIL_LADDER:
        rank = ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


# ---------------------------------------------------------------------------
# checking

def digest(answer) -> str:
    code, out, err = answer
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]


def verify(requests, answers, golden=None) -> list[str]:
    """Problems with the answers, one entry per failed request.  Each
    request's first answer is checked by its independent check (and against
    the recorded digest when ``golden`` is given); any later answer to the
    same request must repeat the first byte for byte."""
    first, verdict, problems = {}, {}, []
    for index, answer in answers:
        if index not in first:
            first[index] = answer
            problem = requests[index].check(*answer)
            if problem is None and golden is not None and digest(answer) != golden[index]:
                problem = "answer differs from the recorded digest"
            verdict[index] = problem
        elif answer != first[index]:
            problems.append(f"request {index}: answer differs from its first answer")
            continue
        if verdict[index] is not None:
            problems.append(f"request {index} ({requests[index].kind}): {verdict[index]}")
    return problems


def load_golden(workload: str, seed: int, count: int):
    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return None
    table = json.loads(GOLDEN.read_text()).get(workload)
    if table is None or len(table) != count:
        raise SystemExit(f"perfbench: {GOLDEN.name} has no digests for {workload}")
    return table


# ---------------------------------------------------------------------------
# one workload

def band(values) -> str:
    values = list(values)
    lo, hi = min(values), max(values)
    return str(lo) if lo == hi else f"{lo}..{hi}"


def input_properties(workload, seed, requests) -> list[str]:
    import workloads
    props = [r.props for r in requests]
    line = [f"seed {seed}", f"requests {len(requests)} distinct"]
    kinds = dict.fromkeys(r.kind for r in requests)
    line.append("kinds " + ", ".join(kinds))
    for key, label in (("vars", "variables"), ("kbs", "KBs"),
                       ("constraint_models", "constraint models"),
                       ("winners", "winners"), ("pair_evals", "merging.pair_evals"),
                       ("subsets_bound", "merging.subsets_bound")):
        if any(key in p for p in props):
            line.append(f"{label} {band(p[key] for p in props if key in p)}")
    kb_models = [m for p in props for m in p.get("kb_models", ())]
    if kb_models:
        line.append(f"KB models {band(kb_models)}")
    return ["input: " + "; ".join(line), "cost band: " + workloads.BANDS[workload]]


def run_untraced(cli, workload, seed, seconds, requests, golden):
    before = setup_samples(SETUP_SAMPLES)
    for request in requests[:WARMUP_REQUESTS]:
        call(cli, request.argv)
    latencies, answers, wall = closed_loop(cli, requests, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = verify(requests, answers, golden)
    after = setup_samples(SETUP_SAMPLES)

    attempted, failed = len(answers), len(problems)
    percentile, tail_value = tail(latencies)
    setup = statistics.median(before + after)
    metrics = {
        "requests_per_s": ((attempted - failed) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{percentile:g} of {attempted} samples",
        "setup_s": f"median of {len(before) + len(after)} fresh interpreters",
    }
    extra = [f"{'failed_share':24} {failed / attempted:.6g} "
             f"({failed} of {attempted} requests)"]
    return attempted, failed, problems, metrics, notes, extra


def run_traced(cli, workload, seed, seconds, requests, golden):
    """Alternate whole untraced and traced passes over the request list
    until ``seconds`` have passed; layer numbers are per traced request."""
    tracer = Tracer()
    plain_wall = traced_wall = cli_self = 0.0
    plain_count = traced_count = 0
    answers, traced = [], []
    for request in requests[:WARMUP_REQUESTS]:
        call(cli, request.argv)
    began = time.perf_counter()
    passes = 0
    # stop before a pair of passes that would end past ``seconds``
    while passes == 0 or (time.perf_counter() - began) * (passes + 1) / passes <= seconds:
        start = time.perf_counter()
        for index, request in enumerate(requests):
            answers.append((index, call(cli, request.argv)))
        plain_wall += time.perf_counter() - start
        plain_count += len(requests)

        with tracer:
            start = time.perf_counter()
            for index, request in enumerate(requests):
                tracer.request, tracer.covered = index, 0.0
                tracer.recording = passes == 0 and index < SPAN_REQUESTS
                t0 = time.perf_counter()
                answer = call(cli, request.argv)
                cli_self += time.perf_counter() - t0 - tracer.covered
                traced.append((index, answer))
            traced_wall += time.perf_counter() - start
        traced_count += len(requests)
        passes += 1

    answers += traced
    problems = verify(requests, answers, golden)
    counts = {"pair_evals": 0, "subsets_bound": 0, "result_models": 0}
    for index, answer in traced:
        _count(counts, requests[index], answer)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as handle:
        for layer, start, end, parent, request in tracer.spans:
            handle.write(json.dumps({"name": layer, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

    per = traced_count
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (tracer.self_time[layer] * 1000 / per, "ms")
        metrics[f"{layer}_calls"] = (tracer.calls[layer] / per, "count")
    metrics["cli.self_ms"] = (cli_self * 1000 / per, "ms")
    metrics["merging.pair_evals"] = (counts["pair_evals"] / per, "count")
    metrics["merging.subsets_bound"] = (counts["subsets_bound"] / per, "count")
    metrics["result_models"] = (counts["result_models"] / per, "count")
    plain_rate, traced_rate = plain_count / plain_wall, traced_count / traced_wall
    metrics["trace.overhead_pct"] = ((plain_rate - traced_rate) / plain_rate * 100, "%")
    notes = {"trace.overhead_pct": f"{passes} untraced and {passes} traced passes of "
                                   f"{len(requests)} requests",
             "cli.self_ms": f"spans written to {spans_path.relative_to(ROOT)}"}
    return len(answers), len(problems), problems, metrics, notes, []


def _count(counts, request, answer) -> None:
    """Exact per-request counts: pair evaluations from the inputs, the
    subset bound from the FS evidence, winners from the answer."""
    code, out, err = answer
    counts["pair_evals"] += request.props.get("pair_evals", 0)
    fs = next((line for line in err.splitlines() if line.startswith("FS = ")), None)
    if fs is not None and "pool" in request.props:
        counts["subsets_bound"] += ref.subsets_bound(request.props["pool"],
                                                     ref.parse_family(fs))
    if request.argv[0] == "dilate":
        last = out.rstrip("\n").rpartition("\n")[2]
        counts["result_models"] += int(last.partition(": ")[2] or 0)
    elif request.argv[0] == "merge":
        body = out.rstrip("\n")
        if request.argv[-2:] == ["--format", "models"]:
            counts["result_models"] += body.count("\n")
        elif body != "false":
            counts["result_models"] += body.count(" | ") + 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = _import_engine()
    import workloads

    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        requests = workloads.generate(workload, seed, workdir)
        golden = load_golden(workload, seed, len(requests))
        runner = run_traced if trace else run_untraced
        attempted, failed, problems, metrics, notes, extra = runner(
            cli, workload, seed, seconds, requests, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}  trace {int(trace)}  seconds {seconds:g}  "
          f"checked by {'independent checks and recorded digests' if golden else 'independent checks'}")
    for line in input_properties(workload, seed, requests):
        print(line)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32} {value:.6g} {unit}{note}")
    for line in extra:
        print(line)
    for problem in problems[:10]:
        print("FAILED", problem)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record_golden() -> None:
    """Write the answer digests of every workload for the default seed."""
    cli = _import_engine()
    import workloads
    table = {}
    for workload in WORKLOADS:
        workdir = WORK / f"golden-{workload}-p{os.getpid()}"
        try:
            requests = workloads.generate(workload, DEFAULT_SEED, workdir)
            answers = [call(cli, r.argv) for r in requests]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = verify(requests, list(enumerate(answers)))
        if problems:
            raise SystemExit(f"perfbench: {workload} fails its checks: {problems[0]}")
        table[workload] = [digest(a) for a in answers]
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current engine, for the "
                             "default seed")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # each workload in its own fresh process, one after another
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
