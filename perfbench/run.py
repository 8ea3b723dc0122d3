"""kvlie benchmark: one closed-loop client running a seeded request list.

Usage, from the root of a kvlie source tree:

    python3 perfbench/run.py --workload transport2 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
request untraced and traced, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    # import the benchmark package from the tree, not the script's directory
    sys.path[0] = str(ROOT)

from perfbench import hostspeed, workloads  # noqa: E402
from perfbench.layertrace import BENCH, LAYERS, LayerTracer  # noqa: E402

END_TO_END = ("req_p50_s", "req_tail_s", "req_per_s", "setup_s", "peak_rss_mb")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0


class SourceTreeError(RuntimeError):
    """kvlie could not be imported from this tree's src/."""


def pin_threads() -> None:
    """One BLAS thread, set before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_kvlie():
    """Import kvlie from ROOT/src and nowhere else; return its modules.

    kvlie.cli is among them, and kvlie pulls in numpy and scipy.
    """
    init = SRC / "kvlie" / "__init__.py"
    if not init.is_file():
        raise SourceTreeError(f"no kvlie sources at {init}")
    if "kvlie" not in sys.modules:
        sys.path.insert(0, str(SRC))
    import importlib
    kvlie = importlib.import_module("kvlie")
    if Path(kvlie.__file__).resolve() != init.resolve():
        raise SourceTreeError(f"imported kvlie from {kvlie.__file__}, not {init}")
    mods = {name: importlib.import_module(f"kvlie.{name}") for name in LAYERS}
    return type("KvlieModules", (), mods)


def _timed(runner, request, prepared):
    start = time.perf_counter()
    result = runner.execute(request, prepared)
    return result, time.perf_counter() - start


class Tally(NamedTuple):
    """What a closed loop over a request list measured."""
    plain: List[float]   # untraced latency of every request that passed
    traced: List[float]  # traced latency of the same requests, paired
    speed: List[Tuple[float, float]]  # reference just before and after each of ``plain``
    attempted: int
    failures: List[str]


def run_list(runner, requests, seconds, tracer=None, limit=None) -> Tally:
    """Closed loop over the list until the timed work reaches ``seconds``
    (or ``limit`` requests were attempted).

    The host-speed reference runs before the first request and after every
    request, outside the timed windows.  With a tracer, every request runs
    twice, untraced and traced, in alternating order; the two latencies are
    paired.
    """
    reference = hostspeed.Reference()
    plain, traced, speed, failures = [], [], [], []
    attempted = 0
    busy = 0.0
    before = reference.time()
    while busy < seconds and (limit is None or attempted < limit):
        request = requests[attempted % len(requests)]
        attempted += 1
        runs = []
        start = time.perf_counter()
        try:
            prepared = runner.prepare(request)
            runs.append(_timed(runner, request, prepared))
            if tracer is not None:
                runs.insert(attempted % 2,
                            tracer.run_request(attempted, runner.execute, request, prepared))
            error = next(filter(None, (runner.check(request, prepared, result)
                                       for result, _elapsed in runs)), None)
        except Exception as exc:  # a failing request is counted, never retried
            error = f"{type(exc).__name__}: {exc}"
            runs = [(None, time.perf_counter() - start)]
        busy += sum(elapsed for _result, elapsed in runs)
        after = reference.time()
        if error:
            failures.append(f"{request[0]}: {error}")
        else:
            if tracer is None:
                plain.append(runs[0][1])
            else:
                pos = attempted % 2  # where the traced run went
                traced.append(runs[pos][1])
                plain.append(runs[1 - pos][1])
            speed.append((before, after))
        before = after
    return Tally(plain, traced, speed, attempted, failures)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: the 11th largest.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(workload: str):
    """Fresh-interpreter time to the end of warm-up, SETUP_PROBES times.

    Returns the raw times and the times corrected for host speed by the
    reference run just before and just after each probe.
    """
    reference = hostspeed.Reference()
    raw, fixed = [], []
    for _ in range(SETUP_PROBES):
        before = reference.time(repeat=3)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload], stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
        try:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        fixed.append(hostspeed.corrected(raw[-1], before, reference.time(repeat=3)))
    return raw, fixed


def warm_up(runner, workload: str):
    """Run the fixed warm-up requests; they fill the lru caches."""
    for request in workloads.warmup_requests(workload):
        prepared = runner.prepare(request)
        error = runner.check(request, prepared, runner.execute(request, prepared))
        if error:
            raise RuntimeError(f"warm-up request failed: {error}")


def environment_lines(kvlie_path: Path):
    import numpy
    return [f"nproc {os.cpu_count()}", f"python {platform.python_version()}",
            f"numpy {numpy.__version__}", f"kvlie imported from {kvlie_path}"]


def end_to_end(runner, requests, seconds, setup):
    """End-to-end figures from latencies corrected for host speed.

    ``setup`` is the pair of lists measure_setup returns.  The raw figures
    are printed as notes.
    """
    tally = run_list(runner, requests, seconds)
    raw = tally.plain or [0.0]
    fixed = [hostspeed.corrected(latency, *around)
             for latency, around in zip(tally.plain, tally.speed)] or [0.0]
    value, pct, n = tail(fixed)
    values = {
        "req_p50_s": (statistics.median(fixed), "s"),
        "req_tail_s": (value, "s"),
        "req_per_s": (len(tally.plain) / sum(fixed) if tally.plain else 0.0, "1/s"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics = {name: values[name] for name in END_TO_END}
    references = [t for around in tally.speed for t in around] or [0.0]
    notes = [f"req_tail_s is p{pct:.1f} over {n} samples ({min(n - 1, 10)} beyond it)",
             f"failed_ratio {len(tally.failures)}/{tally.attempted} = "
             f"{len(tally.failures) / tally.attempted:.4f}",
             f"host-speed reference median {statistics.median(references):.6f} s, "
             f"nominal {hostspeed.NOMINAL_S:g} s; figures below are corrected to nominal",
             f"raw req_p50_s {statistics.median(raw):.6g} s, req_tail_s {tail(raw)[0]:.6g} s, "
             f"req_per_s {len(tally.plain) / sum(raw) if tally.plain else 0.0:.6g} 1/s, "
             f"setup_s {statistics.median(setup[0]):.6g} s",
             "setup_s samples " + " ".join(f"{s:.4f}" for s in setup[1])]
    return metrics, tally.attempted, tally.failures, notes


def layer_metrics(tracer: LayerTracer, plain, traced):
    """Per-request layer figures of a traced run, plus the tracing overhead.

    ``plain`` and ``traced`` are the paired latencies of the same requests.
    """
    per_req = 1.0 / len(traced)
    table = tracer.layer_table()
    metrics = {}
    for name, (calls, self_s) in table.items():
        if name != BENCH:  # one bench span per request, by construction
            metrics[f"{name}.calls"] = (calls * per_req, "count/req")
        metrics[f"{name}.self_s"] = (self_s * per_req, "s/req")
    counts = tracer.counts
    for key, unit in (("words.terms_out", "count/req"), ("linalg.cells", "count/req"),
                      ("linalg.unsolvable", "count/req"), ("graphs.graphs_out", "count/req"),
                      ("serialize.bytes", "B/req")):
        metrics[key] = (counts.get(key, 0.0) * per_req, unit)
    lookups = counts.get("lyndon.cache_lookups", 0.0)
    metrics["lyndon.cache_hit_ratio"] = (
        counts.get("lyndon.cache_hits", 0.0) / lookups if lookups else 0.0, "1")
    drawn = counts.get("weights.samples_drawn", 0.0)
    weights_s = table["weights"][1]
    metrics["weights.samples_per_s"] = (drawn / weights_s if weights_s else 0.0, "1/s")
    metrics["weights.rejection_rate"] = (
        counts.get("weights.samples_rejected", 0.0) / drawn if drawn else 0.0, "1")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "1")
    metrics["trace.req_per_s"] = (len(traced) / sum(traced), "1/s")
    metrics["trace.untraced_req_per_s"] = (len(plain) / sum(plain), "1/s")
    return metrics


def per_layer(runner, requests, seconds, span_file: Path):
    """Each request untraced and traced; per-request layer figures."""
    tracer = LayerTracer()
    bytes_before = runner.serialized_bytes
    with tracer:
        tally = run_list(runner, requests, seconds, tracer)
    plain, traced, attempted, failures = tally.plain, tally.traced, tally.attempted, tally.failures
    if not traced:
        raise RuntimeError("no traced request passed its check: " + "; ".join(failures[:3]))
    # both runs of a request serialize the same document
    tracer.add("serialize.bytes", (runner.serialized_bytes - bytes_before) / 2)
    metrics = layer_metrics(tracer, plain, traced)
    span_file.parent.mkdir(exist_ok=True)
    tracer.write_spans(span_file)
    accounted = sum(self_s for _calls, self_s in tracer.layer_table().values())
    notes = [f"{len(traced)} requests each run untraced and traced; "
             f"tracing overhead {metrics['trace.overhead_ratio'][0]:.3f}x",
             f"self times of all layers sum to {accounted / sum(traced):.6f} "
             f"of the traced wall time",
             f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}"
             f" ({tracer.spans_dropped} beyond the in-memory limit)"]
    return metrics, attempted, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        mods = import_kvlie()
    except (SourceTreeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner = workloads.Runner(mods)
    if args.probe_setup:
        warm_up(runner, args.workload)
        print("ready", flush=True)
        return 0

    requests = workloads.generate(args.workload, args.seed)
    setup = ([], []) if args.trace else measure_setup(args.workload)
    warm_up(runner, args.workload)
    if args.trace:
        span_file = ROOT / "perfbench" / "out" / f"spans-{args.workload}.jsonl.gz"
        metrics, attempted, failures, notes = per_layer(
            runner, requests, args.seconds, span_file)
    else:
        metrics, attempted, failures, notes = end_to_end(
            runner, requests, args.seconds, setup)

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace} (closed loop, 1 client)"]
    lines += environment_lines(Path(mods.cli.__file__).parent)
    lines += notes
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"FAILED {f}" for f in failures[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
