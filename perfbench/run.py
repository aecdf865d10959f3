"""End-to-end marketplace benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload market --seed 7 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end figure (set-up, tasks/s, block and task p50 and tail, gas per
task, peak RSS, failed ratio) with its unit and sample count, plus
``tasks_per_kref``: settled tasks per thousand passes of a fixed
reference kernel sampled through the timed region, which is tasks/s with
the shared host's speed swings taken out (see
``workloads.ReferenceSampler``); ``--trace
1`` alternates dark and traced iterations of the seed's scenario and
prints the per-layer figures (see ``tracer.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` that ``BENCHMARK.json`` declares; the
line before it carries the run's context (host, seed, task counts,
sample counts, every check that failed).  The exit code is non-zero
when a correctness gate fails or ``src/repro`` is missing.

Workload sizes, seeds and checks are in ``workloads.py``; which layer
metric should move which end-to-end metric is in ``predictions.json``;
``pins.json`` pins the default seed's ``state_root`` per workload.
"""

from time import perf_counter

STARTED = perf_counter()  # workload start, for the set-up probe

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("market", "rpc", "durable")

#: Percentiles a tail may be reported at: the highest one with ten or
#: more samples beyond it (the median when a run is too short for any).
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
#: Fewest set-up probes per dark run (child processes; the median is
#: reported).
SETUP_SAMPLES = 5
#: Attribution must close to within this share of wall time.
ATTRIBUTION_TOLERANCE = 0.05
#: The tracer's counts that must repeat exactly for a (workload, seed).
EXACT_COUNTS = (
    "keccak.calls",
    "keccak.bytes",
    "curve.ec_mul.calls",
    "trie.sets",
    "trie.scanned",
    "rpc.requests",
    "store.wal.bytes",
    "chain.gas",
)


def percentile(values, q):
    """Nearest-rank percentile (``q`` in percent) of unsorted ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, q):
    """How many of ``count`` samples lie beyond the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def sub_seed(seed, index):
    """Iteration ``index`` of a run: the seed itself, then derived seeds."""
    from repro.sim.seeding import derive_seed

    return seed if index == 0 else derive_seed(seed, "perfbench", index)


def host_context():
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Cross-run records and pins
# ---------------------------------------------------------------------------


def load_json(path, default):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


def compare_with_records(key, observed, problems):
    """Check ``observed`` against the first run's record for ``key``
    (and record it if this is the first run in this checkout)."""
    path = os.path.join(OUT, "records.json")
    records = load_json(path, {})
    first = records.get(key)
    if first is None:
        records[key] = observed
        scratch = path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
        os.replace(scratch, path)
        return
    for name, value in observed.items():
        if name in first and first[name] != value:
            problems.append(
                "%s: %s is %r, the first run recorded %r" % (key, name, value, first[name])
            )


def check_pin(workload, tasks, seed, root, problems):
    pins = load_json(os.path.join(HERE, "pins.json"), {})
    pin = pins.get(workload)
    if pin and pin["seed"] == seed and pin["tasks"] == tasks and pin["state_root"] != root:
        problems.append(
            "%s seed %d: state_root %s differs from the pinned %s"
            % (workload, seed, root, pin["state_root"])
        )


# ---------------------------------------------------------------------------
# Set-up probe
# ---------------------------------------------------------------------------


def setup_probe(name, workdir):
    """Child-process body: time imports and workload set-up, then exit."""
    from workloads import TASKS, WORKLOADS

    workload = WORKLOADS[name](TASKS[name], workdir)
    handle = workload.setup()
    elapsed = perf_counter() - STARTED
    workload.teardown(handle)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(name, workdir, index):
    """One set-up probe in a fresh child process; its seconds."""
    child = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--setup-probe",
            "--workload",
            name,
            "--workdir",
            os.path.join(workdir, "setup-%d" % index),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if child.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + child.stderr)
    return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Dark run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_dark(workload, clock, seed, seconds, workdir):
    """Iterate sub-seeded scenarios until ``seconds`` of timed work are
    done.  A set-up probe follows each scenario (at least
    ``SETUP_SAMPLES`` in all), so the probes sample the host's speed over
    the whole run rather than one moment of it."""
    iterations, setup_samples = [], []
    timed = 0.0
    for index in itertools.count():
        iteration = workload.iteration(sub_seed(seed, index), clock, with_root=index == 0)
        iterations.append(iteration)
        setup_samples.append(measure_setup(workload.name, workdir, index))
        timed += iteration.wall
        if timed + 0.5 * iteration.wall >= seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(workload.name, workdir, len(setup_samples)))
    return iterations, setup_samples


def tail_percentile(count):
    """The highest ladder percentile with ten or more samples beyond it."""
    return next((q for q in TAIL_LADDER if beyond(count, q) >= 10), TAIL_LADDER[-1])


def busy_blocks(iterations):
    """Times of the blocks that carry transactions.

    Empty blocks (Poisson gaps, a millisecond or two each) are a quarter
    to a third of all blocks depending on the arrival draw, and the
    median of all blocks falls in the gap between them and the rest, so
    block times are reported over the blocks users wait on.
    """
    return [seconds for it in iterations for seconds, txs in it.blocks if txs]


def end_to_end(iterations, setup_samples):
    """The end-to-end metrics plus the sample counts behind them."""
    blocks = busy_blocks(iterations)
    tasks = [t for it in iterations for t in it.task_latencies]
    block_q, task_q = tail_percentile(len(blocks)), tail_percentile(len(tasks))
    settled = sum(it.settled for it in iterations)
    wall = sum(it.wall for it in iterations)
    reference = [t for it in iterations for t in it.reference]
    kernel_passes = sum(it.wall / statistics.mean(it.reference) for it in iterations)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (settled / wall, "tasks/s"),
        "tasks_per_kref": (1e3 * settled / kernel_passes, "tasks/kref"),
        "block_p50_ms": (1e3 * percentile(blocks, 50), "ms"),
        "block_tail_ms": (1e3 * percentile(blocks, block_q), "ms"),
        "task_p50_s": (percentile(tasks, 50), "s"),
        "task_tail_s": (percentile(tasks, task_q), "s"),
        "gas_per_task": (sum(it.gas for it in iterations) / settled, "gas"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    samples = {
        "setup_s": {"n": len(setup_samples), "stat": "median"},
        "tasks_per_s": {"tasks": settled, "wall_s": wall},
        "tasks_per_kref": {
            "tasks": settled,
            "kernel_passes": kernel_passes,
            "reference_samples": len(reference),
            "reference_p50_ms": 1e3 * percentile(reference, 50),
        },
        "block_p50_ms": {
            "n": len(blocks),
            "percentile": 50,
            "of": "blocks with transactions",
            "all_blocks": sum(len(it.blocks) for it in iterations),
        },
        "block_tail_ms": {
            "n": len(blocks),
            "percentile": block_q,
            "beyond": beyond(len(blocks), block_q),
        },
        "task_p50_s": {"n": len(tasks), "percentile": 50},
        "task_tail_s": {
            "n": len(tasks),
            "percentile": task_q,
            "beyond": beyond(len(tasks), task_q),
        },
        "gas_per_task": {"tasks": settled},
        "peak_rss_mb": {"n": 1},
    }
    return metrics, samples


def failure_accounting(iterations):
    """(attempted, failed, breakdown) over transactions, RPC requests, tasks."""
    parts = {
        "transactions": sum(it.transactions for it in iterations),
        "rpc_requests": sum(it.rpc_requests for it in iterations),
        "tasks": sum(it.published for it in iterations),
        "reverted": sum(it.reverted for it in iterations),
        "rpc_errors": sum(it.rpc_errors for it in iterations),
        "unsettled": sum(it.unsettled for it in iterations),
    }
    attempted = parts["transactions"] + parts["rpc_requests"] + parts["tasks"]
    failed = parts["reverted"] + parts["rpc_errors"] + parts["unsettled"]
    return attempted, failed, parts


def check_iterations(workload, iterations, problems):
    for index, iteration in enumerate(iterations):
        problems.extend(iteration.checks)
        observed = {
            "fingerprint": iteration.fingerprint,
            "gas": iteration.gas,
            "transactions": iteration.transactions,
            "settled": iteration.settled,
        }
        if iteration.state_root is not None:
            observed["state_root"] = iteration.state_root
            check_pin(workload.name, workload.tasks, iteration.seed, iteration.state_root, problems)
        compare_with_records(
            "%s/%d/%d" % (workload.name, workload.tasks, iteration.seed),
            observed,
            problems,
        )


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(workload, clock, seed, seconds, trace_path):
    """Alternate dark and traced iterations of the seed's scenario."""
    import tracer
    from repro.obs import get_tracer
    from repro.reporting.traces import read_trace

    ids = itertools.count(1)
    dark_walls, traced, recorders, problems = [], [], [], []
    if get_tracer().enabled:
        problems.append("the program's own tracer is installed; its spans would mix in")
    timed = 0.0
    while True:
        dark = workload.iteration(seed, clock)
        recorder = tracer.Recorder(ids)
        clock.arm(recorder, _counting_hooks(recorder))
        lit = workload.iteration(seed, clock)
        clock.disarm()
        problems.extend(dark.checks + lit.checks)
        if lit.fingerprint != dark.fingerprint:
            problems.append("the traced run's chain state differs from the dark run's")
        layer = layer_metrics(tracer, recorder, lit, problems)
        dark_walls.append(dark.wall)
        traced.append((lit, layer))
        recorders.append(recorder)
        timed += dark.wall + lit.wall
        if timed + 0.5 * (dark.wall + lit.wall) >= seconds:
            break
    first = traced[0][1]
    for _, layer in traced[1:]:
        for name, (value, unit) in layer.items():
            if unit in ("count", "bytes", "gas") and value != first[name][0]:
                problems.append("%s is not repeatable: %r then %r" % (name, first[name][0], value))
    compare_with_records(
        "%s/%d/%d/trace" % (workload.name, workload.tasks, seed),
        dict({name: first[name][0] for name in EXACT_COUNTS}, fingerprint=traced[0][0].fingerprint),
        problems,
    )
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(layer[name][0] for _, layer in traced)
        metrics[name] = (value, unit)
    metrics["trace.overhead"] = (
        statistics.median(lit.wall / dark for (lit, _), dark in zip(traced, dark_walls)) - 1.0,
        "ratio",
    )
    written = tracer.write_spans(trace_path, [recorder.spans for recorder in recorders])
    readback = read_trace(trace_path)
    if len(readback) != written or readback.truncated:
        problems.append("trace file %s did not read back whole" % trace_path)
    context = {
        "traced_iterations": len(traced),
        "spans": written,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "wall_s": statistics.median(lit.wall for lit, _ in traced),
        "dark_wall_s": statistics.median(dark_walls),
        "attribution_error": [recorder.closure for recorder in recorders],
    }
    return metrics, [lit for lit, _ in traced], problems, context


def _counting_hooks(recorder):
    """Byte and request counters, taken around the layer calls."""
    from repro.rpc.server import READ_METHODS

    def size_of(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    def keccak(args, kwargs, result, token):
        recorder.add("keccak.bytes", len(args[0]))

    def encode(args, kwargs, result, token):
        recorder.add("codec.encode.bytes", len(result))

    def scan(args, kwargs, result, token):
        recorder.add("trie.scanned", len(result))

    def wal(args, kwargs, result, token):
        recorder.add("store.wal.bytes", size_of(args[0].wal.path) - token)

    def snapshot(args, kwargs, result, token):
        store = args[0]
        recorder.add(
            "store.snapshot.bytes",
            size_of(os.path.join(store.state_dir, store.manifest()["snapshot"])),
        )

    def respond(args, kwargs, result, token):
        envelope = args[1]
        members = envelope if isinstance(envelope, list) else [envelope]
        answers = result if isinstance(result, list) else [result]
        for member in members:
            method = member.get("method") if isinstance(member, dict) else None
            recorder.add("rpc.requests")
            recorder.add("rpc.read_requests" if method in READ_METHODS else "rpc.write_requests")
        recorder.add("rpc.errors", sum(1 for answer in answers if "error" in answer))

    def request(args, kwargs, result, token):
        recorder.add("rpc.req.bytes", len(args[1]))
        recorder.add("rpc.resp.bytes", len(result))

    return {
        "keccak": (None, keccak),
        "codec.encode": (None, encode),
        "trie.scan": (None, scan),
        "store.wal": (lambda args: size_of(args[0].wal.path), wal),
        "store.save": (None, snapshot),
        "rpc.server": (None, respond),
        "rpc.transport": (None, request),
    }


#: Span name → the metric its call count is reported under (``None``:
#: time only).  Each span also reports ``<name>.s``, its inclusive time.
SPAN_METRICS = {
    "curve.ec_mul": "curve.ec_mul.calls",
    "curve.ec_add": "curve.ec_add.calls",
    "curve.mul_fixed": "curve.mul_fixed.calls",
    "curve.msm": "curve.msm.calls",
    "keccak": "keccak.calls",
    "elgamal.encrypt": None,
    "elgamal.decrypt": None,
    "vpke.prove": None,
    "vpke.verify": None,
    "poqoea.prove": None,
    "clients.requester": None,
    "clients.worker": None,
    "session.step": "session.step.calls",
    "sim.population": None,
    "sim.admit": None,
    "chain.mine": "chain.mine.calls",
    "chain.dispatch": "chain.dispatch.calls",
    "chain.deploy": None,
    "trie.root": "trie.root.calls",
    "codec.encode": "codec.encode.calls",
    "codec.decode": None,
    "store.wal": "store.wal.appends",
    "store.save": "store.save.calls",
    "store.checkpoint": "store.checkpoint.calls",
    "rpc.roundtrip": None,
    "rpc.server": None,
}


def layer_metrics(tracer, recorder, iteration, problems):
    """Per-layer figures of one traced iteration, with the trace checks."""
    spans = recorder.spans
    try:
        tracer.check_nesting(spans)
    except AssertionError as exc:
        problems.append("trace nesting: %s" % exc)
    inclusive = tracer.inclusive_times(spans)
    own = tracer.self_times(spans)

    def calls(name):
        return inclusive.get(name, (0, 0.0))[0]

    def seconds(name):
        return inclusive.get(name, (0, 0.0))[1]

    count = recorder.counts.get
    wall = iteration.wall
    covered = sum(span[4] - span[3] for span in spans if span[1] is None and span[8])
    other = wall - covered
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for name, value in own.items():
        layer_self[tracer.LAYER_OF[name]] += value
    closure = (sum(layer_self.values()) + other) / wall - 1.0
    recorder.closure = closure
    if abs(closure) > ATTRIBUTION_TOLERANCE:
        problems.append(
            "layer self time + other.s misses wall time by %.1f%%" % (100 * closure)
        )
    program = recorder.program
    hits = program["fixed_base.hits"]
    lookups = hits + program["fixed_base.misses"]
    sets, scanned = program["trie.sets"], count("trie.scanned", 0)
    metrics = {
        "curve.fixed_base_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "keccak.bytes": (count("keccak.bytes", 0), "bytes"),
        "session.step.self_s": (own.get("session.step", 0.0), "s"),
        "chain.txs": (iteration.transactions, "count"),
        "chain.reverted": (iteration.reverted, "count"),
        "chain.gas": (iteration.gas, "gas"),
        "trie.scanned": (scanned, "count"),
        "trie.sets": (sets, "count"),
        "trie.hashes": (program["trie.hashes"], "count"),
        "trie.dirty_ratio": (sets / scanned if scanned else 0.0, "ratio"),
        "codec.encode.bytes": (count("codec.encode.bytes", 0), "bytes"),
        "store.wal.bytes": (count("store.wal.bytes", 0), "bytes"),
        "store.snapshot.bytes": (count("store.snapshot.bytes", 0), "bytes"),
        "rpc.requests": (count("rpc.requests", 0), "count"),
        "rpc.read_requests": (count("rpc.read_requests", 0), "count"),
        "rpc.write_requests": (count("rpc.write_requests", 0), "count"),
        "rpc.req.bytes": (count("rpc.req.bytes", 0), "bytes"),
        "rpc.resp.bytes": (count("rpc.resp.bytes", 0), "bytes"),
        "rpc.errors": (count("rpc.errors", 0), "count"),
        "rpc.wait.s": (seconds("rpc.roundtrip") - seconds("rpc.server"), "s"),
        "other.s": (other, "s"),
    }
    for span_name, calls_metric in SPAN_METRICS.items():
        if calls_metric is not None:
            metrics[calls_metric] = (calls(span_name), "count")
        metrics[span_name + ".s"] = (seconds(span_name), "s")
    for layer, value in layer_self.items():
        metrics["self.%s.s" % layer] = (value, "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared(kind):
    """The metric names ``BENCHMARK.json`` lists under ``kind``; the
    result line carries exactly these (the table above it shows all)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


def emit(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no src/repro under %s; run from a repository checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        os.makedirs(args.workdir, exist_ok=True)
        try:
            setup_probe(args.workload, args.workdir)
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    from workloads import TASKS, WORKLOADS, Clock

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        return run(args, TASKS, WORKLOADS, Clock, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tasks, workloads, clock_class, workdir):
    workload = workloads[args.workload](tasks[args.workload], workdir)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "tasks_per_iteration": workload.tasks,
        "host": host_context(),
        "trace": args.trace,
    }
    try:
        return measure(args, workload, clock_class, workdir, context)
    except Exception:
        # An exception is a failed operation: count it, print no metrics.
        traceback.print_exc()
        print("CHECK FAILED: the %s workload raised" % workload.name)
        emit(False, 1, 1, {})
        return 1


def measure(args, workload, clock_class, workdir, context):
    clock = clock_class(reference=not args.trace)
    clock.install()
    if args.trace:
        trace_path = os.path.join(OUT, "trace-%s-%d.jsonl" % (workload.name, args.seed))
        metrics, iterations, problems, extra = run_traced(
            workload, clock, args.seed, args.seconds, trace_path
        )
        context.update(extra)
    else:
        iterations, setup_samples = run_dark(workload, clock, args.seed, args.seconds, workdir)
        problems = []
        check_iterations(workload, iterations, problems)
        metrics, samples = end_to_end(iterations, setup_samples)
        context["samples"] = samples
        context["setup_samples_s"] = setup_samples
    attempted, failed, parts = failure_accounting(iterations)
    context.update(
        {
            "iterations": len(iterations),
            "iteration_seeds": [it.seed for it in iterations],
            "iteration_walls_s": [it.wall for it in iterations],
            "tasks": sum(it.published for it in iterations),
            "failed_ratio": failed / attempted,
            "failed_ratio_base": parts,
            "problems": problems,
        }
    )
    samples = context.get("samples", {})
    for name, (value, unit) in sorted(metrics.items()):
        basis = ", ".join("%s=%s" % item for item in samples.get(name, {}).items())
        print("%-30s %18.6f %-8s %s" % (name, value, unit, basis))
    print(
        "%-30s %18.6f %-8s failed=%d of attempted=%d (transactions=%d, rpc_requests=%d, tasks=%d)"
        % (
            "failed_ratio",
            failed / attempted,
            "ratio",
            failed,
            attempted,
            parts["transactions"],
            parts["rpc_requests"],
            parts["tasks"],
        )
    )
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    correct = not problems and failed == 0
    print(json.dumps({"context": context}, sort_keys=True))
    kind = "per_layer" if args.trace else "end_to_end"
    emit(correct, attempted, failed, {name: metrics[name] for name in declared(kind)})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
