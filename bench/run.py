"""walkergeo benchmark: one workload per process, a closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; paths are taken relative to this file. Workloads:

    corpus-dense    the 9 built-in fixtures, analyzed in process at 512
                    samples
    generated-deep  seeded random manifests (bench/generator.py) at 32
                    samples, analyzed in process
    cli-corpus      each fixture as a fresh `walkergeo examples run <name>
                    --report machine` process at 64 samples, plus one
                    `analyze` of a rejected manifest file

The seed picks the sampling seed, the order of the fixtures and the
generated manifests. Each analysis passes a correctness gate (exit status,
documented verdicts, and at seed 42 the machine report's digest); a failed
gate counts toward `failed`.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; timings are in reference seconds (see
bench/calibration.py), and the run pins itself to one CPU. With --trace 1 it holds the per-layer metrics of a
traced run (bench/tracer.py), whose spans go to bench/out/. Every run
writes a result file with an environment stamp and the spread of each
metric to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import generator
import tracer as tracing
from calibration import kernel, to_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = BENCH / "spec.json"

WORKLOADS = ("corpus-dense", "generated-deep", "cli-corpus")
DEFAULT_SEED = 42
CORPUS_SAMPLES = 512
GENERATED_ROUNDS = 2
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "analysis_s.p50": "s",
    "peak_rss_mb": "MB",
}

# A tiny size for the smoke test: every workload in a few seconds.
TINY = {"corpus_samples": 16, "generated_rounds": 1, "generated_samples": 8,
        "cli_samples": 16, "setup_probes": 1}


@dataclass
class Item:
    """One analysis of a workload: a manifest, or CLI arguments."""

    name: str
    text: str
    expect: str                     # "fixture", "accept" or "reject"
    argv: list[str] = field(default_factory=list)
    manifest: object = None


@dataclass
class Outcome:
    item: Item
    latency: float
    status: int | None              # None: ended in a traceback
    report: str | None
    error: str | None = None
    rss_mb: float | None = None
    reference: float = 0.0          # latency in reference seconds


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def verdicts(report_text: str) -> dict:
    """The verdicts a fixture documents, read from its machine report."""
    tree = json.loads(report_text)
    return {
        "display": tree["basic_classes"]["display"],
        "classes": tree["named_classes"]["classes"],
        "eta_einstein": tree["curvature"]["eta_einstein"]["holds"],
        "flat": tree["curvature"]["flat"],
    }


def digest(report_text: str) -> str:
    return hashlib.sha256(report_text.encode("utf-8")).hexdigest()


# --- workloads ---------------------------------------------------------------

def corpus_texts(samples: int | None, seed: int) -> list[tuple[str, str]]:
    """(fixture name, manifest text) with sampling overrides appended."""
    from walkergeo import FIXTURES

    extra = f"seed = {seed}\n"
    if samples is not None:
        extra += f"samples = {samples}\n"
    return [(fx.name, fx.manifest_text + extra) for fx in FIXTURES]


def build_items(workload: str, seed: int, tiny: bool) -> list[Item]:
    rng = random.Random(seed)
    if workload == "corpus-dense":
        samples = TINY["corpus_samples"] if tiny else CORPUS_SAMPLES
        items = [Item(name, text, "fixture")
                 for name, text in corpus_texts(samples, seed)]
    elif workload == "generated-deep":
        rounds = TINY["generated_rounds"] if tiny else GENERATED_ROUNDS
        samples = TINY["generated_samples"] if tiny else generator.SAMPLES
        items = [Item(name, text, "reject" if rejected else "accept")
                 for name, rejected, text
                 in generator.manifest_set(seed, rounds, samples)]
    else:
        flags = ["--report", "machine", "--seed", str(seed)]
        if tiny:
            flags += ["--samples", str(TINY["cli_samples"])]
        items = [Item(name, text, "fixture",
                      ["examples", "run", name] + flags)
                 for name, text in corpus_texts(None, seed)]
        shape = rng.choice(("reject_epsilon", "reject_unit"))
        name = f"rejected-{seed}"
        text = generator.manifest_text(name, shape, rng)
        path = OUT / f"cli-{name}.manifest"
        path.write_text(text, encoding="utf-8")
        items.append(Item(name, text, "reject",
                          ["analyze", str(path), "--report", "machine"]))
    rng.shuffle(items)
    return items


def check(outcome: Outcome, refs: dict, workload: str,
          check_digest: bool) -> str | None:
    """Why the outcome fails the correctness gate, or None."""
    item, status = outcome.item, outcome.status
    if status is None:
        return f"traceback: {outcome.error}"
    if item.expect == "reject":
        return None if status == 1 else f"exit {status}, expected 1"
    if item.expect == "accept":
        return None if status in (0, 2) else f"exit {status}, expected 0 or 2"
    if status != 0:
        return f"exit {status}, expected 0"
    try:
        got = verdicts(outcome.report)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    if got != refs["verdicts"][item.name]:
        return f"verdicts {got} differ from the documented class"
    if check_digest and digest(outcome.report) != \
            refs["digests"][workload][item.name]:
        return "machine report digest differs from the reference"
    return None


# --- running one analysis ----------------------------------------------------

def analyze_in_process(manifest, samples: int | None = None
                       ) -> tuple[int | None, str | None, str | None]:
    """(exit status as the CLI maps it, machine report, error text)."""
    from walkergeo import build_report
    from walkergeo.errors import (
        ConsistencyError, DegenerateInputError, EmptyDomainError,
        EvaluationError, InputError, OutOfDomainError, StructuralRejection,
        UnsupportedSignatureError)

    try:
        report = build_report(manifest.build(samples=samples),
                              name=manifest.name)
        return report.exit_status, report.to_json(), None
    except (StructuralRejection, UnsupportedSignatureError):
        return 1, None, None
    except (InputError, EvaluationError, OutOfDomainError, EmptyDomainError,
            DegenerateInputError):
        return 2, None, None
    except ConsistencyError:
        return 3, None, None
    except Exception as exc:  # a traceback: record it and keep measuring
        return None, None, f"{type(exc).__name__}: {exc}"


def run_process(argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
    """(exit status, wall seconds, peak RSS in MB) of one child process."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(item: Item, trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "walkergeo.cli"] + item.argv
    return [sys.executable, str(BENCH / "traced_cli.py"),
            str(trace_path)] + item.argv


# --- passes ------------------------------------------------------------------

@dataclass
class Pass:
    """One pass over every item. Its wall time is the sum of the analyses'
    times; the calibration kernel run between them is left out."""

    outcomes: list[Outcome]
    kernels: list[float]            # kernel times around the analyses
    totals: dict | None = None      # traced passes: per-layer totals
    spans: Callable[[], object] | None = None   # traced passes: span table

    def __post_init__(self):
        refs = to_reference([o.latency for o in self.outcomes], self.kernels)
        for outcome, ref in zip(self.outcomes, refs):
            outcome.reference = ref

    @property
    def wall(self) -> float:
        return sum(o.reference for o in self.outcomes)

    @property
    def raw_wall(self) -> float:
        return sum(o.latency for o in self.outcomes)


def in_process_pass(items: list[Item], tracer=None) -> Pass:
    if tracer is not None:
        # parsing is set-up, outside the pass's wall time, but traced so
        # manifest.parse_s is measured on every workload
        tracer.recorder = tracing.Recorder()
        from walkergeo import parse_manifest
        for item in items:
            item.manifest = parse_manifest(item.text)
    outcomes, kernels = [], []
    for item in items:
        kernels.append(kernel())
        t0 = time.perf_counter()
        status, report, error = analyze_in_process(item.manifest)
        latency = time.perf_counter() - t0
        outcomes.append(Outcome(item, latency, status, report, error))
        if tracer is not None:
            tracer.recorder.close_analysis()
    kernels.append(kernel())
    if tracer is None:
        return Pass(outcomes, kernels)
    return Pass(outcomes, kernels, tracer.recorder.totals(),
                tracer.recorder.spans)


def cli_pass(items: list[Item], traced: bool = False) -> Pass:
    outcomes, kernels = [], []
    totals: dict = {}
    spans = []
    stdout_path = OUT / "cli-child.out"
    trace_path = OUT / "cli-child-trace.json" if traced else None
    for item in items:
        kernels.append(kernel())
        status, latency, rss = run_process(cli_argv(item, trace_path),
                                           stdout_path)
        report = stdout_path.read_text(encoding="utf-8") or None
        error = None
        stderr = stdout_path.with_suffix(".err").read_text(encoding="utf-8")
        if status not in (0, 1, 2, 3) or "Traceback" in stderr:
            error, status = stderr[-2000:], None
        outcomes.append(Outcome(item, latency, status, report, error, rss))
        if traced:
            with open(trace_path, encoding="utf-8") as handle:
                child = json.load(handle)
            totals = tracing.add_totals(totals, child["totals"])
            spans.append({"argv": item.argv, "spans": child["spans"]})
    kernels.append(kernel())
    if not traced:
        return Pass(outcomes, kernels)
    return Pass(outcomes, kernels, totals, lambda: spans)


def timed_passes(run_pass, seconds: float) -> list[Pass]:
    """Passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        if time.perf_counter() - start >= seconds:
            return passes


def measure_setup(workload: str, items: list[Item],
                  probes: int) -> tuple[list[float], list[float]]:
    """`import walkergeo` plus parsing every manifest, each time in a fresh
    interpreter; the first probe warms the bytecode cache and is dropped.
    Returns (seconds, reference seconds) per probe."""
    path = OUT / f"setup-{workload}.txt"
    path.write_text("\0".join(item.text for item in items), encoding="utf-8")
    samples, kernels = [], []
    for i in range(probes + 1):
        if i:
            kernels.append(kernel())
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(path)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            samples.append(float(done.stdout))
    kernels.append(kernel())
    return samples, to_reference(samples, kernels)


def warm_up(workload: str, items: list[Item]) -> None:
    """Load lazy state before timing: a 4-sample analysis of up to ten
    in-process manifests, or one CLI process for cli-corpus."""
    if workload == "cli-corpus":
        run_process(cli_argv(items[0], None), OUT / "cli-child.out")
        return
    for item in items[:10]:
        analyze_in_process(item.manifest, samples=4)


# --- statistics and reporting ------------------------------------------------

def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "walkergeo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size; skips the digest check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "walkergeo" / "__init__.py").is_file():
        sys.stderr.write(f"walkergeo sources not found under {SRC}\n")
        return 2

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    from walkergeo import parse_manifest

    refs = load_spec()["references"]
    workload, seed = args.workload, args.seed
    items = build_items(workload, seed, args.tiny)
    check_digest = seed == DEFAULT_SEED and not args.tiny
    if workload != "cli-corpus":
        for item in items:
            item.manifest = parse_manifest(item.text)

    result_file = OUT / f"{workload}-seed{seed}-trace{args.trace}.json"
    env = environment(workload, seed, args.seconds, args.trace)
    # One CPU for this process and every child it starts, so that the
    # calibration kernel runs where the timed work runs.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    warm_up(workload, items)

    if workload == "cli-corpus":
        def run_pass(traced=False):
            return cli_pass(items, traced)
    else:
        def run_pass(tracer=None):
            return in_process_pass(items, tracer)

    stats: dict[str, dict] = {}
    extra: dict = {}
    if args.trace:
        baseline = run_pass()
        if workload == "cli-corpus":
            passes = timed_passes(lambda: run_pass(True), args.seconds)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes = timed_passes(lambda: run_pass(tracer), args.seconds)
            finally:
                tracer.uninstall()
        per_pass = [tracing.metrics(p.totals) for p in passes]
        for name in tracing.METRIC_UNITS:
            stats[name] = describe([m[name] for m in per_pass])
        stats["trace.overhead_ratio"] = describe(
            [p.wall / baseline.wall for p in passes])
        units = {**tracing.METRIC_UNITS, "trace.overhead_ratio": "ratio"}
        repeat = [all(m[c] == per_pass[0][c] for m in per_pass)
                  for c in tracing.COUNTERS]
        extra["counts_repeat_within_run"] = (
            all(repeat) if len(per_pass) > 1 else None)
        extra["counts"] = {c: per_pass[0][c] for c in tracing.COUNTERS}
        extra["untraced_pass"] = {"wall_s": baseline.wall,
                                  "raw_wall_s": baseline.raw_wall}
        spans_file = OUT / f"{workload}-seed{seed}-spans.json"
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed,
                       "spans": passes[0].spans()}, handle)
        extra["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        probes = TINY["setup_probes"] if args.tiny else SETUP_PROBES
        setup, setup_ref = measure_setup(workload, items, probes)
        passes = timed_passes(run_pass, args.seconds)
        latencies = [o.reference for p in passes for o in p.outcomes]
        if workload == "cli-corpus":
            rss = max(o.rss_mb for p in passes for o in p.outcomes)
        else:
            import resource
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats["setup_s"] = describe(setup_ref)
        stats["wall_s"] = describe([p.wall for p in passes])
        stats["analysis_s.p50"] = describe(latencies)
        stats["peak_rss_mb"] = describe([rss])
        units = E2E_UNITS
        extra["raw_seconds"] = {
            "setup_s": describe(setup),
            "wall_s": describe([p.raw_wall for p in passes]),
            "analysis_s.p50": describe(
                [o.latency for p in passes for o in p.outcomes]),
        }

    outcomes = [o for p in passes for o in p.outcomes]
    failures = []
    for o in outcomes:
        reason = check(o, refs, workload, check_digest)
        if reason is not None:
            failures.append({"analysis": o.item.name, "reason": reason})
    attempted, failed = len(outcomes), len(failures)

    metrics = {name: {"value": stats[name]["median"], "unit": units[name]}
               for name in units}
    record = {
        "environment": env,
        "metrics": {name: {**stats[name], "unit": units[name]}
                    for name in units},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "passes": [{"wall_s": p.wall, "raw_wall_s": p.raw_wall,
                    "kernel_s": p.kernels,
                    "raw_latencies_s": [[o.item.name, o.latency]
                                        for o in p.outcomes]}
                   for p in passes],
        **extra,
    }
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"workload {workload}  seed {seed}  trace {args.trace}  "
          f"passes {len(passes)}  result {result_file.relative_to(ROOT)}")
    for name in units:
        s = stats[name]
        print(f"  {name:<36} {s['median']:>12.6g} {units[name]:<8}"
              f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"  {'failed_frac':<36} {failed / attempted:>12.6g} fraction"
          f" ({failed} of {attempted})")
    for failure in failures[:10]:
        print(f"  FAILED {failure['analysis']}: {failure['reason']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
