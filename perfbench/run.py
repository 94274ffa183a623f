"""Run one tsqa benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bigstore [--seed 7] [--seconds 55] [--trace 0]

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when the
benchmark could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import refclock
import tracing  # imports neither numpy nor tsqa

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS / OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPS = 3  # at least; one set-up precedes each timed section
MIN_REPS = 2  # so that every run compares two timed sections of one seed


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="corpus seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail_to_start(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def summarize(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(samples)
    if n == 1:
        return "1 sample"
    text = f"median of {n}"
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return f"{text}; p{pct:g} {tracing.percentile(ordered, pct):.6g}"
    return f"{text}; no percentile has ten samples beyond it (max {ordered[-1]:.6g})"


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tsqa").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Run:
    """Counts, samples and failures of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.reps = []  # workloads.Rep, untraced
        self.traced_reps = []
        self.layer_samples: list[dict] = []
        self.sections: list[list[refclock.Stage]] = []  # untraced timed sections
        self.traced_sections: list[list[refclock.Stage]] = []
        self.n_eval = 0  # records each `tsqa eval` scores

    def fail(self, what: str, records: int) -> None:
        self.failures.append(what)
        self.attempted += records
        self.failed += records
        print(f"FAILED: {what}", file=sys.stderr)


def _guarded(run: Run, what: str, records: int, fn, *args, **kwargs):
    """Call fn; on an exception record a failure and return None."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - the run must still report
        run.fail(f"{what} raised:\n{traceback.format_exc()}", records)
        return None


def _measure(args, w, seed: int, work_dir: Path, run: Run, tracer) -> None:
    """Alternate set-up and timed sections until `args.seconds` are used.

    Set-ups are spread over the run, not done in a block at its start, so
    that their median averages over the host's slow and fast stretches."""
    import workloads

    def setup():
        t0 = time.perf_counter()
        prep = _guarded(run, "set-up", 1, workloads.setup, w, seed, work_dir)
        if prep is not None:
            run.setup_s.append(time.perf_counter() - t0)
            run.n_eval = prep.n_eval
        return prep

    def timed(prep, tracer=None):
        planned = workloads.planned_records(w, prep)
        clock = refclock.Clock(tracer.span, sample=False) if tracer else refclock.Clock()
        rep = _guarded(run, "timed section", planned, workloads.run_timed, w, prep, work_dir, clock)
        if rep is not None:
            run.attempted += planned
            run.failed += rep.skipped
            if tracer:
                run.traced_reps.append(rep)
                run.traced_sections.append(clock.stages)
            else:
                run.reps.append(rep)
                run.sections.append(clock.stages)
        return rep

    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        prep = setup()
        if prep is None:
            return
        if timed(prep) is None:
            return
        if tracer is not None:
            tracer.begin_run(f"{w.name}:{seed}:{len(run.traced_reps)}")
            tracer.install()
            try:
                rep = timed(prep, tracer)
            finally:
                tracer.uninstall()
            if rep is None:
                return
            run.layer_samples.append(tracer.layer_metrics())
        step = time.perf_counter() - step_start
        done = len(run.reps) >= (1 if tracer is not None else MIN_REPS)
        if done and time.perf_counter() - start + step > args.seconds:
            break
    while len(run.setup_s) < SETUP_REPS and setup() is not None:
        pass


def _gates(w, seed: int, run: Run, key: str) -> None:
    import workloads

    reps = run.reps + run.traced_reps
    if not reps:
        return
    scores = {(r.test_em, r.test_f1, r.eval_em) for r in reps}
    if len(scores) > 1:
        run.failures.append(f"test EM/F1 or tsqa eval EM differ between timed sections of seed {seed}: {sorted(scores)}")
    em, f1 = reps[0].test_em, reps[0].test_f1
    if em < w.min_test_em:
        run.failures.append(f"test EM {em:.4f} below the workload's floor {w.min_test_em}")
    mismatch = workloads.Fingerprints.load(OUT / "fingerprints.json").check(key, em, f1)
    if mismatch:
        run.failures.append(mismatch)


def _timings(run: Run, length) -> dict[str, list[float]]:
    """The timed metrics, with `length(stage)` the time of a stage: the
    length of each timed section, and the work over the time of all stages
    of a kind in the run."""

    def total(name: str) -> float:
        return sum(length(s) for section in run.sections for s in section if s.name == name)

    trainings = [r.training for r in run.reps]
    return {
        "wall": [sum(length(s) for s in section) for section in run.sections],
        "sft": [sum(t.sft_steps for t in trainings) / total("stage.sft")],
        "ppo": [sum(t.rollouts for t in trainings) / total("stage.ppo")],
        "eval": [run.n_eval * len(run.sections) / total("stage.cli_eval")],
    }


def _end_to_end(run: Run) -> dict[str, list[float]]:
    reps = run.reps
    if not reps:
        return {}
    ref = _timings(run, lambda stage: stage.ref_s)
    return {
        "setup_s": run.setup_s,
        "wall_ref_s": ref["wall"],
        "sft_record_steps_per_ref_s": ref["sft"],
        "ppo_rollouts_per_ref_s": ref["ppo"],
        "eval_records_per_ref_s": ref["eval"],
        "test_em": [reps[0].test_em],
        "test_f1": [reps[0].test_f1],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def _in_seconds(run: Run) -> dict[str, list[float]]:
    """The timed metrics in plain seconds, for reading beside the reference
    seconds; they follow the host's speed of the moment."""
    plain = _timings(run, lambda stage: stage.seconds)
    return {
        "wall_s": plain["wall"],
        "sft_record_steps_per_s": plain["sft"],
        "ppo_rollouts_per_s": plain["ppo"],
        "eval_records_per_s": plain["eval"],
    }


def _per_layer(run: Run) -> dict[str, list[float]]:
    if not run.layer_samples:
        return {}
    samples = {k: [s[k] for s in run.layer_samples] for k in run.layer_samples[0]}
    traced = statistics.median(sum(s.seconds for s in section) for section in run.traced_sections)
    untraced = statistics.median(sum(s.seconds for s in section) for section in run.sections)
    samples["trace.overhead_s"] = [traced - untraced]
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "tsqa" / "__init__.py").is_file():
        return _fail_to_start(f"no tsqa package under {SRC.relative_to(ROOT)}/; run from a checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail_to_start(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import numpy
    import tsqa

    if Path(tsqa.__file__).resolve().parent != (SRC / "tsqa").resolve():
        return _fail_to_start(f"imported tsqa from {tsqa.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail_to_start(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "source": _source_hash(),
    }
    print(f"perfbench workload={w.name} seed={seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))

    run = Run()
    tracer = tracing.Tracer() if args.trace else None
    work_dir = OUT / "work" / f"{w.name}-{seed}-{os.getpid()}"
    try:
        _measure(args, w, seed, work_dir, run, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # The fingerprint key names the package source and the workload's shape.
    shape = hashlib.sha256(repr(w).encode()).hexdigest()[:12]
    _gates(w, seed, run, f"{w.name}|{seed}|{env['source']}|{shape}")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    samples = _per_layer(run) if args.trace else _end_to_end(run)
    if samples and not run.failures:
        missing = [m["name"] for m in listed if m["name"] not in samples]
        if missing:
            run.failures.append(f"metrics not produced: {missing}")
    result = {}
    for m in listed:
        values = samples.get(m["name"])
        if values:
            value = statistics.median(values)
            result[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<7} ({summarize(values)})")
    seconds = {} if args.trace or not run.reps else _in_seconds(run)
    for name, values in seconds.items():
        print(f"  {name:<30} {statistics.median(values):>14.6g} {'1/s' if '_per_' in name else 's':<7} "
              f"({summarize(values)}; plain seconds, not a metric)")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_share':<30} {share:>14.6g} ratio  ({run.failed} of {run.attempted} records)")
    if tracer is not None:
        print(f"  absent names: {', '.join(tracer.absent) if tracer.absent else 'none'}")
        for err in tracer.obs.errors[:10]:
            print(f"  observer error: {err}", file=sys.stderr)
        tracer.write(
            OUT / "traces" / f"{w.name}-seed{seed}.jsonl",
            {"workload": w.name, "seed": seed, "env": env, "calls": tracer.call_table()},
        )
    for failure in run.failures:
        print(f"  check failed: {failure.splitlines()[0]}")

    correct = not run.failures
    record = {"workload": w.name, "seed": seed, "trace": args.trace, "env": env,
              "samples": samples, "seconds": seconds,
              "sections": [[[s.name, s.seconds, s.pace] for s in section] for section in run.sections],
              "failed_share": share, "failures": run.failures}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{w.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
