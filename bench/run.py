"""Seeded end-to-end benchmark of adaptls: set-up (train) -> run -> eval.

    python3 bench/run.py --workload dates-raw --seed 1 --seconds 30 --trace 0

The dataset of the workload is generated from the seed before timing starts.
Then whole repetitions of set-up, `adaptls run` and `adaptls eval` follow
until `--seconds` have passed (at least three).  With `--trace 0` each
command runs as its own process, as a user runs it, and the end-to-end
metrics are medians over repetitions.  With `--trace 1` the same commands
run in this process through `adaptls.cli.main`, alternating untraced and
traced repetitions, and the per-layer metrics are medians over the traced
ones; `trace.overhead_s` is the traced minus the untraced wall time of a
round, as the mean of its medians over the two orders.

Every repetition's outputs are checked (see checks.py) and compared byte for
byte with the first repetition's.  An operation is one command or one
timeline checked; a failed command, a timeline failing a check, or an output
differing between repetitions counts as one failed operation.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy is imported by the traced run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_REPETITIONS = 3
COMMAND_TIMEOUT_S = 100

sys.path[:0] = [str(BENCH)]
import checks  # noqa: E402
import gen  # noqa: E402


@dataclass(frozen=True)
class Workload:
    run_args: tuple[str, ...]
    # A date-ranked method needs regressors, so its set-up is `adaptls train`
    # (otherwise load + annotate), and its summaries must belong to their date.
    date_ranked: bool


WORKLOADS = {
    "dates-raw": Workload(("--method", "adprm-d", "--constraint", "adaptive"), True),
    "events-clustered": Workload(("--method", "adprm-e", "--constraint", "adaptive"), False),
    "datewise-opt": Workload(
        ("--method", "datewise", "--constraint", "base", "--summarizer", "opt"), True
    ),
}


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.dataset = self.work / "dataset"
        self.regressors = self.work / "regressors"
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.first_snapshot = None
        shutil.rmtree(self.work, ignore_errors=True)
        truth = gen.generate(name, seed, self.work)
        self.allowed = {t: checks.sentence_dates(v) for t, v in truth["topics"].items()}
        self.references = checks.read_references(self.dataset)

    def commands(self) -> list[tuple[str, list[str]]]:
        rel = lambda path: str(path.relative_to(ROOT))  # noqa: E731
        cli = [sys.executable, "-m", "adaptls.cli"]
        if self.workload.date_ranked:
            setup = cli + ["train", rel(self.dataset), "--out", rel(self.regressors)]
        else:
            setup = [sys.executable, rel(BENCH / "load_annotate.py"), rel(self.dataset)]
        run = cli + ["run", "--dataset-dir", rel(self.dataset), "--output-dir", rel(self.out),
                     "--jobs", "1", *self.workload.run_args]
        if self.workload.date_ranked:
            run += ["--regressors", rel(self.regressors)]
        evaluate = cli + ["eval", "--pred", rel(self.out), "--dataset", rel(self.dataset)]
        return [("setup", setup), ("run", run), ("eval", evaluate)]

    def clean(self) -> None:
        for path in (self.regressors, self.out):
            shutil.rmtree(path, ignore_errors=True)

    def spawn(self, argv: list[str]) -> tuple[float, float, bool]:
        """Run one command as a process: (wall seconds, peak RSS in MB, success)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
        with open(self.work / "command.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode == 0

    def check(self, ok: dict[str, bool]) -> dict:
        """Check one repetition's outputs; count its operations and failures."""
        result = checks.check_run(self.out, self.references, self.allowed, self.workload.date_ranked)
        failed_ops = {step for step, success in ok.items() if not success}
        failed_ops |= {key for key, problems in result["problems"].items() if problems}
        snapshot = checks.snapshot(self.regressors, self.out)
        if self.first_snapshot is None:
            self.first_snapshot = snapshot
        timeline_files = {f"out/{topic}__{ref}.json": (topic, ref) for topic, ref in self.references}
        for name in checks.differing(self.first_snapshot, snapshot):
            if name in timeline_files:
                failed_ops.add(timeline_files[name])
            elif name.startswith("regressors/"):
                failed_ops.add("setup")
            elif name.startswith("out/report."):
                failed_ops.add("eval")
            else:
                failed_ops.add("run")
        self.attempted += len(ok) + len(self.references)
        self.failed += len(failed_ops)
        for op in sorted(failed_ops, key=str):
            print(f"failed: {op} {result['problems'].get(op, [])[:3]}", file=sys.stderr)
        return result

    def another(self, start: float, walls: list[float]) -> bool:
        """Whether one more repetition, as long as the median so far, fits the window."""
        if len(walls) < MIN_REPETITIONS:
            return True
        return time.perf_counter() - start + statistics.median(walls) <= self.seconds

    def measure(self) -> dict[str, float]:
        samples = defaultdict(list)
        start = time.perf_counter()
        rounds = []
        while self.another(start, rounds):
            round_start = time.perf_counter()
            self.clean()
            times, ok, peak = {}, {}, 0.0
            for step, argv in self.commands():
                times[step], rss, ok[step] = self.spawn(argv)
                peak = max(peak, rss)
            result = self.check(ok)
            for step in ("setup", "run", "eval"):
                samples[f"{step}_s"].append(times[step])
            samples["pipeline_s"].append(sum(times.values()))
            samples["peak_rss_mb"].append(peak)
            samples["date_f1"].append(result["date_f1"] or 0.0)
            samples["ar1_f"].append(result["ar1_f"] or 0.0)
            rounds.append(time.perf_counter() - round_start)
        return {name: statistics.median(values) for name, values in samples.items()}

    def pipeline_in_process(self) -> float:
        """One repetition through adaptls.cli.main in this process; wall seconds."""
        from adaptls import cli

        import load_annotate

        self.clean()
        ok = {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for step, argv in self.commands():
                try:
                    if argv[1:3] == ["-m", "adaptls.cli"]:
                        ok[step] = cli.main(argv[3:]) == 0
                    else:  # bench/load_annotate.py DATASET
                        load_annotate.setup(argv[-1])
                        ok[step] = True
                except (Exception, SystemExit):  # a crash is a failed command, as in a process
                    ok[step] = False
        wall = time.perf_counter() - start
        self.check(ok)
        return wall

    def trace(self) -> dict[str, float]:
        sys.path[:0] = [str(SRC)]
        os.chdir(ROOT)
        import tracing

        plain, traced, layers, rounds = [], [], [], []
        start = time.perf_counter()
        while self.another(start, rounds):
            round_start = time.perf_counter()
            # Alternate which side goes first so drift hits both equally.
            odd = len(rounds) % 2 == 1
            for with_trace in (odd, not odd):
                if not with_trace:
                    plain.append(self.pipeline_in_process())
                    continue
                with tracing.Tracer() as tracer:
                    wall = self.pipeline_in_process()
                traced.append(wall)
                layers.append(tracer.metrics(wall))
            rounds.append(time.perf_counter() - round_start)
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        # Paired within rounds, so drift between rounds cancels; averaged over
        # the two orders, so a penalty for running second cancels too.
        diffs = [t - p for t, p in zip(traced, plain)]
        metrics["trace.overhead_s"] = (
            statistics.median(diffs[0::2]) + statistics.median(diffs[1::2])
        ) / 2
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="adaptls end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "adaptls" / "cli.py").is_file():
        print(f"adaptls sources not found under {SRC}", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        metrics = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != metrics.keys():
        names = [m["name"] for m in declared]
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {names}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
