"""Benchmark of `gusbox estimate`, end to end and per layer.

    python3 perfbench/run.py --workload tpch-join --seed 3 --seconds 50 --trace 0

Load model: closed loop with one client. One `gusbox estimate` process runs
at a time and the next starts after the previous one exits, which is how the
CLI is used. Each run:

1. generates the workload's CSVs and plan document from the data seed, and
   repeats that set-up between the timed processes for about a tenth of the
   run (``setup_s`` is the median), checking the bytes repeat;
2. times `gusbox estimate` processes from spawn to exit for about
   ``--seconds`` seconds (``estimate_s`` and ``peak_rss_mb`` are medians);
   with ``--trace 1`` every process after the first is the traced run of
   ``spans.py``, and the per-layer metrics come from the traced process with
   the median in-process total;
3. checks every report (exit 0, byte-identical across processes, estimate and
   variance equal to the values in ``reference.json``, recorded from the
   program at commit 687c116), and once per run, outside every timed interval, checks the
   sampled y terms against ``gusbox.oracle.exact_y_terms`` and the estimate
   against an exactly rounded sum of the sample.

This process imports neither numpy nor gusbox: a child's peak RSS includes
that of the process that spawned it. Set-up and the once-per-run checks run
in ``worker.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people, with machine information and repeat counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The run seed stays fixed while ``--seed`` varies the data: with the run seed
# varying too, the rows that reach the estimator spread by 22% (interquartile
# range over medians) across seeds at star-12, which would swamp the timing.
RUN_SEED = 1
# reference.json holds data seeds 0 .. REFERENCE_SEEDS - 1; ``--seed`` is taken
# modulo this, so every run's estimate is compared with a recorded value
REFERENCE_SEEDS = 64
MIN_REPEATS = 3            # timed processes per run, at least
SETUP_MIN_REPEATS = 3
# share of the timed loop spent repeating the set-up: spread over the whole
# run, the set-up median sees the same host speed as the estimate median
SETUP_SHARE = 0.1
REL_TOL = 1e-9
RUN_DEADLINE_S = 170.0     # every child is killed by then


def _median_and_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class Run:
    """One benchmark run of one workload: set-up, timed processes, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = HERE / ".work" / f"{workload}-{seed}-trace{int(trace)}"
        # children may write bytecode whatever the caller's setting, so timed
        # processes load compiled modules the way an installed CLI does
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_report: bytes | None = None
        self.first_report_path: Path | None = None
        self.reference_ok = True
        self.setup_times: list[float] = []
        self.setup_digest: str | None = None
        self.worker: subprocess.Popen | None = None
        self.worker_timer: threading.Timer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    # -- worker process --------------------------------------------------------

    def start_worker(self) -> bool:
        """Start ``worker.py``; False if it rejects the workload."""
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed)],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.worker_timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                            self.worker.kill)
        self.worker_timer.start()
        return bool(self.worker.stdout.readline())

    def ask(self, request: dict):
        self.worker.stdin.write(json.dumps(request) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError(f"worker.py ended without answering {request['cmd']!r}")
        return json.loads(line)

    def stop_worker(self) -> None:
        if self.worker is None:
            return
        self.worker.stdin.close()
        try:
            self.worker.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.worker_timer.cancel()
        self.worker_timer.join()
        self.worker.stdout.close()

    # -- set-up ------------------------------------------------------------

    def setup(self, directory: Path) -> Path:
        """One set-up into ``directory``; returns the plan path."""
        answer = self.ask({"cmd": "setup", "dir": str(directory)})
        self.setup_times.append(answer["seconds"])
        self.setup_digest = self.setup_digest or answer["digest"]
        if answer["digest"] != self.setup_digest:
            self.check(False, "set-up wrote different bytes for the same seed")
        return Path(answer["plan"])

    # -- timed processes -----------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> tuple[float, float, int]:
        """Run one child to exit; return (wall seconds, peak RSS MB, exit code)."""
        with open(self.work / f"{tag}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def estimate(self, plan: Path, traced: bool, index: int) -> tuple[float, float, Path]:
        tag = f"{'traced' if traced else 'plain'}-{index}"
        out = self.work / f"{tag}.report.json"
        spans = self.work / f"{tag}.spans.json"
        cli = ["estimate", str(plan), "--seed", str(RUN_SEED), "--out", str(out)]
        argv = ([str(HERE / "spans.py"), "--spans", str(spans), *cli] if traced
                else ["-m", "gusbox.cli", *cli])
        wall, rss, code = self.spawn(argv, tag)
        self.check_report(out, code, tag)
        return wall, rss, spans

    def check_report(self, out: Path, code: int, tag: str) -> None:
        report = out.read_bytes() if code == 0 and out.is_file() else None
        if self.first_report is None and report is not None:
            self.first_report, self.first_report_path = report, out
            self.reference_ok = self.check_reference(json.loads(report))
        self.check(code == 0 and report == self.first_report and self.reference_ok,
                   f"{tag}: exit code {code}, or its report differs from the first "
                   "report or from the recorded reference")

    def check_reference(self, report: dict) -> bool:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        entry = ref["workloads"].get(self.workload, {}).get(str(self.seed))
        if ref["run_seed"] != RUN_SEED or entry is None:
            self.notes.append(f"reference: no value recorded for {self.workload}, "
                              f"data seed {self.seed}, run seed {RUN_SEED}")
            return False
        got = [report["estimate"], report["varianceHat"]]
        if all(abs(g - want) <= REL_TOL * abs(want) for g, want in zip(got, entry)):
            return True
        self.notes.append(f"reference: estimate, varianceHat {got} differ from {entry}")
        return False

    def timed_loop(self, plan: Path) -> dict[str, list]:
        """Closed loop: one process at a time for about ``seconds`` seconds,
        with set-up repeats in between."""
        samples: dict[str, list] = {"wall": [], "rss": [], "spans": []}
        unit_times: list[float] = []
        started = time.perf_counter()
        while (len(unit_times) < MIN_REPEATS
               or time.perf_counter() - started + statistics.median(unit_times)
               <= self.seconds):
            t0 = time.perf_counter()
            index = len(unit_times)
            if self.trace and index > 0:
                samples["spans"].append(self.estimate(plan, True, index)[2])
            else:
                wall, rss, _ = self.estimate(plan, False, index)
                samples["wall"].append(wall)
                samples["rss"].append(rss)
            while sum(self.setup_times) < SETUP_SHARE * (time.perf_counter() - started):
                self.setup(self.work / "setup")
            unit_times.append(time.perf_counter() - t0)
        while len(self.setup_times) < SETUP_MIN_REPEATS:
            self.setup(self.work / "setup")
        return samples

    # -- once-per-run checks -------------------------------------------------

    def check_sample(self, plan: Path) -> None:
        """y terms bit for bit against the oracle; estimate*a against fsum(f)."""
        if self.first_report_path is None:
            self.check(False, "no report to check against the oracle")
            return
        for ok, what in self.ask({"cmd": "check", "plan": str(plan), "run_seed": RUN_SEED,
                                  "report": str(self.first_report_path)}):
            self.check(ok, what)

    def layer_metrics(self, samples: dict) -> dict[str, float]:
        """Per-layer metrics of the traced process with the median in-process
        total."""
        from spans import layer_metrics

        runs, missing = [], set()
        for path in samples["spans"]:
            if not path.is_file():
                self.check(False, f"traced run wrote no spans file {path.name}")
                continue
            doc = json.loads(path.read_text(encoding="utf-8"))
            missing.update(doc["missing"])
            if doc["exit"] != 0:
                continue  # already counted as a failed process
            metrics = layer_metrics(doc["spans"], doc["wrapper_s"])
            total = metrics["cli.run_estimate_s"]
            self.check(abs(metrics["trace.self_sum_s"] - total) <= 1e-6 * max(total, 1.0),
                       f"{path.name}: span self times do not sum to the traced total")
            runs.append(metrics)
        self.notes.extend(f"not traced: {name} (no such attribute)" for name in sorted(missing))
        runs.sort(key=lambda m: m["cli.run_estimate_s"])
        return dict(runs[(len(runs) - 1) // 2]) if runs else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"seed; the data seed is this modulo {REFERENCE_SEEDS}")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gusbox" / "cli.py").is_file():
        print(f"error: no gusbox sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    data_seed = args.seed % REFERENCE_SEEDS

    run = Run(args.workload, data_seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        if not run.start_worker():
            return 2
        plan = run.setup(run.work / "data")
        # untimed: compile gusbox's bytecode so no timed process pays for it
        run.spawn(["-c", "import gusbox.cli"], "warmup")
        samples = run.timed_loop(plan)
        run.check_sample(plan)
        layers = run.layer_metrics(samples) if run.trace else {}
        machine = run.ask({"cmd": "machine"})
    finally:
        run.stop_worker()
        shutil.rmtree(run.work, ignore_errors=True)

    est, est_q1, est_q3 = _median_and_quartiles(samples["wall"])
    rss = statistics.median(samples["rss"])
    setup = statistics.median(run.setup_times)
    values = {"estimate_s": est, "peak_rss_mb": rss, "setup_s": setup, **layers}
    section = "per_layer" if run.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, data seed {data_seed}, run seed {RUN_SEED}, "
          f"trace {args.trace}")
    print(f"estimate_s   {est:.4f} s   median of {len(samples['wall'])} untraced processes "
          f"(quartiles {est_q1:.4f} .. {est_q3:.4f})")
    print("  processes, s: " + " ".join(f"{t:.3f}" for t in samples["wall"]))
    print(f"peak_rss_mb  {rss:.1f} MB  median of {len(samples['rss'])} untraced processes "
          f"(this process: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB)")
    print(f"setup_s      {setup:.4f} s   median of {len(run.setup_times)} set-ups")
    print(f"error_rate   {run.failed / run.attempted:.4f} share "
          f"({run.failed} of {run.attempted} checked processes and checks failed)")
    if run.trace:
        print(f"per-layer metrics: traced process with the median total of "
              f"{len(samples['spans'])}")
    for name, value in sorted(layers.items()):
        print(f"  {name:<52} {value:.6g}")
    for note in run.notes:
        print(note)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
