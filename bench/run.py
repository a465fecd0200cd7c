"""Benchmark of the normdesign CLI: end-to-end timings, or per-layer traces.

    python3 bench/run.py --workload sweep|theta|large_norm|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the code under test is always ``src/`` beside this
directory, never an installed copy. A run repeats its workload's pass (see
workloads.py), each pass in a fresh interpreter, until --seconds have gone
by, and checks every output after its pass. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes of the same calls and reports per-layer metrics. The last
line of stdout is one JSON object; the lines before it are the readable
report. Exits 1 if any call or check failed, 2 if there is no code to test.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from calibration import CAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 9  # least number of set-ups timed per run for setup_s
PARALLEL_RMAX = 60  # sweep size for the untimed --parallel identity check
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NORMDESIGN_CACHE", None)
    # Users run an installed package with its bytecode cached; let the
    # children write and reuse it (inside src/, which git ignores there).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup() -> float:
    """Seconds from launching a fresh interpreter until it has imported
    normdesign.cli. The child reads the end time itself: perf_counter is the
    system-wide monotonic clock, and the parent's wait polls too coarsely."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import normdesign.cli, time; print(time.perf_counter())"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(proc.stdout) - start


class PassError(Exception):
    pass


def run_pass(plan, outdir: Path, trace: bool) -> dict:
    outdir.mkdir()
    spec = {
        "src": str(SRC),
        "outdir": str(outdir),
        "argvs": [list(inv.argv) for inv in plan],
        "trace": trace,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise PassError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["stderr"] = proc.stderr
    return result


class Tally:
    """Attempted and failed items of one run, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[: 10 - len(self.problems)]


def check_pass(workload, plan, result: dict, outdir: Path, rng, tally: Tally) -> None:
    """Check every call of a pass: exit code 0, no exception, output correct."""
    failed_before = tally.failed
    for i, (inv, call) in enumerate(zip(plan, result["calls"])):
        problems = []
        if call["error"] is not None:
            problems.append(f"{' '.join(inv.argv)}: raised\n{call['error']}")
        elif call["rc"] != 0:
            problems.append(f"{' '.join(inv.argv)}: exit code {call['rc']}")
        else:
            try:
                text = (outdir / f"{i}.out").read_text()
                problems = workload.check(inv, text, rng)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{' '.join(inv.argv)}: unreadable output ({exc!r})")
        tally.add(problems)
    if tally.failed > failed_before and result["stderr"]:
        print(result["stderr"][-2000:], file=sys.stderr)


def check_traced_identity(plan, plain: Path, traced: Path, result: dict, tally: Tally) -> None:
    """Traced calls must write the bytes and exit codes the untraced ones did."""
    for i, (inv, call) in enumerate(zip(plan, result["calls"])):
        same = call["rc"] == 0 and call["error"] is None
        try:
            same = same and (traced / f"{i}.out").read_bytes() == (plain / f"{i}.out").read_bytes()
        except OSError:
            same = False
        tally.add([] if same else [f"{' '.join(inv.argv)}: traced output differs"])


def check_parallel_identity(tmp: Path, tally: Tally) -> None:
    """sweep output must be byte-identical at --parallel 1 and 2 (untimed)."""
    outputs = []
    for workers in (1, 2):
        out = tmp / f"parallel{workers}.json"
        cmd = [sys.executable, "-m", "normdesign.cli", "sweep", "--rmax", str(PARALLEL_RMAX)]
        cmd += ["--parallel", str(workers), "--output", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
        outputs.append(out.read_bytes() if proc.returncode == 0 and out.exists() else None)
    same = outputs[0] is not None and outputs[0] == outputs[1]
    tally.add([] if same else ["sweep output differs between --parallel 1 and 2"])


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    plan = workload.plan(seed)
    tally = Tally()
    if not trace:
        time_setup()  # untimed: fills the bytecode cache
    # Per call, its seconds in each pass: as measured, and scaled to the
    # calibrated host speed (see calibration.py).
    raw: list[list[float]] = [[] for _ in plan]
    scaled: list[list[float]] = [[] for _ in plan]
    # Set-up seconds, each with the scale of the pass just before it.
    setup: list[tuple[float, float]] = []
    rss, snapshots, overheads = [], [], []
    normdesign_file = None
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        started = time.perf_counter()
        k = 0
        # Whole passes, with their checks, until --seconds have gone by.
        while k == 0 or time.perf_counter() - started < seconds:
            rng = random.Random(f"check-{workload.name}-{seed}-{k}")
            plain = tmp / f"p{k}"
            try:
                result = run_pass(plan, plain, trace=False)
                check_pass(workload, plan, result, plain, rng, tally)
                normdesign_file = result["normdesign_file"]
                plain_s = [c["seconds"] for c in result["calls"]]
                if trace:
                    traced = tmp / f"t{k}"
                    tresult = run_pass(plan, traced, trace=True)
                    check_traced_identity(plan, plain, traced, tresult, tally)
                    traced_s = sum(c["seconds"] for c in tresult["calls"])
                    overheads.append(traced_s - sum(plain_s))
                    snapshots.append(tresult["trace"])
                    shutil.rmtree(traced)
                else:
                    scale = CAL_REF_S / result["calibration_s"]
                    for i, s in enumerate(plain_s):
                        raw[i].append(s)
                        scaled[i].append(s * scale)
                    rss.append(result["maxrss_kb"] / 1024)
                    # Set-ups are spread over the run, so their median sees
                    # the same machine as the passes.
                    setup.append((time_setup(), scale))
            except PassError as exc:
                tally.add([f"pass {k}: {exc}"])
                break
            shutil.rmtree(plain)
            k += 1
        while rss and len(setup) < SETUP_SPAWNS:
            setup.append((time_setup(), setup[-1][1]))
        if workload.name == "sweep":
            check_parallel_identity(tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "workload": workload.name,
        "seed": seed,
        "passes": k,
        "calls_per_pass": len(plan),
        "normdesign_file": normdesign_file,
        "commit": git_commit(),
        "metrics": {},
    }
    values, units = {}, {}
    if trace and snapshots:
        values = tracing.layer_metrics(snapshots, statistics.median(overheads))
        units = dict(tracing.LAYER_METRICS)
        report["layers"] = busy_and_idle(workload.name, snapshots, tally)
    elif rss:
        # Each call's latency is its median over the run's passes: the
        # host's speed drifts by tens of percent within seconds, and
        # per-call medians repeat between runs far better than bests or
        # raw percentiles do (see README.md).
        values = end_to_end(plan, scaled, [t * scale for t, scale in setup], rss)
        measured = end_to_end(plan, raw, [t for t, _ in setup], rss)
        del measured["peak_rss_mb"]
        report["measured"] = measured
        units = dict(END_TO_END)
        report["samples"] = {
            "setup_s": len(setup),
            "work_per_s": f"{len(plan)} calls, median of {k}",
            "call_p50_ms": f"{len(plan)} calls, median of {k}",
            "call_p90_ms": f"{len(plan)} calls, median of {k}",
            "peak_rss_mb": len(rss),
        }
    report["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    report.update(
        correct=tally.failed == 0 and bool(values),
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
    )
    return report


def end_to_end(plan, per_call: list[list[float]], setup: list[float], rss: list[float]) -> dict:
    latency = [statistics.median(samples) for samples in per_call]
    return {
        "setup_s": statistics.median(setup),
        "work_per_s": sum(inv.work for inv in plan) / sum(latency),
        "call_p50_ms": 1000 * percentile(latency, 50),
        "call_p90_ms": 1000 * percentile(latency, 90),
        "peak_rss_mb": statistics.median(rss),
    }


def busy_and_idle(workload: str, snapshots: list[dict], tally: Tally) -> dict:
    """Fail busy layers with zero calls; flag idle layers above 1% of the time."""
    spans = snapshots[0]["spans"]
    total = sum(s["spans"]["cli.run"]["total_s"] for s in snapshots) or 1.0
    flagged = []
    for row in tracing.PREDICTIONS:
        for layer in row.layers:
            if workload in row.busy:
                calls = spans.get(layer, {}).get("calls", 0)
                tally.add([] if calls else [f"{layer} recorded no calls on {workload}"])
            if workload in row.idle:
                share = sum(s["spans"].get(layer, {}).get("total_s", 0.0) for s in snapshots) / total
                if share >= 0.01:
                    flagged.append(f"{layer} ({share:.1%} of traced time)")
    top = sorted(
        ((name, sum(s["spans"][name]["self_s"] for s in snapshots) / total) for name in spans),
        key=lambda item: -item[1],
    )
    return {"dominant": top[:5], "idle_but_busy": flagged}


def print_report(report: dict, seconds: float, trace: bool) -> None:
    where = report["normdesign_file"]
    commit = report["commit"] or "unknown (not a git checkout)"
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  code: {where}  commit: {commit}")
    work_unit = WORKLOADS[report["workload"]].work_unit
    print(f"  passes: {report['passes']} of {report['calls_per_pass']} calls; work item: {work_unit}")
    for name, metric in report["metrics"].items():
        samples = report.get("samples", {}).get(name)
        n = f"  (n={samples})" if samples is not None else ""
        measured = report.get("measured", {}).get(name)
        m = f"  measured {measured:.6g}" if measured is not None else ""
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{m}{n}")
    if trace and "layers" in report:
        dominant = ", ".join(f"{name} {share:.0%}" for name, share in report["layers"]["dominant"])
        print(f"  dominant self time: {dominant}")
        for item in report["layers"]["idle_but_busy"]:
            print(f"  expected ~0 here but busy: {item}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  fail_frac {frac:g} ({report['failed']} of {report['attempted']} calls and checks)")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(report, args.seconds, bool(args.trace))
        reports.append(report)
    line = {
        r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for r in reports
    }
    print(json.dumps(line[names[0]] if len(names) == 1 else line))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    if not (SRC / "normdesign" / "__init__.py").is_file():
        print(f"error: no normdesign source at {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("NORMDESIGN_CACHE", None)
    sys.path.insert(0, str(SRC))
    import normdesign

    if not Path(normdesign.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: normdesign imported from {normdesign.__file__}", file=sys.stderr)
        sys.exit(2)
    from workloads import WORKLOADS

    sys.exit(main())
