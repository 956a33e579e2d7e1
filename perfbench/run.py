"""Benchmark of the agband command line, driven as a user drives it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each request is a fresh interpreter running
the CLI from `src/`: sequential, one client, closed loop.  The workload
(see workloads.py) builds its inputs from the seed and is set up five
times; then whole passes over its fixed request list run for as close to
S seconds as whole passes allow, at least one pass.  Every output is checked
with the benchmark's own code.

--trace 0 reports the end-to-end metrics: wall_s, the mean time of a pass
(the sum of its requests' times, each from spawn to exit); cli_floor_ms,
the least time of `build g`, the fixed cost of any invocation; peak_rss_mb, the largest child max-RSS; and
setup_s, the median of the set-ups.  The median time of each request kind
is reported too, in the readable report only.  --trace 1 alternates plain and
traced passes; a traced request runs under tracer.py, which spans every
public agband function, and the spans give the per-layer metrics (see
layers.py).  On `paper` a traced run also times each claim on its own with
`verify-paper --only CLAIM`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it are a readable
report, also written with machine details to
.bench_build/perfbench/results/.  Exits 2 without a result when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the `agband` console script runs
BOOT = "import sys; sys.argv[0] = 'agband'; from agband.cli import main; main()"
SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class OutOfTime(Exception):
    pass


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def execute(self, req: workloads.Request, traced: bool = False,
                rid: str = "") -> dict:
        """Run one request in a fresh process, time it, check its output."""
        timeout = min(req.timeout, self.deadline - time.perf_counter())
        if timeout < 5:
            raise OutOfTime
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        spans_path = self.work / "spans.json"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                       rid, repr(start), "--", *req.argv]
            else:
                cmd = [sys.executable, "-c", BOOT, *req.argv]
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.work)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        result = {"kind": req.kind, "seconds": seconds,
                  "rss_mb": usage.ru_maxrss / 1024, "problem": None}
        if killed.is_set():
            result["problem"] = f"timed out after {timeout:.0f} s"
            return result
        try:
            req.check(code, out_path.read_text("utf-8"), err_path.read_text("utf-8"))
        except workloads.CheckFailed as e:
            result["problem"] = str(e)
        except Exception as e:  # noqa: BLE001 - malformed output fails the check
            result["problem"] = f"{type(e).__name__}: {e}"
        if traced:
            if spans_path.exists():
                doc = json.loads(spans_path.read_text("utf-8"))
                result["sums"] = layers.request_sums(doc)
                spans_path.unlink()
            elif result["problem"] is None:
                result["problem"] = "the tracer wrote no spans"
        return result

    def run_pass(self, requests, traced: bool, tag: str) -> list[dict]:
        return [self.execute(req, traced, f"{tag}-{k}")
                for k, req in enumerate(requests)]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "agband").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu or "unknown",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def median_of(values) -> dict:
    values = list(values)
    return {"value": statistics.median(values), "samples": len(values)}


def mean_of(values) -> dict:
    values = list(values)
    return {"value": statistics.fmean(values), "samples": len(values)}


def end_to_end(setups, passes) -> dict:
    """On a host whose CPU speed flips between two levels every few
    seconds, with a mix that drifts over minutes, a median of a few samples
    jumps between the levels.  So the pass time is a mean, which moves
    smoothly with the mix, and the floor, sampled often enough to meet the
    fast level in every run, is the least `build g` time."""
    done = [r for p in passes for r in p]
    floor = [r["seconds"] for r in done if r["kind"] == "floor"]
    return {
        "setup_s": {**median_of(setups), "unit": "s"},
        "wall_s": {**mean_of(sum(r["seconds"] for r in p) for p in passes),
                   "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in done),
                        "samples": len(done), "unit": "MB"},
        "cli_floor_ms": {"value": min(floor) * 1e3, "samples": len(floor),
                         "unit": "ms"},
    }


def per_kind(results) -> dict:
    """The median time of each request kind, under its metric name."""
    out = {}
    for kind in dict.fromkeys(r["kind"] for r in results):
        if kind == "floor":  # reported as cli_floor_ms, end to end
            continue
        name, scale, unit = workloads.KIND_METRICS[kind]
        out[name] = {**median_of(r["seconds"] * scale for r in results
                                 if r["kind"] == kind), "unit": unit}
    return out


def per_layer(traced, plain, claims) -> dict:
    by_pass = [layers.pass_metrics([r["sums"] for r in p]) for p in traced]
    out = {
        name: {**median_of(m[name] for m in by_pass),
               "unit": layers.unit(name)}
        for name in by_pass[0]
    }
    for claim in workloads.RUNNABLE_CLAIMS:
        times = [r["sums"]["claims_s"] for r in claims if r["claim"] == claim]
        out[f"verify.{claim}_s"] = {
            **(median_of(times) if times else {"value": 0.0, "samples": 0}),
            "unit": "s",
        }
    walls = [sum(r["seconds"] for r in p) for p in traced]
    plain_walls = [sum(r["seconds"] for r in p) for p in plain]
    out["trace.overhead_ratio"] = {
        "value": statistics.median(walls) / statistics.median(plain_walls),
        "samples": len(walls), "unit": "ratio",
    }
    return out


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  passes {report['passes']}  "
          f"measured {report['measured_s']:.1f} s")
    print(f"nproc {m['nproc']}  Python {m['python']}  CPU {m['cpu']}")
    print(f"commit {m['commit']}  source sha256 {m['source_sha256'][:16]}")
    print("requests per pass: " + ", ".join(
        f"{k} x{n} (timeout {t:.0f} s)"
        for k, (n, t) in report["requests_per_pass"].items()))
    print(f"failed_ratio {report['failed_ratio']:.4f} "
          f"({report['failed']} of {report['attempted']})")
    for problem in report["problems"][:10]:
        print(f"  FAILED {problem}")
    print(f"{'metric':34} {'value':>14} {'unit':6} samples")
    for section in ("end_to_end", "per_kind", "per_layer"):
        for name, v in report.get(section, {}).items():
            print(f"{name:34} {v['value']:14.6g} {v['unit']:6} {v['samples']}")
    if "per_layer" in report:
        shares = sorted(((report["per_layer"][f"{mod}.share"]["value"], mod)
                         for mod in layers.MODULES), reverse=True)
        print("self-time share by layer: " + ", ".join(
            f"{mod} {share:.1%}" for share, mod in shares))
        print(f"trace.overhead_ratio "
              f"{report['per_layer']['trace.overhead_ratio']['value']:.3f}")
    print("over budget, not run:")
    for entry in report["over_budget"]:
        print(f"  {entry['request']}: {entry['skipped']}, {entry['cost']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    if not (ROOT / "src" / "agband" / "cli.py").is_file():
        print(f"error: no agband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    build = ROOT / ".bench_build" / "perfbench"
    work = build / f"{args.workload}-{os.getpid()}"
    runner = Runner(work, began + RUN_LIMIT_S)
    make = workloads.WORKLOADS[args.workload]
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = time.perf_counter()
            requests = make(args.seed, work)
            warm = runner.execute(workloads.FLOOR)
            setups.append(time.perf_counter() - start)
            if warm["problem"]:
                print(f"error: warm-up request failed: {warm['problem']}",
                      file=sys.stderr)
                return 2
        plain, traced, claims = [], [], []
        out_of_time = False
        start = time.perf_counter()
        try:
            while True:
                plain.append(runner.run_pass(requests, False, f"p{len(plain)}"))
                if args.trace:
                    traced.append(runner.run_pass(requests, True, f"t{len(traced)}"))
                elapsed = time.perf_counter() - start
                # stop when one more pass would take the measured time
                # further from S than it is now
                if elapsed * (2 * len(plain) + 1) / (2 * len(plain)) > args.seconds:
                    break
            if args.trace and args.workload == "paper":
                for claim in workloads.RUNNABLE_CLAIMS:
                    result = runner.execute(workloads.claim_request(claim), True,
                                            f"claim-{claim}")
                    claims.append({**result, "claim": claim})
        except OutOfTime:
            out_of_time = True
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spanned = [r for p in traced for r in p] + claims
    done = [r for p in plain for r in p] + spanned
    problems = [f"{r['kind']}: {r['problem']}" for r in done if r["problem"]]
    if out_of_time:
        problems.append(f"run stopped: over {RUN_LIMIT_S:.0f} s")
    complete = (not out_of_time and plain and (traced or not args.trace)
                and all("sums" in r for r in spanned))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "passes": len(plain) + len(traced),
        "measured_s": measured,
        "requests_per_pass": {
            kind: (sum(r.kind == kind for r in requests),
                   max(r.timeout for r in requests if r.kind == kind))
            for kind in dict.fromkeys(r.kind for r in requests)
        },
        "attempted": len(done),
        "failed": len(problems),
        "failed_ratio": len(problems) / max(len(done), 1),
        "problems": problems,
        "over_budget": [{"request": req, "skipped": "over budget", "cost": cost}
                        for req, cost in workloads.OVER_BUDGET],
    }
    if complete:
        report["setups_s"] = setups
        report["request_s"] = [[(r["kind"], r["seconds"]) for r in p] for p in plain]
        report["end_to_end"] = end_to_end(setups, plain)
        report["per_kind"] = per_kind([r for p in plain for r in p])
        if args.trace:
            report["per_layer"] = per_layer(traced, plain, claims)
    results = build / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    metrics = {}
    if complete:
        got = report[section]
        mismatch = set(wanted) ^ set(got)
        if mismatch:
            print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}",
                  file=sys.stderr)
            return 2
        metrics = {n: {"value": got[n]["value"], "unit": got[n]["unit"]}
                   for n in wanted}
    print(json.dumps({
        "correct": bool(complete) and not problems,
        "attempted": max(len(done), 1),
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
