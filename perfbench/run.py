"""dyntwist benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports the package from ./src.  A
workload is a list of `dyntwist` commands run one at a time, each in a
fresh process, repeated in passes for about --seconds seconds.  Every
command's exit code and verdict lines are checked against the answer
known by construction (see workloads.py).

--trace 0 reports the end-to-end metrics, measured with nothing
installed.  --trace 1 ignores --seconds: it runs one pass in-process per
command through worker.py without tracing and one with the outside-in
tracer, and reports the per-layer metrics and the tracing overhead.  --workload all
runs the four workloads in turn and prints every metric by name.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Scratch files and run records go to .bench_build/perfbench/.
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
import time

import inputs
import layers
import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = tuple(workloads.WHY)
# per-command times and the failure share, printed in the summary and the
# run record; each exists only on the workloads that run the command
COMMAND_METRICS = ("quantize_s", "verify_s", "check_s", "gauge_s",
                   "reduce_s", "props_s")
SUMMARY_UNITS = {"passes": "count", "spans": "count", "fail_ratio": "ratio"}
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0
COMMAND_TIMEOUT_S = 150.0


class Runner:
    """One workload run: scratch directory, inputs, commands and log."""

    def __init__(self, root, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".bench_build", "perfbench")
        self.work = os.path.join(self.out_dir,
                                 f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work)
        # bytecode is cached under .bench_build whatever the caller's
        # environment says, so every command after the prechecks starts
        # from compiled modules, as an installed package would
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=os.path.join(self.out_dir,
                                                         "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.problems = []
        self.log = []

    def prepare(self):
        """Draw and write the inputs; for classify this solves (untimed)."""
        self.choice, self.paths = inputs.write_inputs(
            self.workload, self.seed, self.work)
        self.cmds = workloads.commands(self.workload, self.paths,
                                       self.choice, self.work)
        self.prechecks = workloads.prechecks(self.paths)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def execute(self, cmd, tag, worker=None):
        """Run one command (through worker.py if worker is set) and judge it."""
        if worker is None:
            argv = [sys.executable, "-m", "dyntwist.cli", *cmd.argv]
        else:
            argv = [sys.executable, os.path.join(HERE, "worker.py"),
                    "--src", self.src, "--out", f"{self.work}/{tag}.json",
                    *worker, "--", *cmd.argv]
        m = measure.run(argv, env=self.env, cwd=self.work,
                        timeout=max(1.0, min(COMMAND_TIMEOUT_S,
                                             self.remaining())),
                        out_path=f"{self.work}/{tag}.out",
                        err_path=f"{self.work}/{tag}.err")
        status, reason = cmd.judge(m.returncode, m.stdout, m.stderr,
                                   m.timed_out)
        entry = {"tag": tag, "metric": cmd.metric, "argv": cmd.argv,
                 "wall_s": m.wall_s, "norm_s": m.norm_s,
                 "maxrss_mb": m.maxrss_mb, "code": m.returncode,
                 "status": status, "reason": reason}
        self.log.append(entry)
        return entry

    def run_prechecks(self):
        for i, cmd in enumerate(self.prechecks):
            e = self.execute(cmd, f"pre{i}")
            if e["status"] != "ok":
                self.problems.append(f"precheck {cmd.argv}: {e['reason']}")

    def run_pass(self, index, worker=None):
        out = []
        for i, cmd in enumerate(self.cmds):
            extra = None if worker is None else [*worker,
                                                 "--command-id", str(i)]
            out.append(self.execute(cmd, f"p{index}c{i}", extra))
        return out

    def measure_setup(self):
        spec_path = f"{self.work}/setup.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.setup_spec(self.workload, self.paths,
                                           self.work), fh)
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                self.src, spec_path]
        times = []
        for i in range(SETUP_REPEATS):
            m = measure.run(argv, env=self.env, cwd=self.work,
                            timeout=max(1.0, min(60.0, self.remaining())),
                            out_path=f"{self.work}/setup{i}.out",
                            err_path=f"{self.work}/setup{i}.err")
            if m.returncode != 0:
                self.problems.append(f"setup probe: exit {m.returncode}: "
                                     f"{m.stderr.strip()[-300:]}")
            times.append((m.norm_s, m.wall_s))
        return times

    def verdicts(self, entries):
        attempted = len(entries)
        failed = sum(e["status"] != "ok" for e in entries)
        unexpected = [e for e in entries
                      if e["status"] not in ("ok", "known defect")]
        for e in unexpected:
            self.problems.append(f"{e['tag']} {e['argv'][0]}: {e['reason']}")
        return attempted, failed


def timed_run(r, seconds):
    """--trace 0: passes of fresh CLI processes for about `seconds`."""
    r.run_prechecks()
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(r.run_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(passes)
        if (elapsed + per_pass / 2 >= seconds
                or r.remaining() < per_pass * 1.5 + 15):
            break
    setup = r.measure_setup()
    entries = [e for p in passes for e in p]
    attempted, failed = r.verdicts(entries)

    def median_pass(key, metric=None):
        """Median over passes of the pass total of `key`."""
        return statistics.median(
            sum(e[key] for e in p if metric in (None, e["metric"]))
            for p in passes)

    metrics = {
        "wall_s": (median_pass("norm_s"), "s"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (max(e["maxrss_mb"] for e in entries), "MB"),
    }
    summary = {
        "raw_wall_s": median_pass("wall_s"),
        "raw_setup_s": statistics.median(w for _, w in setup),
        "passes": len(passes),
        "fail_ratio": failed / attempted,
    }
    for name in COMMAND_METRICS:
        if any(e["metric"] == name for e in entries):
            summary[name] = median_pass("norm_s", name)
    return attempted, failed, metrics, summary


def traced_run(r):
    """--trace 1: one untraced and one traced in-process pass."""
    r.run_prechecks()
    plain = r.run_pass(0, worker=[])
    traced = r.run_pass(1, worker=["--trace"])
    attempted, failed = r.verdicts(plain + traced)
    totals = {}
    spans = []
    for e in traced:
        path = f"{r.work}/{e['tag']}.json"
        if not os.path.exists(path):
            r.problems.append(f"{e['tag']}: traced worker wrote no record")
            continue
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        for k, v in rec["metrics"].items():
            totals[k] = totals.get(k, 0) + v
        spans.extend(rec["spans"])
    totals.update(layers.derived(totals))
    totals["trace.overhead_s"] = (sum(e["norm_s"] for e in traced)
                                  - sum(e["norm_s"] for e in plain))
    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    metrics = {name: (totals.get(name, 0), unit)
               for name, unit in units.items()}
    summary = {
        "untraced_s": sum(e["norm_s"] for e in plain),
        "traced_s": sum(e["norm_s"] for e in traced),
        "spans": len(spans),
    }
    with open(os.path.join(r.out_dir, f"spans-{r.workload}-{r.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent",
                              "command"], "spans": spans}, fh)
    return attempted, failed, metrics, summary


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "dyntwist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_workload(root, workload, seed, seconds, trace, cpu):
    r = Runner(root, workload, seed)
    try:
        r.prepare()
        if trace:
            attempted, failed, metrics, summary = traced_run(r)
        else:
            attempted, failed, metrics, summary = timed_run(r, seconds)
    finally:
        r.close()
    record = {
        "workload": workload, "why": workloads.WHY[workload],
        "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(root), "src_digest": _src_digest(r.src),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "choice": {k: str(v) for k, v in r.choice.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "summary": summary, "problems": r.problems, "commands": r.log,
    }
    with open(os.path.join(r.out_dir,
                           f"record-{workload}-{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in r.problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    return {"correct": not r.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "summary": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyntwist", "cli.py")):
        print("perfbench: no src/dyntwist here; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    cpu = measure.pin_to_one_core()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(root, w, args.seed, args.seconds,
                               args.trace, cpu) for w in names}
    metrics = {}
    for w, res in results.items():
        prefix = f"{w}." if args.workload == "all" else ""
        print(f"# {w} (seed {args.seed}): attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}")
        for name, (value, unit) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
            if not args.trace:
                print(f"  {name:<12} {value:12.4f} {unit}")
        for name, value in res["summary"].items():
            unit = SUMMARY_UNITS.get(name, "s")
            print(f"  {name:<12} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
