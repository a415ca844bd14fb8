"""Benchmark of ``multiscale``: one closed-loop client runs one op at a time.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]

Run it from anywhere inside a source checkout; it uses the checkout's
``src/`` and writes only under ``.perfbench_work/`` in the checkout. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it are a readable report. See
perfbench/README.md for the workloads, metrics and the layer predictions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import machine
import stats
import tracing
from workloads import PIPELINE_CONFIG, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3          # set-ups per untraced run; setup_s is their median
OP_TIMEOUT = 60.0       # seconds before an op is killed and counted failed


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, or set-up failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], log_dir: Path):
    """Run one child to completion; return (wall s, exit code, max RSS MB,
    stdout). The RSS comes from this child's own rusage, so no other
    process's peak leaks in."""
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        rss = reap(proc, OP_TIMEOUT)
        wall = time.perf_counter() - start
    return (wall, proc.returncode, rss,
            (log_dir / "stdout").read_text(errors="replace"))


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc``, killing it after ``timeout`` seconds; set its return
    code and return its own max RSS in MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def stderr_tail(log_dir: Path) -> str:
    text = (log_dir / "stderr").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / workload.name
        self.gate = gate.Gate(workload.n)
        self.ops: list[dict] = []       # every op: kind, traced, wall, rss, problems
        self.setups: list[float] = []
        self.units: list[dict] = []     # traced ops, for tracing.layer_metrics
        self.imports: list[tuple] = []
        self.peak_rss = 0.0

    # CLI workloads ---------------------------------------------------------

    def setup_cli(self) -> dict[str, str]:
        reps = 1 if self.trace else SETUP_REPS
        first = None
        for rep in range(reps):
            rep_dir = self.dir / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            total = 0.0
            for inp in self.w.inputs:
                argv = [sys.executable, "-m", "multiscale.cli",
                        *inp.gen_args(self.seed, str(rep_dir / "in"))]
                wall, code, _, _ = run_process(argv, rep_dir)
                if code != 0:
                    raise BenchError(f"gen {inp.name} exited {code}: "
                                     f"{stderr_tail(rep_dir)}")
                total += wall
            self.setups.append(total)
            digests = gate.digest_dir(rep_dir / "in")
            if first is not None and digests != first:
                raise BenchError("gen made different inputs from one seed")
            first = digests
        names = "AB"
        return {names[i]: str(rep_dir / "in" / inp.name)
                for i, inp in enumerate(self.w.inputs)}

    def cli_op(self, op, inputs: dict, traced: bool) -> None:
        op_dir = self.dir / f"op{len(self.ops)}"
        out = op_dir / "out"
        out.mkdir(parents=True)
        subs = {**inputs, "OUT": str(out), "CONFIG": str(op_dir / "pipeline.cfg")}
        if op.key == "pipeline":
            (op_dir / "pipeline.cfg").write_text(PIPELINE_CONFIG.format(**subs))
        args = [a.format(**subs) for a in op.args]
        spans_path = op_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "multiscale.cli", *args]
        wall, code, rss, stdout = run_process(argv, op_dir)
        problems = self.gate.check_cli(op.key, op.expect, code, stdout, out)
        if code != 0:
            problems.append(stderr_tail(op_dir))
        if traced and spans_path.is_file():
            d = json.loads(spans_path.read_text())
            self.units.append({"wall": wall, "op": len(self.ops), **d})
            self.imports.append((d["import_s"], d["modules"]))
        self.ops.append({"kind": op.key, "traced": traced, "wall": wall,
                         "rss_mb": rss, "problems": problems})
        if not traced:
            self.peak_rss = max(self.peak_rss, rss)
        shutil.rmtree(op_dir)

    def run_cli(self) -> None:
        inputs = self.setup_cli()
        self.closed_loop(lambda rnd: [
            self.cli_op(op, inputs, traced)
            for op in self.w.ops for traced in self.variants(rnd)])

    # library workload ------------------------------------------------------

    def start_worker(self):
        with open(self.dir / "worker.stderr", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "lib_worker.py"), "1" if self.trace else "0"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
                env=child_env(), cwd=ROOT)
        ready = self.request(proc, None)
        setup = time.perf_counter() - start
        if not ready.get("ready"):
            self.stop_worker(proc)
            raise BenchError(f"lib worker did not start: {ready}")
        if not Path(ready["file"]).resolve().is_relative_to(SRC):
            self.stop_worker(proc)
            raise BenchError(f"worker imported {ready['file']}, not {SRC}")
        return proc, setup, ready

    @staticmethod
    def request(proc, req: dict | None) -> dict:
        """Send one request (None: just read the ready line) and read the reply."""
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            if req is not None:
                proc.stdin.write(json.dumps(req) + "\n")
                proc.stdin.flush()
            line = proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            timer.cancel()
        return json.loads(line) if line else {"error": "worker died"}

    @staticmethod
    def stop_worker(proc) -> float:
        """End the worker and return its max RSS in MB."""
        try:
            proc.stdin.write(json.dumps({"exit": True}) + "\n")
            proc.stdin.close()
        except BrokenPipeError:
            pass
        rss = reap(proc, OP_TIMEOUT)
        proc.stdout.close()
        return rss

    def run_lib(self) -> None:
        reps = 1 if self.trace else SETUP_REPS
        for _ in range(reps - 1):
            proc, setup, _ = self.start_worker()
            self.setups.append(setup)
            self.stop_worker(proc)
        proc, setup, ready = self.start_worker()
        self.setups.append(setup)
        self.imports.append((ready["import_s"], ready["modules"]))
        try:
            # untimed warm-up, on a seed no timed op uses
            self.lib_op(proc, self.seed + 1_000_000, False, timed=False)
            count = itertools.count()
            self.closed_loop(lambda rnd: [
                self.lib_op(proc, self.seed + next(count), traced)
                for traced in self.variants(rnd)])
        finally:
            self.peak_rss = self.stop_worker(proc)

    def lib_op(self, proc, seed: int, traced: bool, timed: bool = True) -> None:
        reply = self.request(proc, {"seed": seed, "trace": int(traced)})
        if proc.poll() is not None:
            raise BenchError(f"lib worker died: {reply.get('error')}")
        problems = gate.check_lib(reply, self.w.n)
        wall = reply.get("wall", 0.0)
        if traced and "spans" in reply:
            self.units.append({"wall": wall, "op": len(self.ops), **reply})
        self.ops.append({"kind": "warmup" if not timed else "chain",
                         "traced": traced, "wall": wall, "rss_mb": None,
                         "problems": problems})

    # shared ----------------------------------------------------------------

    def variants(self, rnd: int) -> tuple[bool, ...]:
        """Untraced only; in a traced run each op untraced and traced, the
        order alternating by round, so the overhead is measured in place."""
        if not self.trace:
            return (False,)
        return (False, True) if rnd % 2 == 0 else (True, False)

    def closed_loop(self, run_round) -> None:
        """Whole rounds until the next one would end past --seconds."""
        deadline = time.perf_counter() + self.seconds
        rnd = 0
        while True:
            start = time.perf_counter()
            run_round(rnd)
            rnd += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break

    def timed(self, traced: bool) -> list[float]:
        return [o["wall"] for o in self.ops
                if o["traced"] == traced and o["kind"] != "warmup"]

    def end_to_end(self) -> tuple[dict, dict]:
        walls = self.timed(False)
        ok = sum(1 for o in self.ops if o["kind"] != "warmup" and not o["traced"]
                 and not o["problems"])
        metrics = {
            "ops_per_s": (ok / sum(walls), "1/s"),
            "op_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
            "peak_rss_mb": (self.peak_rss, "MB"),
            "setup_s": (statistics.median(self.setups), "s"),
        }
        tail = stats.tail(walls)
        extra = {
            "op_tail_ms": (None if tail is None else
                           {**tail, "value": tail["value"] * 1000.0}),
            "op_tail_note": (f"omitted: {len(walls)} ops, a tail needs "
                             f">= {stats.TAIL_MIN_BEYOND} beyond p75"
                             if tail is None else ""),
            "samples": len(walls),
            "per_kind_p50_ms": {
                k: statistics.median([o["wall"] for o in self.ops if o["kind"] == k
                                 and not o["traced"]]) * 1000.0
                for k in dict.fromkeys(o["kind"] for o in self.ops
                                       if o["kind"] != "warmup")},
            "setups_s": self.setups,
        }
        return metrics, extra

    def per_layer(self) -> dict:
        out = tracing.layer_metrics(self.units, self.imports)
        units = {"_s": "s", "_mb": "MB", "_bytes": "bytes", ".share": "fraction"}
        metrics = {}
        for name, value in out.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)),
                        "s" if name == "import.s" else "count")
            metrics[name] = (value, unit)
        overhead = (statistics.median(self.timed(True)) - statistics.median(self.timed(False)))
        metrics["trace.overhead_ms"] = (overhead * 1000.0, "ms")
        return metrics

    def write_spans(self) -> Path:
        path = WORK / f"spans-{self.w.name}-seed{self.seed}.jsonl"
        with open(path, "w") as fh:
            for u in self.units:
                for name, start, end, parent, _, ok in u["spans"]:
                    fh.write(json.dumps([name, start, end, parent, u["op"], ok]) + "\n")
        return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multiscale" / "cli.py").is_file():
        print(f"perfbench: no multiscale source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    facts = machine.facts()
    load_before = machine.loadavg()
    cpu_before = machine.cpu_times()
    floor_ms = machine.python_floor_ms()

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    try:
        if run.w.is_cli:
            run.run_cli()
        else:
            run.run_lib()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    noise = {"loadavg_start": load_before, "loadavg_end": machine.loadavg(),
             **machine.noise(cpu_before, machine.cpu_times()),
             "python_floor_ms": floor_ms}
    failed = [o for o in run.ops if o["problems"]]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "noise": noise,
              "attempted": len(run.ops), "failed": len(failed),
              "digest_comparisons": run.gate.compared,
              "failures": [{"kind": o["kind"], "problems": o["problems"]}
                           for o in failed]}
    if args.trace:
        metrics = run.per_layer()
        report["spans_file"] = str(run.write_spans().relative_to(ROOT))
    else:
        metrics, extra = run.end_to_end()
        report.update(extra)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"# machine {json.dumps(facts)}")
    print(f"# noise {json.dumps(noise)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if not args.trace:
        tail = report["op_tail_ms"]
        print("# op_tail_ms = " + (f"{tail['value']:.6g} ms (p{tail['percentile']:g}, "
                                   f"{tail['beyond']} of {tail['samples']} beyond)"
                                   if tail else report["op_tail_note"]))
        print(f"# per-kind op_p50_ms {json.dumps(report['per_kind_p50_ms'])}")
    print(f"# fail_ratio = {len(failed)}/{len(run.ops)}"
          f" = {len(failed) / len(run.ops):.6g} count/count")
    for f in report["failures"]:
        print(f"# FAILED {f['kind']}: {'; '.join(f['problems'])}")
    print(f"# digest comparisons {run.gate.compared}; report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(run.ops),
                      "failed": len(failed),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
