"""Benchmark for ricci-halin: its CLI on three workloads, gated on output.

Run from the repository root:

    python3 perfbench/run.py --workload verify13 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Every timed call is `ricci_halin.cli.main` in a fresh interpreter, run
on the workload's generated input only (see workloads.py).  One-worker
calls, each after its set-ups, repeat while one more is expected to
end within --seconds of the first one's start; the first always runs.  Each output passes a correctness gate (gate.py) after its call
has been timed.

End-to-end metrics (--trace 0):
  wall_s       median seconds of cli.main with one worker, tracing off
  edges_per_s  edges of the curvature reports in the output per second
               of wall_s (verify prints per class, so its classes' edges)
  peak_rss_mb  largest peak RSS of any call process or its pool workers
  setup_s      median, over fresh interpreters started before every call
               (at least MIN_SETUPS of them), of the time from process
               start until the package is imported and the input is on
               disk

--trace 1 adds a traced one-worker call and, on verify13, a
`--workers 2` call, and prints the per-layer metrics of layers.py
instead.  The traced output must hash the same as the untraced output.
curv has no worker option, so the curv workloads make no two-worker
call and report the two two-worker metrics as 0.

Every call of one run must end within RUN_BUDGET_S seconds of the run's
start; a call still running then is killed and reported on a TIMEOUT
line.  A killed call is counted as attempted but not as failed, since
it gave no output to gate, and the metrics it would have given are left
out.  A run in which no untraced call ends prints no result and exits 1.

The report lines before the final JSON line give the environment, every
metric with its unit, fail_ratio (failed calls over calls attempted),
any metric that does not apply, any call killed at the budget and any
layer the trace could not see.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from gate import check_curv, check_sweep, read_edge_list, sweep_edges  # noqa: E402
from layers import TWO_WORKER, TraceView, per_layer  # noqa: E402
from workloads import INPUT, TINY, WORKLOADS  # noqa: E402

SETUPS_PER_CALL = 3  # set-ups before each call, so they spread over the run
MIN_SETUPS = 15  # so a run of one long call still has a steady setup_s
RUN_BUDGET_S = 170  # every call of one run ends within this; later ones are killed
END_TO_END_UNITS = {
    "wall_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ricci_halin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "load1": os.getloadavg()[0],
    }


class Run:
    """One workload at one seed: its processes, files and gate verdicts."""

    def __init__(self, workload, seed: int, tiny: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.input = work / "input.edges"
        self.graph = None  # (n, edges) of a curv input
        self.package_graph = None
        self.verdicts: dict[tuple[str, object], tuple[list[str], int]] = {}
        self.failures: list[str] = []
        self.timeouts: list[str] = []
        self.live: list[subprocess.Popen] = []
        self.setups: list[float] = []
        self.count = 0
        refs = json.loads((HERE / "reference.json").read_text())
        self.reference = refs.get(workload.reference)

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def setup_once(self) -> None:
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "call.py"), "setup", self.w.name,
             str(self.seed), "1" if self.tiny else "0", str(self.input)],
            capture_output=True, text=True, check=True,
            timeout=self._timeout(),
        )
        self.setups.append(float(done.stdout) - t0)
        if self.w.graph is not None and self.graph is None:
            self.graph = read_edge_list(self.input.read_text(encoding="ascii"))

    def start(self, argv, trace=False):
        self.count += 1
        tag = self.work / f"call{self.count}"
        argv = [str(self.input) if a == INPUT else a for a in argv]
        with open(f"{tag}.err", "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "call.py"), "run", f"{tag}.json",
                 f"{tag}.out", "1" if trace else "0", str(self.seed), *argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
                start_new_session=True,  # so a kill reaches pool workers
            )
        self.live.append(proc)
        return proc, tag, argv

    def finish(self, started) -> dict:
        """The call's result; a call killed at the budget has wall_s None
        and no failures."""
        proc, tag, argv = started
        killed = False
        try:
            proc.wait(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            _kill(proc)
            killed = True
        self.live.remove(proc)
        if killed:
            _remove(tag)
            self.timeouts.append(
                f"{self.w.name}: {' '.join(argv)} was still running "
                f"{RUN_BUDGET_S} s after the run started; killed")
            return {"wall_s": None, "trace": None, "failures": [],
                    "edges": 0, "peak_rss_kb": 0}
        try:
            result = json.loads(Path(f"{tag}.json").read_text())
            output = Path(f"{tag}.out").read_bytes()
        except (OSError, ValueError):
            err = Path(f"{tag}.err").read_text(errors="replace")[-2000:]
            result = {"wall_s": None, "code": None, "trace": None,
                      "peak_rss_kb": 0, "missing": None,
                      "error": f"call process exited {proc.returncode}: {err}"}
            output = b""
        result["digest"] = hashlib.sha256(output).hexdigest()
        result["failures"], result["edges"] = self.check(result, output)
        self.failures.extend(result["failures"])
        _remove(tag)
        return result

    def check(self, result, output: bytes) -> tuple[list[str], int]:
        if result["error"]:
            return [f"{self.w.name}: {result['error'].strip()}"], 0
        key = (result["digest"], result["code"])
        if key not in self.verdicts:
            text = output.decode("ascii")
            if self.w.graph is None:
                failures = check_sweep(text, result["code"], self.reference,
                                       self.w.theorem)
                edges = sweep_edges(text) if not failures else 0
            else:
                n, edges_in = self.graph
                failures = check_curv(text, result["code"], n, edges_in,
                                      self.seed, self.w.dual_unchecked,
                                      self._package_graph())
                edges = len(edges_in)
            self.verdicts[key] = (
                [f"{self.w.name}: {f}" for f in failures], edges)
        return self.verdicts[key]

    def _package_graph(self):
        if self.w.dual_unchecked and self.package_graph is None:
            sys.path.insert(0, str(SRC))
            from ricci_halin.graph import Graph

            self.package_graph = Graph(*self.graph)
        return self.package_graph

    def repeat(self, argv, budget: float) -> list[dict]:
        """Run calls, each after its set-ups, while one more is expected
        to end within `budget` seconds of the first one's start; at
        least one call."""
        results = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            for _ in range(SETUPS_PER_CALL):
                self.setup_once()
            results.append(self.finish(self.start(argv)))
            now = time.monotonic()
            took = now - t0
            if (now - start + took > budget
                    or self.deadline - now < 3 * took + 10):
                return results

    def stop(self) -> None:
        for proc in self.live:
            _kill(proc)


def _remove(tag: str) -> None:
    for suffix in (".json", ".out", ".err"):
        Path(f"{tag}{suffix}").unlink(missing_ok=True)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def measure(run: Run, seconds: float, trace: bool):
    """(end-to-end metrics, per-layer metrics, notes, unseen, attempted,
    failed); end-to-end metrics are None when no untraced call ended.
    `notes` name the metrics that do not apply, and why."""
    w = run.w
    ones = run.repeat(w.argv, seconds)
    while len(run.setups) < MIN_SETUPS:
        run.setup_once()
    walls = [r["wall_s"] for r in ones if r["wall_s"] is not None]
    failed = sum(1 for r in ones if r["failures"])
    if not walls:
        return None, {}, [], [], len(ones), failed
    wall_s = statistics.median(walls)
    e2e = {
        "wall_s": wall_s,
        "edges_per_s": max(r["edges"] for r in ones) / wall_s,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in ones) / 1024,
        "setup_s": statistics.median(run.setups),
    }
    calls = list(ones)
    layer, notes, unseen = {}, [], []
    if trace:
        # the traced call first, so a slow two-worker call cannot cost
        # the per-layer metrics
        traced = run.finish(run.start(w.argv, trace=True))
        calls.append(traced)
        if w.argv_2w is None:
            wall_2w_s = 0.0
            notes.append(f"{', '.join(TWO_WORKER)}: curv has no worker "
                         "option, so no two-worker call runs; reported as 0")
        else:
            two = run.finish(run.start(w.argv_2w))
            calls.append(two)
            wall_2w_s = two["wall_s"]
        if traced["trace"] is not None:
            if traced["digest"] not in {r.get("digest") for r in ones}:
                traced["failures"] = [*traced["failures"], "output differs"]
                run.failures.append(f"{w.name}: traced output differs")
            view = TraceView(traced["trace"], wall_s, wall_2w_s or 0.0,
                             traced["wall_s"])
            layer, unseen = per_layer(view, traced["missing"])
            if wall_2w_s is None:  # killed; its TIMEOUT line says so
                for metric in TWO_WORKER:
                    del layer[metric]
    failed = sum(1 for r in calls if r["failures"])
    return e2e, layer, notes, unseen, len(calls), failed


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    workload = (TINY if tiny else WORKLOADS)[name]
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, tiny, work)
    try:
        return measure(run, seconds, trace), run
    finally:
        run.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the seconds-long variants the tests use")
    args = parser.parse_args(argv)
    # a terminated run still stops its calls and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ricci_halin" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment()))
    metrics = {}
    attempted = failed = 0
    for name in names:
        (e2e, layer, notes, unseen, att, fail), run = run_one(
            name, args.seed, args.seconds, bool(args.trace), args.tiny)
        attempted += att
        failed += fail
        print(f"workload {name} seed {args.seed} trace {args.trace}"
              f"{' tiny' if args.tiny else ''}")
        for metric, value in (e2e or {}).items():
            print(f"  {metric} {_fmt(value)} {END_TO_END_UNITS[metric]}")
        print(f"  fail_ratio {_fmt(fail / att)} ratio ({fail}/{att} calls)")
        for metric, (value, unit) in layer.items():
            print(f"  {metric} {_fmt(value)} {unit}")
        for note in notes:
            print(f"  N/A {note}")
        for metric, layer_name, site in unseen:
            print(f"  UNSEEN {metric}: the {layer_name} layer cannot be "
                  f"seen, {site} does not exist")
        for timeout in run.timeouts:
            print(f"  TIMEOUT {timeout}")
        for failure in run.failures:
            print(f"  FAIL {failure}")
        if e2e is None:
            print(f"error: no untraced call of {name} gave a time; "
                  "no result", file=sys.stderr)
            return 1
        prefix = f"{name}/" if len(names) > 1 else ""
        if args.trace:
            chosen = layer
        else:
            chosen = {m: (v, END_TO_END_UNITS[m]) for m, v in e2e.items()}
        for metric, (value, unit) in chosen.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
