"""ghzmetro benchmark: CLI workloads, timed end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload family-exact --seed 1 --seconds 40 --trace 0

Workloads (inputs are generated from ``--seed``; see ``workloads.py``):

* ``family-exact``: ``qfi``, ``ppt`` and ``bell`` CLI requests on family
  members, each one ``python -m ghzmetro.cli`` process against ``src/``;
* ``monte-carlo``: ``estimate`` CLI requests, both measurement models.

Load comes from one closed-loop client with one request in flight.  The
benchmark repeats the workload's round of requests as often as fills
``--seconds`` on the reference machine (at least twice for the untraced run,
so every run has enough samples for a tail).  ``setup_s`` is the median of
fresh ``ghzmetro --version`` runs, one before each round.  Every output is
then checked against an independent oracle (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
request twice, plain and with layer spans (``tracing.py``), and prints the
per-layer metrics with the tracing overhead.  The last stdout line is the
JSON result.  The line before it, ``{"perfbench": ...}``, records the
versions, seed, sample counts, per-kind latencies and the reference rows.
Exit code 2 (without a result) means the ghzmetro sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import checks
from oracles import tail_percentile
from tracing import COUNTERS, LAYERS
from workloads import family_exact_round, monte_carlo_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

EMPTY_TRACE = {"busy_s": {}, "calls": {}, "failed": {}, "counts": {}, "spans": [],
               "span_s": 0.0}
MIN_ROUNDS = 2
REQUEST_TIMEOUT_S = 150.0
REFERENCE_COMMANDS = {  # ROADMAP aim-1 reference commands, timed once per checkout
    "reference.qfi_n7_k2_s": ("qfi", "--n", "7", "--k", "2"),
    "reference.ppt_n14_k3_s": ("ppt", "--n", "14", "--k", "3"),
    "reference.bell_n16_k4_s": ("bell", "--n", "16", "--k", "4"),
    "reference.estimate_s": ("estimate", "--n", "4", "--k", "2", "--theta", "0.3",
                             "--shots", "10000", "--seed", "42"),
}


@dataclass
class Execution:
    """One executed CLI request with its timing and output."""

    index: int
    latency: float
    ok: bool  # exit code 0
    output: str  # stdout
    error: str = ""  # stderr
    rss_mb: float = 0.0
    spawn: float = 0.0
    traced: bool = False
    trace: Optional[dict] = None  # tracer summary of a traced execution


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- running requests -------------------------------------------------------------


def cli_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(cmd: Sequence[str]) -> Execution:
    """Run one process to completion; latency, exit status and peak RSS."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        latency = time.monotonic() - spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        stderr = err.read().decode()
    return Execution(-1, latency, proc.returncode == 0, stdout, stderr,
                     usage.ru_maxrss / 1024.0, spawn)


def run_cli(argv: Sequence[str], traced: bool = False) -> Execution:
    if not traced:
        return run_process([sys.executable, "-m", "ghzmetro.cli", *argv])
    ex = run_process([sys.executable, str(HERE / "traced_cli.py"), *argv])
    ex.traced = True
    marker = "PERFBENCH_TRACE "
    lines = ex.error.splitlines()
    for pos in range(len(lines) - 1, -1, -1):  # a traceback may follow the trace
        if lines[pos].startswith(marker):
            ex.trace = json.loads(lines.pop(pos)[len(marker):])
            ex.error = "\n".join(lines)
            break
    return ex


def latencies_by_kind(executions: List[Execution], kinds: Sequence[str]) -> Dict[str, list]:
    out: Dict[str, list] = {}
    for ex in executions:
        out.setdefault(kinds[ex.index], []).append(ex.latency)
    return out


# -- workloads ----------------------------------------------------------------------


class Workload:
    """A seeded round of CLI requests, each a ``python -m ghzmetro.cli`` process.

    Subclasses give the round generator, the per-request oracle and check.
    """

    name = ""
    make_round: Callable[[int], list]
    # Seconds one round takes on the 2-core reference machine.  The round
    # count comes from it, not from a timing, so every run of a workload has
    # the same request mix and sample count.
    nominal_round_s = 15.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.requests = self.make_round(seed)
        self.kinds = [r.kind for r in self.requests]
        self.failures: Dict[str, int] = {}
        self.first_failure = ""

    def oracle_for(self, req):
        raise NotImplementedError

    def check_output(self, req, stdout, oracle):
        raise NotImplementedError

    def reps_completed(self, executions) -> int:
        return 0

    def record_failure(self, layer: str, reason: str) -> None:
        self.failures[layer] = self.failures.get(layer, 0) + 1
        if not self.first_failure:
            self.first_failure = f"{layer}: {reason}"

    def setup_sample(self) -> float:
        """Seconds a fresh interpreter takes for ``--version``, which imports every module."""
        ex = run_cli(["--version"])
        if not ex.ok:
            die(f"ghzmetro --version failed: {ex.error.strip()}")
        return ex.latency

    def execute(self, index: int, traced: bool) -> Execution:
        ex = run_cli(self.requests[index].argv, traced)
        ex.index = index
        return ex

    def describe(self, index: int) -> str:
        return " ".join(self.requests[index].argv)

    def run(self, seconds: float, trace: bool) -> dict:
        run_cli(["--version"])  # byte-compiles the package once, as an install would
        if trace:
            def execute(index):
                # alternate which side runs first, so warm caches favour neither
                return [self.execute(index, index % 2 == 1),
                        self.execute(index, index % 2 == 0)]
            rounds = max(1, round(seconds / (2 * self.nominal_round_s)))
        else:
            def execute(index):
                return [self.execute(index, False)]
            rounds = max(MIN_ROUNDS, round(seconds / self.nominal_round_s))
        setup: List[float] = []
        executions: List[Execution] = []
        walls = []
        for _ in range(rounds):
            if not trace:  # set-up time is an end-to-end metric
                # spread over the run, so one slow stretch of the host sets few samples
                setup.append(self.setup_sample())
            start = time.monotonic()
            for index in range(len(self.kinds)):
                executions.extend(execute(index))
            walls.append(time.monotonic() - start)
        failed_indices = set()
        for position, layer, reason in self.check(executions):
            failed_indices.add(position)
            self.record_failure(layer, reason)
        info = {
            "rounds": rounds,
            "requests_per_round": len(self.kinds),
            "setup_samples": [round(s, 6) for s in setup],
        }
        result = {
            "correct": not failed_indices,
            "attempted": len(executions),
            "failed": len(failed_indices),
        }
        info["failed_frac"] = {"value": len(failed_indices) / len(executions), "unit": "1"}
        if trace:
            result["metrics"] = self.layer_metrics(executions, info)
        else:
            result["metrics"] = self.end_to_end(executions, walls, setup, info)
        if self.first_failure:
            info["first_failure"] = self.first_failure
        return {"result": result, "info": info}

    def check(self, executions):
        """Exit status, byte-identical repeats, then each output's oracle.

        Every request runs once per round, so comparing each output with the
        first round's is the replay check: a request whose output is not
        bit-identical across rounds fails.
        """
        first_output: Dict[int, str] = {}
        oracles: Dict[int, object] = {}
        verdicts: Dict[tuple, object] = {}
        for position, ex in enumerate(executions):
            req = self.requests[ex.index]
            if not ex.ok:
                yield position, "cli", f"{' '.join(req.argv)} exited non-zero: {ex.error[-300:]}"
                continue
            reference = first_output.setdefault(ex.index, ex.output)
            if ex.output != reference:
                yield position, "cli", f"{' '.join(req.argv)}: output differs between repeats"
                continue
            key = (ex.index, ex.output)
            if key not in verdicts:
                if ex.index not in oracles:
                    oracles[ex.index] = self.oracle_for(req)
                try:
                    verdicts[key] = self.check_output(req, ex.output, oracles[ex.index])
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    verdicts[key] = ("cli", f"unparseable output ({exc!r})")
            mismatch = verdicts[key]
            if mismatch is not None:
                yield position, mismatch[0], f"{' '.join(req.argv)}: {mismatch[1]}"

    def end_to_end(self, executions, walls, setup, info) -> dict:
        latencies = [ex.latency for ex in executions]
        tail, pct = tail_percentile(latencies)
        info["samples"] = len(latencies)
        info["job_tail_percentile"] = pct
        info["latency_by_kind"] = {
            f"{kind}_s": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
            for kind, v in sorted(latencies_by_kind(executions, self.kinds).items())
        }
        reps = self.reps_completed(executions)
        if reps:
            info["reps_per_s"] = {"value": reps / sum(walls), "unit": "1/s", "reps": reps}
        info["round_walls_s"] = walls
        info["latencies_s"] = [[ex.index, round(ex.latency, 6)] for ex in executions]
        return {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            # median over rounds: a burst of host load spoils one round, not the run
            "jobs_per_s": {"value": statistics.median(len(self.kinds) / w for w in walls),
                           "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": max(ex.rss_mb for ex in executions), "unit": "MB"},
        }

    def layer_metrics(self, executions, info) -> dict:
        plain = sum(ex.latency for ex in executions if not ex.traced)
        traced = [ex for ex in executions if ex.traced]
        busy: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        failed: Dict[str, int] = dict(self.failures)
        counts: Dict[str, int] = {}
        cli_self = 0.0
        spans = []
        for position, ex in enumerate(traced):
            t = ex.trace or EMPTY_TRACE
            spans.append({"request": position, "what": self.describe(ex.index),
                          "spawn": ex.spawn, "end": ex.spawn + ex.latency,
                          "spans": t["spans"]})
            for layer, v in t["busy_s"].items():
                busy[layer] = busy.get(layer, 0.0) + v
            for layer, v in t["calls"].items():
                calls[layer] = calls.get(layer, 0) + v
            for layer, v in t["failed"].items():
                failed[layer] = failed.get(layer, 0) + v
            for key, v in t["counts"].items():
                counts[key] = counts.get(key, 0) + v
            cli_self += ex.latency - t["span_s"]
        startups = [ex.trace["main_start"] - ex.spawn for ex in traced if ex.trace]
        metrics = {
            "cli.startup_s": {"value": statistics.median(startups) if startups else 0.0,
                              "unit": "s"},
            "cli.self_s": {"value": cli_self, "unit": "s"},
            "cli.failed": {"value": failed.get("cli", 0), "unit": "count"},
        }
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = {"value": calls.get(layer, 0), "unit": "count"}
            metrics[f"{layer}.busy_s"] = {"value": busy.get(layer, 0.0), "unit": "s"}
            for counter in COUNTERS[layer]:
                metrics[f"{layer}.{counter}"] = {
                    "value": counts.get(f"{layer}.{counter}", 0), "unit": "count"}
            metrics[f"{layer}.failed"] = {"value": failed.get(layer, 0), "unit": "count"}
        reps = counts.get("estimation.reps", 0)
        metrics["estimation.prob_evals_per_rep"] = {
            "value": counts.get("estimation.prob_evals", 0) / reps if reps else 0.0,
            "unit": "1"}
        traced_total = sum(ex.latency for ex in traced)
        info["trace_totals_s"] = {"plain": plain, "traced": traced_total}
        path = WORK / f"spans-{self.name}-seed{self.seed}.json"
        path.write_text(json.dumps(spans))
        info["spans_file"] = str(path.relative_to(ROOT))
        metrics["trace.overhead_frac"] = {"value": traced_total / plain - 1.0, "unit": "1"}
        return metrics


class FamilyExact(Workload):
    name = "family-exact"
    make_round = staticmethod(family_exact_round)

    def oracle_for(self, req):
        return {"qfi": checks.qfi_oracle, "ppt": checks.ppt_oracle,
                "bell": checks.bell_oracle}[req.kind](self.lib, req)

    def check_output(self, req, stdout, oracle):
        if req.kind == "qfi":
            return checks.check_qfi(req, stdout, oracle)
        if req.kind == "ppt":
            return checks.check_ppt(self.lib, req, stdout, oracle)
        return checks.check_bell(req, stdout, oracle)


class MonteCarlo(Workload):
    name = "monte-carlo"
    make_round = staticmethod(monte_carlo_round)

    def oracle_for(self, req):
        return checks.estimate_oracle(self.lib, req)

    def check_output(self, req, stdout, oracle):
        return checks.check_estimate(req, stdout, oracle)

    def reps_completed(self, executions) -> int:
        return sum(self.requests[ex.index].int_option("--reps") for ex in executions if ex.ok)


WORKLOADS = {w.name: w for w in (FamilyExact, MonteCarlo)}


# -- provenance ---------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzmetro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(sys.modules.get("ghzmetro.bell"), "KERNEL_BACKEND", None),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "client": "closed loop, 1 request in flight",
    }


def reference_rows(digest: str) -> dict:
    """ROADMAP reference commands, timed once per source tree and cached."""
    cache = WORK / f"reference-{digest[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    rows = {}
    for name, argv in REFERENCE_COMMANDS.items():
        ex = run_cli(argv)
        rows[name] = {"value": ex.latency, "unit": "s", "exit_code_ok": ex.ok}
    cache.write_text(json.dumps(rows))
    return rows


# -- entry point ---------------------------------------------------------------------


def load_library():
    if not (SRC / "ghzmetro" / "cli.py").is_file():
        die(f"no ghzmetro sources under {SRC.name}/ next to {HERE.name}/")
    sys.path.insert(0, str(SRC))
    import ghzmetro

    return ghzmetro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](lib, args.seed)
    outcome = workload.run(args.seconds, bool(args.trace))
    env = environment(args.seed)
    meta = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **env,
        **outcome["info"],
        "reference": reference_rows(env["source_sha256"]),
    }
    print(json.dumps({"perfbench": meta}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
