"""levibridge benchmark.

    python3 bench/run.py --workload paper|certify|iso --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src/``. Workloads:

* ``paper``: the four end-to-end commands (``gen goedgebeur``,
  ``survey --p2fi``, ``refute``, ``aut --structure``), each in a fresh cold
  process, one after another, stdout compared byte for byte with the pinned
  outputs. The seed orders the commands within each pass.
* ``certify``: the refutation-hypothesis battery (graph6 decode,
  bipartition, girth, pseudo_2fi, ess4, cyclic edge connectivity) on a
  seeded stream of relabelled connected cubic graphs on 20-40 vertices.
* ``iso``: ``isomorphism(g, h)`` plus ``automorphism_group(g).order`` on
  seeded pairs of relabelled symmetric cubic graphs, half of them
  isomorphic.

Load comes from one process at a time (closed loop, one client). With
``--trace 0`` the end-to-end metrics are printed, their times in reference
seconds (``probe.py``); with ``--trace 1`` the per-layer metrics from a
traced run, in wall seconds. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it starting
with ``#`` give the environment, sample counts and wall-clock values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from checks import check_certify, check_iso, check_paper  # noqa: E402
from inputs import DATA, PAPER_COMMANDS, Stream  # noqa: E402
from tracer import BASELINE, TRACED, layer_metrics  # noqa: E402

WORKLOADS = ("paper", "certify", "iso")
SETUP_SAMPLES = 9
COLD_SAMPLES = 3  # cold import and startup samples in a traced run

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{name + suffix: unit for name in TRACED
       for suffix, unit in ((".calls", "count"), (".self_s", "s"))},
    "canon.ms_per_search": "ms",
    "canon.generators": "count",
    "canon.generator_ratio": "ratio",
    "construction.census_searches": "count",
    "groups.elements": "count",
    "twofactors.matchings": "count",
    "twofactors.us_per_matching": "us",
    "cuts.ess4.cut_found": "count",
    "cli.import_s": "s",
    "cli.startup_s": "s",
    **{f"cli.{name}_s": "s" for name in PAPER_COMMANDS},
    "trace.overhead_ratio": "ratio",
    **{name: ("ms" if name.endswith("_ms_per_search") else "s") for name in BASELINE},
}


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
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]):
        """Count one attempted operation and whether its checks failed."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    # -- processes ---------------------------------------------------------

    def timed(self, argv) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT,
                              timeout=170)
        return time.perf_counter() - start, proc

    def cold_import_s(self, samples: int, probed: bool) -> float:
        """Median time of a cold ``import levibridge`` process: wall seconds,
        or reference seconds with the speed probe running in the child."""
        code = "import levibridge"
        if probed:
            code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                    "from probe import SpeedProbe; p = SpeedProbe(); p.start(); "
                    "import levibridge; print(p.stop())")
        argv = [sys.executable, "-c", code]
        self.timed(argv)  # leaves the bytecode cache warm, as users have it
        times = []
        for _ in range(samples):
            took, proc = self.timed(argv)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr.decode(errors="replace"))
            times.append(took * float(proc.stdout) if probed else took)
        return statistics.median(times)

    def cli(self, name: str, argv, mode: str | None = None,
            out: Path | None = None) -> float:
        """One cold CLI command, plain or under ``cli_shim.py`` in ``mode``
        (writing to ``out``); its stdout is checked against the pin."""
        if mode is None:
            cmd = [sys.executable, "-m", "levibridge.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), mode, str(out), *argv]
        took, proc = self.timed(cmd)
        # The startup command, gen bridge 0123 0123, prints the identified graph.
        pinned = "gen_goedgebeur" if name == "startup" else name
        self.record(check_paper(name, proc.returncode, proc.stdout,
                                (DATA / "paper" / f"{pinned}.out").read_bytes()))
        return took

    # -- paper -------------------------------------------------------------

    def paper_order(self, pass_no: int) -> list[str]:
        names = list(PAPER_COMMANDS)
        random.Random(f"{self.seed}/paper/{pass_no}").shuffle(names)
        return names

    def run_paper(self, scratch: Path) -> list[list[tuple[float, float]]]:
        """Passes of the four cold commands, while another fits in
        --seconds; (wall, reference) seconds per command."""
        passes: list[list[tuple[float, float]]] = []
        speed = scratch / "speed.json"
        while not passes or (sum(map(_wall, passes)) + statistics.median(map(_wall, passes))
                             <= self.seconds):
            ops = []
            for name in self.paper_order(len(passes)):
                took = self.cli(name, PAPER_COMMANDS[name], "probe", speed)
                factor = json.loads(speed.read_text(encoding="ascii"))["speed"]
                ops.append((took, took * factor))
            passes.append(ops)
        return passes

    def trace_paper(self, scratch: Path) -> tuple[list[dict], dict]:
        """Each command plain and traced, in alternating order, both under
        the speed probe so that the overhead ratio is not the host's drift."""
        traces, extra = [], {}
        ref = {False: 0.0, True: 0.0}
        for i, name in enumerate(self.paper_order(0)):
            for tracing in ((False, True) if i % 2 == 0 else (True, False)):
                out = scratch / f"{name}.{'trace' if tracing else 'probe'}.json"
                took = self.cli(name, PAPER_COMMANDS[name],
                                "trace" if tracing else "probe", out)
                result = json.loads(out.read_text(encoding="ascii"))
                ref[tracing] += took * result["speed"]
                if tracing:
                    traces.append(result)
                else:
                    extra[f"cli.{name}_s"] = took
        extra["trace.overhead_ratio"] = ref[True] / ref[False]
        return traces, extra

    # -- certify and iso ---------------------------------------------------

    @contextlib.contextmanager
    def worker(self, spans: Path | None = None):
        """A worker process; on leaving, it is stopped (writing its spans
        to ``spans`` when given) and waited for."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), self.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env,
            cwd=ROOT, text=True)
        try:
            yield proc
            stop = {"stop": True, "spans": None if spans is None else str(spans)}
            proc.stdin.write(json.dumps(stop) + "\n")
            proc.stdin.flush()
            proc.stdout.readline()
            proc.stdin.close()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def batch(self, proc, items, trace: bool) -> dict:
        """Send one pass to the worker and check every result."""
        if self.workload == "certify":
            payload = [item["g6"] for item in items]
        else:
            payload = [[item["g"]["g6"], item["h"]["g6"]] for item in items]
        proc.stdin.write(json.dumps({"items": payload, "trace": trace}) + "\n")
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
        self.check(items, reply)
        return reply

    def check(self, items, reply):
        checker = check_certify if self.workload == "certify" else check_iso
        for item, result in zip(items, reply["results"], strict=True):
            self.record(checker(item, result))

    def run_stream(self) -> list[list[tuple[float, float]]]:
        """Passes until --seconds of measured wall time; (wall, reference)
        seconds per operation."""
        stream = Stream(self.workload, self.seed)
        passes: list[list[tuple[float, float]]] = []
        with self.worker() as proc:
            while sum(map(_wall, passes)) < self.seconds:
                reply = self.batch(proc, stream.batch(len(passes)), False)
                passes.append(list(zip(reply["op_s"], reply["op_ref_s"])))
        return passes

    def trace_stream(self, scratch: Path) -> tuple[list[dict], dict]:
        """A fixed number of twin passes, one untraced and one traced, over
        the same base graphs under different relabellings. The work is fixed
        so that counts repeat exactly for a seed; the overhead ratio compares
        reference seconds, so that it is not the host's drift."""
        stream = Stream(self.workload, self.seed)
        took = {False: 0.0, True: 0.0}
        spans = scratch / "worker.json"
        with self.worker(spans) as proc:
            for k in range(max(1, self.seconds // 10)):
                for trace in ((False, True) if k % 2 == 0 else (True, False)):
                    reply = self.batch(proc, stream.batch(k, variant=int(trace)), trace)
                    took[trace] += sum(reply["op_ref_s"])
        traces = [json.loads(spans.read_text(encoding="ascii"))]
        return traces, {"trace.overhead_ratio": took[True] / took[False]}

    # -- runs --------------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = self.cold_import_s(SETUP_SAMPLES, probed=True)
        if self.workload == "paper":
            with tempfile.TemporaryDirectory(dir=OUT) as scratch:
                passes = self.run_paper(Path(scratch))
        else:
            passes = self.run_stream()
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        wall_ops = [wall for ops in passes for wall, _ in ops]
        ref_ops = [ref for ops in passes for _, ref in ops]
        p90 = percentile(ref_ops, 90)
        print(f"# samples: passes={len(passes)} ops={len(ref_ops)} "
              f"beyond_op_p90={sum(x > p90 for x in ref_ops)}")
        print(f"# wall seconds: wall_s={statistics.median(map(_wall, passes)):.4f} "
              f"op_p50_ms={1e3 * percentile(wall_ops, 50):.2f} "
              f"op_p90_ms={1e3 * percentile(wall_ops, 90):.2f}")
        return {
            "wall_s": statistics.median(sum(ref for _, ref in ops) for ops in passes),
            "op_p50_ms": 1e3 * percentile(ref_ops, 50),
            "op_p90_ms": 1e3 * p90,
            "setup_s": setup,
            "peak_rss_mb": peak,
        }

    def per_layer(self) -> dict:
        """Traced run: layer metrics in wall seconds, plus cold import and
        startup times."""
        metrics = {f"cli.{name}_s": 0.0 for name in PAPER_COMMANDS}
        metrics["cli.import_s"] = self.cold_import_s(COLD_SAMPLES, probed=False)
        metrics["cli.startup_s"] = statistics.median(
            self.cli("startup", ["gen", "bridge", "0123", "0123"])
            for _ in range(COLD_SAMPLES))
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            if self.workload == "paper":
                traces, extra = self.trace_paper(Path(scratch))
            else:
                traces, extra = self.trace_stream(Path(scratch))
        metrics.update(extra)
        metrics.update(layer_metrics(traces))
        if self.workload == "paper":
            for key, expected in BASELINE.items():
                got = metrics[key]
                flag = "differs by more than 20%" if abs(got / expected - 1) > 0.2 else "ok"
                print(f"# baseline {key}: measured {got:.4g}, ROADMAP {expected:g} ({flag})")
        return metrics


def _wall(ops) -> float:
    """Wall seconds of one pass."""
    return sum(wall for wall, _ in ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levibridge" / "__init__.py").is_file():
        print(f"bench: no levibridge sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("# env: " + json.dumps(environment()))
    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        values, units = bench.per_layer(), PER_LAYER
    else:
        values, units = bench.end_to_end(), END_TO_END
    for problem in bench.problems[:20]:
        print("# FAILED " + problem)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
