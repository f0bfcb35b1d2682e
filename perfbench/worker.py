"""One workload run in a fresh process: generate, warm up, time, check.

Started by run.py, never by hand: run.py sets the BLAS thread count and
the import path before this interpreter starts, and times interpreter
set-up on its own.  The last stdout line is a JSON object with the run's
measurements; run.py turns it into the benchmark result.

An op is ``gradsense.cli.main([command, "--config", cfg, "--out", out])``
called in-process, one after another (closed loop, one client).  Each op
starts from a clean slate: garbage is collected and every cache in the
gradsense modules is cleared first, as a fresh CLI process would have it.
Before that, untimed, one host-speed probe runs (hostspeed.py); the timed
run scales each op's latency by the probes around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gradsense  # noqa: E402  (run.py puts the checkout's src/ on the path)
from gradsense import cli  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

DEADLINE_S = 20.0        # per op; an overrun is a counted failure, not a hang
GENERATED_CYCLES = 12    # ops past these wrap around to the first scenarios
HARD_STOP_FACTOR = 3.0   # wall-clock cap on a timed run, in multiples of --seconds
DEFAULT_SEED = 1         # the seed whose reports are pinned in reference.json
REFERENCE = HERE / "reference.json"


class OpDeadline(BaseException):
    """Raised by the op timer; ``cli.main``'s ``except Exception`` cannot catch it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("gradsense"):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class Runner:
    """Runs op k of the generated sequence and reports what happened."""

    def __init__(self, ops: list[workloads.Op], work: Path):
        self.ops = ops
        self.configs = []
        for k, op in enumerate(ops):
            path = work / f"op{k:04d}.cfg"
            path.write_text(op.text, encoding="utf-8")
            self.configs.append(str(path))
        self.out = work / "report.out"
        self.probes: list[tuple[float, float]] = []   # one host-speed probe before each op
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, k: int) -> tuple[str, float, str | None, str]:
        """(status, latency, report text, stderr); status is ok, overrun, crash or exit N."""
        index = k % len(self.ops)
        op = self.ops[index]
        self.probes.append(hostspeed.probe())
        gc.collect()
        _clear_caches()
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        argv = [op.command, "--config", self.configs[index], "--out", str(self.out)]
        start = end = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                finally:
                    end = time.perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            return "overrun", end - start, None, err.getvalue()
        except Exception as exc:  # noqa: BLE001 - an escaped error is a failed op
            return "crash", end - start, None, f"{err.getvalue()}{exc!r}"
        if code != 0:
            return f"exit {code}", end - start, None, err.getvalue()
        return "ok", end - start, self.out.read_text(encoding="utf-8"), err.getvalue()


class Outcomes:
    """Failure causes, check problems and scan band rows of a run."""

    def __init__(self, seed: int, workload: str):
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.band_rows = 0
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())[workload]

    def judge(self, op: workloads.Op, index: int, status: str, text, stderr) -> bool:
        """Check one op's outcome; return whether it passed."""
        if status != "ok":
            return self.fail(status, f"op {index} ({op.template}): {status}: "
                                      f"{stderr.strip()[-300:]}")
        try:
            found, band = checks.check_report(op.command, text, op.text)
        except (KeyError, TypeError, ValueError) as exc:  # a report of the wrong shape
            found, band = [f"report not checkable: {exc!r}"], 0
        self.band_rows += band
        if found:
            return self.fail("check", f"op {index} ({op.template}): {found[:3]}")
        if self.reference is not None and index < len(self.reference):
            diff = checks.compare(self.reference[index], checks.summary(op.command, text),
                                  f"op{index}")
            if diff:
                return self.fail("reference", f"op {index} ({op.template}): {diff[:3]}")
        return True

    def fail(self, cause: str, message: str) -> bool:
        self.failures[cause] = self.failures.get(cause, 0) + 1
        if len(self.problems) < 20:
            self.problems.append(message)
        return False

    @property
    def correct(self) -> bool:
        """Overruns leave no output to judge; every other failure is a wrong answer."""
        return all(cause == "overrun" for cause in self.failures)


def _percentile(latencies: list[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with ``percent``% at or below it."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def timed_run(runner: Runner, cycle: int, seconds: float, workload: str,
              outcomes: Outcomes) -> dict:
    """Run whole cycles until ``seconds`` of op time have passed.

    Op ``k`` sits at position ``k % cycle`` of the cycle, and every position
    keeps its template.  The time metrics use, for each position, the median
    over the run's cycles of its host-speed-scaled latency (hostspeed.py):
    a burst of slowness in one cycle moves a median little and a mean a lot.
    ``op_p50_s`` and ``op_tail_s`` are the median and the workload's tail
    percentile (``workloads.TAIL_PERCENTILE``) of the completed ops, each op at
    its position's median; ``ops_per_s`` is the passed share of a cycle of
    ops at those medians.
    """
    runs = []   # (position, status, measured latency, passed)
    busy, k = 0.0, 0
    first_probe = len(runner.probes)
    hard_stop = time.perf_counter() + HARD_STOP_FACTOR * seconds
    while not (k % cycle == 0 and busy >= seconds) and time.perf_counter() < hard_stop:
        status, latency, text, stderr = runner.run(k)
        busy += latency
        op = runner.ops[k % len(runner.ops)]
        good = outcomes.judge(op, k % len(runner.ops), status, text, stderr)
        runs.append((k % cycle, status, latency, good))
        k += 1
    completed = [r for r in runs if r[1] == "ok"]
    if not completed:
        raise RuntimeError(f"no op completed: {outcomes.problems[:3]}")
    probes = runner.probes[first_probe:]
    scales = hostspeed.scale_factors(probes, workloads.LAPACK_SHARE[workload])
    scaled = [latency * f for (_, _, latency, _), f in zip(runs, scales)]
    every, ok = {}, {}
    for (position, status, _, _), latency in zip(runs, scaled):
        every.setdefault(position, []).append(latency)
        if status == "ok":
            ok.setdefault(position, []).append(latency)
    every_p50 = {p: statistics.median(v) for p, v in every.items()}
    ok_p50 = {p: statistics.median(v) for p, v in ok.items()}
    typical = [ok_p50[r[0]] for r in completed]
    passed = sum(r[3] for r in runs)
    measured = [r[2] for r in completed]
    tail_percent = workloads.TAIL_PERCENTILE[workload]
    return {
        "attempted": k,
        "failed": k - passed,
        "metrics": {
            "op_p50_s": statistics.median(typical),
            "op_tail_s": _percentile(typical, tail_percent),
            "ops_per_s": passed / k * len(every_p50) / sum(every_p50.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": passed / k,
        },
        "detail": {
            "completed_ops": len(completed),
            "tail_percentile": tail_percent,
            "ops_beyond_tail": len(completed) - math.ceil(tail_percent / 100.0 * len(completed)),
            "cycles": k / cycle,
            "op_seconds": busy,
            "probe_p50_s": {"interp": statistics.median(p[0] for p in probes),
                            "lapack": statistics.median(p[1] for p in probes)},
            "unscaled": {"op_p50_s": statistics.median(measured),
                         "op_tail_s": _percentile(measured, tail_percent),
                         "ops_per_s": passed / busy},
            "position_p50_s": {f"{p}:{runner.ops[p].template}": v
                               for p, v in sorted(ok_p50.items())},
            # per op: position, status, measured latency, probe parts
            "op_records": [[position, status, latency, *probe] for
                           (position, status, latency, _), probe in zip(runs, probes)],
        },
    }


FUNCTION_METRICS = (
    "cli.main.self_s", "cli.main.calls",
    "scenario.parse_scenario.self_s",
    "commands.run_command.self_s",
    "commands.location_scan.self_s", "commands.location_scan.calls",
    "spectral.gradient_gram.self_s", "spectral.gradient_gram.calls",
    "spectral.gradient_gram.calls_per_op",
    "spectral.eigenfunction_values.self_s", "spectral.eigenfunction_values.calls",
    "spectral.eigenfunction_gradients.self_s", "spectral.eigenfunction_gradients.calls",
    "quadrature.interval_rule.calls", "quadrature.interval_rule.self_s",
    "quadrature.gauss_panels.self_s",
    "sensors.signature_matrix.self_s", "sensors.signature_matrix.calls",
    "sensors.signature_matrix.calls_per_candidate",
    "sensors.simulate_output.self_s",
    "sensors.validate_sensor.calls",
    "strategic.group_eigenvalues.self_s", "strategic.group_eigenvalues.calls",
    "strategic.group_eigenvalues.calls_per_candidate",
    "strategic.rank_test.self_s", "strategic.rank_test.calls",
    "strategic.exact_pointwise_verdict_1d.self_s",
    "strategic.exact_pointwise_verdict_1d.calls",
    "strategic.closed_form_condition.self_s", "strategic.closed_form_condition.calls",
    "strategic.closed_form_condition.errors",
    "strategic.forbidden_sets_1d.self_s",
    "gramian.assemble_gramian.self_s", "gramian.assemble_gramian.calls",
    "reconstruct.estimate_coefficients.self_s", "reconstruct.estimate_coefficients.calls",
    "reconstruct.design_matrix.self_s",
    "reconstruct.reconstruction_error.self_s",
    "report.emit_report.self_s",
    "linalg.svd.self_s", "linalg.svd.calls", "linalg.svd.calls_per_candidate",
    "linalg.eigh.self_s", "linalg.eigh.calls",
    "linalg.eigvalsh.self_s", "linalg.eigvalsh.calls",
    "linalg.lstsq.self_s", "linalg.lstsq.calls", "linalg.lstsq.calls_per_op",
)


def layer_metrics(tracer: Tracer, ops: list[workloads.Op], overhead: float) -> dict:
    """Per-layer metrics of the traced cycle, by the names BENCHMARK.json lists."""
    stats = tracer.stats
    candidates = sum(op.candidates for op in ops)
    out = {}
    for layer in MODULES + ("linalg",):
        out[f"{layer}.self_s"] = sum(v[1] for k, v in stats.items()
                                     if k.startswith(layer + "."))
    for metric in FUNCTION_METRICS:
        function, field = metric.rsplit(".", 1)
        calls, self_s, errors = stats.get(function, (0, 0.0, 0))
        out[metric] = {"calls": calls, "self_s": self_s, "errors": errors,
                       "calls_per_op": calls / len(ops),
                       "calls_per_candidate": calls / candidates if candidates else 0.0,
                       }[field]
    out.update(tracer.counters)
    out["trace.errors"] = sum(v[2] for v in stats.values())
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_frac"] = overhead
    return out


def traced_run(runner: Runner, cycle: int, outcomes: Outcomes, out_file: Path) -> dict:
    """Each op of one cycle run untraced and traced; compare report bytes.

    The two runs of an op are back to back, in alternating order, so their
    time ratio is the tracing overhead and not machine drift or warm-up.
    """
    ops = runner.ops[:cycle]
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    for k in range(cycle):
        texts = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.op = k
            try:
                status, latency, texts[traced], stderr = runner.run(k)
            finally:
                tracer.uninstall()
            seconds[traced] += latency
            if not traced:
                outcomes.judge(ops[k], k, status, texts[traced], stderr)
            elif status != "ok":
                outcomes.fail(status, f"traced op {k} ({ops[k].template}): {status}")
        if None not in texts.values() and texts[True] != texts[False]:
            outcomes.fail("bytes", f"op {k}: traced report differs from untraced")
    plain_s, traced_s = seconds[False], seconds[True]
    metrics = layer_metrics(tracer, ops, traced_s / plain_s - 1.0 if plain_s else 0.0)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps({
        "ops": [op.template for op in ops],
        "functions": {name: {"calls": v[0], "self_s": v[1], "errors": v[2]}
                      for name, v in sorted(tracer.stats.items())},
        "metrics": metrics,
        "spans": tracer.spans,
    }))
    failed = sum(outcomes.failures.values())
    return {"attempted": 2 * cycle, "failed": failed, "metrics": metrics,
            "detail": {"trace_file": str(out_file.relative_to(ROOT)),
                       "untraced_s": plain_s, "traced_s": traced_s}}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    source = Path(gradsense.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worker: gradsense imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    cycle = len(workloads.CYCLES[args.workload])
    ops = workloads.generate(args.workload, args.seed, GENERATED_CYCLES)
    runner = Runner(ops, Path(args.work))
    outcomes = Outcomes(args.seed, args.workload)

    if args.write_reference:
        summaries = []
        for k in range(cycle):
            status, _, text, stderr = runner.run(k)
            if status != "ok":
                print(f"worker: op {k} failed: {status} {stderr}", file=sys.stderr)
                return 1
            summaries.append(checks.summary(ops[k].command, text))
        print(json.dumps({"reference": summaries}))
        return 0

    runner.run(0)  # untimed warm-up: the first op in a process runs slower
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        result = traced_run(runner, cycle, outcomes, trace_file)
    else:
        result = timed_run(runner, cycle, args.seconds, args.workload, outcomes)
    result["correct"] = outcomes.correct
    result["detail"].update(failures=outcomes.failures, problems=outcomes.problems,
                            scan_band_rows=outcomes.band_rows,
                            reference_checked=outcomes.reference is not None,
                            environment=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
