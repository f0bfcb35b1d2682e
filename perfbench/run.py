"""gradsense benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a gradsense checkout.  ``--trace 0`` times whole
cycles of ops for ``--seconds`` of op time and prints the end-to-end
metrics, with times scaled to a reference host speed (hostspeed.py);
``--trace 1`` runs one cycle untraced and the same cycle traced and prints
the per-layer metrics.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the run's detail (sample counts, tail percentile, failure causes,
environment).  ``--write-reference`` regenerates reference.json from the
default seed; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = "1"      # at most nproc; one thread is steadiest on a small shared host
SETUP_LAUNCHES = 9      # timed interpreter launches per run, after one untimed
PROBES_PER_SIDE = 3     # host-speed probes before and after each launch
SETUP_LAPACK_SHARE = 0.0  # start-up is interpreter and loader work, no LAPACK
RUN_LIMIT_S = 170.0     # the worker is killed past this, so a run ends within 180 s
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}
SUFFIX_UNITS = {"self_s": "s", "calls_per_candidate": "calls/candidate",
                "calls_per_op": "calls/op", "overhead_frac": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name) or SUFFIX_UNITS.get(name.rsplit(".", 1)[-1], "count")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # the same set and dict order in every run
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter importing gradsense.cli: (scaled, measured).

    Each launch is scaled like an op latency (hostspeed.py), by the median
    of the host-speed probes run in this process just before and after it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads, so the probe runs as in the worker
    import hostspeed

    command = [sys.executable, "-c", "import gradsense.cli"]
    scaled, measured = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        probes = [hostspeed.probe() for _ in range(PROBES_PER_SIDE)]
        start = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls in sleeps of up to 50 ms
        code = subprocess.Popen(command, env=env, cwd=ROOT).wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing gradsense.cli exited with code {code}")
        probes += [hostspeed.probe() for _ in range(PROBES_PER_SIDE)]
        if launch:  # the first launch also compiles bytecode; users pay that once
            measured.append(elapsed)
            scaled.append(elapsed / hostspeed.slowdown(probes, SETUP_LAPACK_SHARE))
    return statistics.median(scaled), statistics.median(measured)


def run_worker(args, env: dict, work: Path, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
    if args.write_reference:
        command.append("--write-reference")
    proc = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="print this workload's default-seed reference entry")
    args = parser.parse_args()

    if not (ROOT / "src" / "gradsense" / "cli.py").is_file():
        print(f"run.py: no gradsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = None if args.trace or args.write_reference else setup_seconds(env)
        child = run_worker(args, env, work, started + RUN_LIMIT_S)
    except (subprocess.SubprocessError, RuntimeError, ValueError, IndexError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write_reference:
        print(json.dumps(child["reference"]))
        return 0

    metrics = child["metrics"]
    if not args.trace:
        metrics = {"setup_s": setup[0], **metrics}
        child["detail"]["unscaled"]["setup_s"] = setup[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **child["detail"]}))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
