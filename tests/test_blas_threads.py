"""Reports do not depend on the BLAS thread count.

check, gramian, scan and split reports must be byte-identical whatever
number of threads OpenBLAS uses: a threaded GEMM may sum in another order,
so no number in those reports may come from a BLAS reduction whose order
the thread count sets.  Each side runs in its own interpreter, because the
thread count is read when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "scenarios").glob("*.cfg"))

SCAN_1D = """
domain.kind = interval
region.bounds = 0.2, 0.5
basis.truncation = 50
sensor.1.kind = pointwise
sensor.1.location = 0.3
horizon = 1
scan.grid = 0.01:0.99:99
"""

GRAMIAN_2D = """
domain.kind = rectangle
region.bounds = 0.2, 0.6, 0.3, 0.7
basis.truncation = 45
sensor.1.kind = pointwise
sensor.1.location = 0.31, 0.62
sensor.2.kind = pointwise
sensor.2.location = 0.7071, 0.2236
horizon = 1
"""

# runs each argument list through the CLI and prints [exit code, stdout] pairs
RUNNER = """
import contextlib, io, json, sys
from gradsense.cli import main
out = []
for args in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    out.append([code, buffer.getvalue()])
sys.stdout.write(json.dumps(out))
"""


def _cases(tmp_path: Path) -> list[list[str]]:
    scan, gramian = tmp_path / "scan_1d_t50.cfg", tmp_path / "gramian_2d_t45.cfg"
    scan.write_text(SCAN_1D, encoding="utf-8")
    gramian.write_text(GRAMIAN_2D, encoding="utf-8")
    cases = [["scan", "--config", str(scan)], ["gramian", "--config", str(gramian)]]
    for path in SHIPPED:
        text = path.read_text(encoding="utf-8")
        for command in ("check", "gramian", "scan", "split"):
            args = [command, "--config", str(path)]
            if command == "scan" and "scan.grid" not in text:
                args += ["--grid", "5x5" if "rectangle" in text else "0.05:0.95:19"]
            cases.append(args)
    return cases


def _run(cases: list[list[str]], threads: int) -> list[list]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_reports_identical_at_one_and_two_blas_threads(tmp_path):
    assert SHIPPED, "no shipped scenarios found"
    cases = _cases(tmp_path)
    one, two = _run(cases, 1), _run(cases, 2)
    for args, (code1, out1), (code2, out2) in zip(cases, one, two):
        assert code1 == code2 == 0, args
        assert out1.encode("utf-8") == out2.encode("utf-8"), args
    assert len(one) == len(two) == len(cases)

