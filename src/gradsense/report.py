"""Machine-readable report emission.

JSON reports are single objects with a deterministic key order and every
float printed with 15 significant digits, so identical runs produce
byte-identical files.  Non-finite values become the strings "inf", "-inf"
and "nan" to keep the output strictly parseable.  CSV output is a header
row plus data rows, UTF-8 with LF line endings; the scan table schema is
fixed, other commands flatten their main table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ValidationError

# RFC 8259: control characters U+0000-U+001F must be escaped in strings
_CONTROL_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    0x08: "\\b", 0x09: "\\t", 0x0A: "\\n", 0x0C: "\\f", 0x0D: "\\r"}


@dataclass(frozen=True, eq=False)
class Report:
    """A command's outcome: results plus everything needed to reproduce them.

    wall_time_seconds is informational and deliberately excluded from the
    emitted bytes; emitted reports must be identical across repeat runs.
    """

    command: str
    version: str
    scenario: tuple[tuple[str, str], ...]
    results: dict
    wall_time_seconds: float = 0.0


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.15g}"


def _json_fragment(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out.append(str(int(value)))
    elif isinstance(value, Fraction):
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        text = value.replace("\\", "\\\\").replace('"', '\\"')
        if not text.isprintable():
            text = text.translate(_CONTROL_ESCAPES)
        out.append('"' + text + '"')
    elif isinstance(value, dict):
        out.append("{")
        for k, (key, item) in enumerate(value.items()):
            if k:
                out.append(",")
            _json_fragment(str(key), out)
            out.append(":")
            _json_fragment(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for k, item in enumerate(seq):
            if k:
                out.append(",")
            _json_fragment(item, out)
        out.append("]")
    elif isinstance(value, numbers.Real):
        out.append(format_float(float(value)))
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


def report_to_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "version": report.version,
        "scenario": {k: v for k, v in report.scenario},
        "results": report.results,
    }
    out: list[str] = []
    _json_fragment(payload, out)
    return "".join(out) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value)).strip('"')
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def report_to_csv(report: Report) -> str:
    """Flatten the report's main table; schema depends on the command."""
    results = report.results
    if report.command == "scan":
        rows = [[r["b1"], r.get("b2"), r["state_strategic"], r["gradient_strategic"],
                 r["margin"]] for r in results["rows"]]
        return _csv_table(["b1", "b2", "state_strategic", "gradient_strategic", "margin"],
                          rows)
    if report.command == "simulate":
        series = results["series"]
        header = ["t"] + [f"y{k + 1}" for k in range(len(series))]
        rows = [[t] + [series[s][j] for s in range(len(series))]
                for j, t in enumerate(results["times"])]
        return _csv_table(header, rows)
    if report.command == "check":
        rows = [[r["eigenvalue"], ";".join(_mode_text(m) for m in r["modes"]),
                 r["multiplicity"], r["rank_gradient"], r["rank_state"],
                 r["pass_gradient"], r["pass_state"]]
                for r in results["groups"]]
        return _csv_table(["eigenvalue", "modes", "multiplicity", "rank_gradient",
                           "rank_state", "pass_gradient", "pass_state"], rows)
    if report.command == "gramian":
        rows = [[g["eigenvalue"], g["multiplicity"], g["margin"], g["rank_deficient"]]
                for g in results["group_margins"]]
        return _csv_table(["eigenvalue", "multiplicity", "margin", "rank_deficient"], rows)
    if report.command == "reconstruct":
        truth = results.get("true_coefficients")
        rows = [[_mode_text(m), results["estimated_coefficients"][k],
                 truth[k] if truth is not None else None,
                 results["identifiable"][k]]
                for k, m in enumerate(results["modes"])]
        return _csv_table(["mode", "estimate", "true", "identifiable"], rows)
    if report.command == "split":
        rows = [[_mode_text(m), results["in_kernel"][k], results["mode_strengths"][k]]
                for k, m in enumerate(results["modes"])]
        return _csv_table(["mode", "in_kernel", "signature_strength"], rows)
    raise ValidationError(f"no CSV schema for command {report.command!r}")


def _mode_text(mode) -> str:
    if isinstance(mode, (list, tuple)):
        return "x".join(str(i) for i in mode)
    return str(mode)


def emit_report(report: Report, fmt: str = "json", path: str | Path | None = None) -> str:
    """Serialize the report; write it when a path is given.

    Returns the serialized text either way.  The written file ends with a
    single LF and is UTF-8 encoded.
    """
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ValidationError(f"cannot write report to {path}: {exc}") from None
    return text
