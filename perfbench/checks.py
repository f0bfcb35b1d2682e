"""Correctness checks on every op's report, run outside the timed region.

``check_report`` returns a list of problems (empty when the report holds).
The invariants are properties of the program's answers, not of a stored
run, so they hold on every seed:

- the report parses with ``json.loads``;
- scan rows: ``margin > margin_tol`` exactly when ``gradient_strategic``,
  except for the tolerance band described at ``BLIND_BAND``;
- gramian: ``positive_definite`` equals the rank-test gradient verdict on
  the same placement, and the constant is ``1/sqrt(margin)``;
- reconstruct: ``err_region <= err_domain`` (with the program's own
  1e-12 slack from ``ErrorRecord.restriction_ok``);
- 1D rational check: ``state_strategic`` is false, and the rank and exact
  gradient verdicts agree whenever the exact witness is at most T.

``summary``/``compare`` pin the default seed's verdicts exactly and its
margins and errors to ``REL_TOL`` against ``reference.json``.
"""

from __future__ import annotations

import json
import math

# A 1D candidate within this distance of a gradient blind location
# (2k+1)/(2n), n <= T, has both verdicts decided inside their tolerances:
# the rank test keeps a cosine down to ~1e-10 while the margin drops below
# its 1e-10 tolerance once the cosine is ~1e-3.  Rows there may disagree;
# they are counted, not failed.  Every disagreement seen on this commit
# lay within 5e-6 of a blind location.
BLIND_BAND = 1e-4
REL_TOL = 1e-6
ABS_TOL = 1e-12
RESTRICTION_SLACK = 1e-12


def check_report(command: str, text: str, scenario_text: str) -> tuple[list[str], int]:
    """Problems found in one report, and the number of scan band rows."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], 0
    results = report["results"]
    if command == "scan":
        return _check_scan(results)
    if command == "gramian":
        return _check_gramian(results, scenario_text), 0
    if command == "reconstruct":
        region, domain = results["err_region"], results["err_domain"]
        if not region <= domain + RESTRICTION_SLACK:
            return [f"err_region {region} > err_domain {domain}"], 0
        return [], 0
    if command == "check":
        return _check_check(results), 0
    return [f"unexpected command {command}"], 0


def _check_scan(results: dict) -> tuple[list[str], int]:
    tol = results["tolerances"]["margin"]
    problems, band = [], 0
    for row in results["rows"]:
        above = float(row["margin"]) > tol
        if above == row["gradient_strategic"]:
            continue
        near = row.get("nearest_gradient_blind")
        if (row["gradient_strategic"] and near is not None
                and near["distance"] <= BLIND_BAND):
            band += 1
            continue
        problems.append(f"scan row b=({row['b1']}, {row['b2']}): margin {row['margin']} "
                        f"vs gradient_strategic {row['gradient_strategic']}")
    return problems, band


def _check_gramian(results: dict, scenario_text: str) -> list[str]:
    from gradsense.scenario import parse_scenario
    from gradsense.strategic import rank_test

    sc = parse_scenario(scenario_text)
    verdict = rank_test(sc.basis, list(sc.sensors), sc.rank_rtol, sc.grouping_rtol, sc.quad)
    problems = []
    if results["positive_definite"] != verdict.gradient_strategic:
        problems.append(f"positive_definite {results['positive_definite']} but rank "
                        f"gradient verdict {verdict.gradient_strategic}")
    # reports write non-finite values as "inf"/"nan", which float() reads
    margin, constant = float(results["margin"]), float(results["observability_constant"])
    if results["positive_definite"]:
        if not margin > 0:
            return problems + [f"positive definite with margin {margin}"]
        expected = 1.0 / math.sqrt(margin)
        if not math.isclose(constant, expected, rel_tol=1e-12):
            problems.append(f"constant {constant} != 1/sqrt(margin) = {expected}")
    elif not math.isinf(constant):
        problems.append(f"constant {constant} is finite for a singular Gramian")
    return problems


def _check_check(results: dict) -> list[str]:
    joint = results.get("exact_joint")
    if joint is None:
        return []
    problems = []
    if results["state_strategic"]:
        problems.append("a rational 1D suite is reported state strategic")
    witness = joint["gradient_witness"]
    if witness is not None and witness <= results["truncation"] \
            and not results["engines_agree"]["gradient"]:
        problems.append(f"rank and exact gradient verdicts disagree at witness {witness} "
                        f"<= T={results['truncation']}")
    return problems


def summary(command: str, text: str) -> dict:
    """The verdicts, margins and errors of a report that a reference pins."""
    r = json.loads(text)["results"]
    if command == "scan":
        return {"rows": [[row["state_strategic"], row["gradient_strategic"], row["margin"]]
                         for row in r["rows"]]}
    if command == "gramian":
        return {key: r[key] for key in ("positive_definite", "margin",
                                        "observability_constant")}
    if command == "reconstruct":
        return {key: r[key] for key in ("err_region", "err_domain",
                                        "relative_coefficient_error")}
    keys = ("state_strategic", "gradient_strategic", "engine",
            "per_sensor_gradient_strategic", "engines_agree", "exact_joint")
    out = {key: r[key] for key in keys if key in r}
    if "closed_form" in r:
        out["closed_form"] = [block.get("all_pass") for block in r["closed_form"]]
    return out


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between two summaries: exact except for numbers."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{where}[{i}]")]
    if _is_number(expected) and _is_number(actual):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {actual!r} differs from reference {expected!r}"]
    if expected != actual or type(expected) is not type(actual):
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return []


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
