"""Seeded scenario generators for the four benchmark workloads.

Every op is one CLI call on one generated scenario file.  A workload is a
fixed cycle of op templates; each template fixes the parameters that set an
op's cost (command, dimension, truncation, candidate or sensor count,
regularization) and draws the rest (regions, placements, horizons, grid
bounds, coefficients, noise seeds) from the seeded generator.  So two seeds
give different scenarios with the same cost profile, and a run made of
whole cycles has the same op mix on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("scan", "gramian2d", "reconstruct", "check")


@dataclass(frozen=True)
class Op:
    """One generated CLI call: ``gradsense <command> --config <text>``."""

    command: str
    template: str
    text: str
    candidates: int = 0


def _f(x: float) -> str:
    return f"{x:.6f}"


def _interval_region(rng: random.Random) -> tuple[float, float]:
    lo = rng.uniform(0.05, 0.45)
    return lo, min(0.95, lo + rng.uniform(0.2, 0.45))


def _lines(**keys) -> list[str]:
    """Scenario lines; a keyword spells its key with "__" for "."."""
    return [f"{k.replace('__', '.')} = {v}" for k, v in keys.items()]


def _scenario(header: str, lines: list[str]) -> str:
    return "\n".join([f"# {header}"] + lines) + "\n"


def _scan_1d(truncation: int, count: int):
    def make(rng: random.Random) -> Op:
        lo, hi = _interval_region(rng)
        a, b = rng.uniform(0.01, 0.1), rng.uniform(0.9, 0.99)
        lines = _lines(domain__kind="interval",
                       region__bounds=f"{_f(lo)}, {_f(hi)}",
                       basis__truncation=truncation,
                       sensor__1__kind="pointwise",
                       sensor__1__location=_f(rng.uniform(0.1, 0.9)),
                       horizon=_f(rng.uniform(0.5, 2.0)),
                       scan__grid=f"{_f(a)}:{_f(b)}:{count}")
        return Op("scan", f"scan1d-T{truncation}-c{count}",
                  _scenario("1D location sweep", lines), count)
    return make


def _box_2d(rng: random.Random, lo_w: float, hi_w: float) -> list[float]:
    out = []
    for _ in range(2):
        w = rng.uniform(lo_w, hi_w)
        lo = rng.uniform(0.03, 0.97 - w)
        out += [lo, lo + w]
    return out


def _scan_2d(side: int):
    def make(rng: random.Random) -> Op:
        region = _box_2d(rng, 0.25, 0.5)
        axes = [f"{_f(rng.uniform(0.02, 0.1))}:{_f(rng.uniform(0.9, 0.98))}:{side}"
                for _ in range(2)]
        lines = _lines(domain__kind="rectangle",
                       region__bounds=", ".join(_f(v) for v in region),
                       basis__truncation=8,
                       sensor__1__kind="pointwise",
                       sensor__1__location=f"{_f(rng.uniform(0.1, 0.9))}, "
                                           f"{_f(rng.uniform(0.1, 0.9))}",
                       horizon=_f(rng.uniform(0.5, 2.0)),
                       scan__grid=",".join(axes))
        return Op("scan", f"scan2d-T8-{side}x{side}",
                  _scenario("2D location sweep", lines), side * side)
    return make


def _points_2d(rng: random.Random, count: int) -> list[str]:
    return [f"{_f(rng.uniform(0.05, 0.95))}, {_f(rng.uniform(0.05, 0.95))}"
            for _ in range(count)]


def _gramian_2d(truncation: int, sensors: int, square: bool):
    """A unit square has repeated eigenvalues, so 2-3 sensors are never
    enough there; a random rectangle has simple ones and positive margins."""
    def make(rng: random.Random) -> Op:
        height = 1.0 if square else rng.uniform(0.6, 0.9)
        region = _box_2d(rng, 0.25, 0.6)
        region[2:] = [v * height for v in region[2:]]
        lines = _lines(domain__kind="rectangle", domain__lengths=f"1, {_f(height)}",
                       region__bounds=", ".join(_f(v) for v in region),
                       basis__truncation=truncation)
        for k in range(1, sensors + 1):
            x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * height
            lines += [f"sensor.{k}.kind = pointwise", f"sensor.{k}.location = {_f(x)}, {_f(y)}"]
        lines += _lines(horizon=_f(rng.uniform(0.5, 2.0)), signature_mode="gradient")
        shape = "square" if square else "rect"
        return Op("gramian", f"gramian2d-T{truncation}-q{sensors}-{shape}",
                  _scenario("2D Gramian margin", lines))
    return make


def _coefficients(rng: random.Random, decay: list[float]) -> str:
    return ", ".join(f"{rng.gauss(0.0, 1.0) / d:.6g}" for d in decay)


def _reconstruct(dim: int, regularization: str, zonal: bool):
    noise = 1e-4
    values = {"none": None, "tikhonov": "1e-8", "discrepancy": f"{noise:g}"}

    def make(rng: random.Random) -> Op:
        if dim == 1:
            truncation = 40
            lo, hi = _interval_region(rng)
            lines = _lines(domain__kind="interval", region__bounds=f"{_f(lo)}, {_f(hi)}",
                           basis__truncation=truncation)
            decay = [float(n) for n in range(1, truncation + 1)]
            sensors = []
            for _ in range(2):
                if zonal and not sensors:
                    c = rng.uniform(0.2, 0.8)
                    sensors.append(("zonal", f"{_f(c - 0.05)}, {_f(c + 0.05)}"))
                else:
                    sensors.append(("pointwise", _f(rng.uniform(0.05, 0.95))))
        else:
            truncation = 12
            region = _box_2d(rng, 0.25, 0.6)
            lines = _lines(domain__kind="rectangle",
                           region__bounds=", ".join(_f(v) for v in region),
                           basis__truncation=truncation)
            decay = [float(i + j) for i in range(1, truncation + 1)
                     for j in range(1, truncation + 1)]
            sensors = [("pointwise", p) for p in _points_2d(rng, 3)]
            if zonal:
                box = _box_2d(rng, 0.1, 0.1)
                sensors[0] = ("zonal", ", ".join(_f(v) for v in box))
        for k, (kind, where) in enumerate(sensors, start=1):
            key = "box" if kind == "zonal" else "location"
            lines += [f"sensor.{k}.kind = {kind}", f"sensor.{k}.{key} = {where}"]
        lines += _lines(horizon=_f(rng.uniform(0.5, 1.5)), time__samples=256,
                        time__spacing="geometric", signature_mode="state",
                        noise__stddev=f"{noise:g}", noise__seed=rng.randrange(10 ** 6),
                        regularization__kind=regularization)
        if values[regularization] is not None:
            lines += _lines(regularization__value=values[regularization])
        lines += _lines(initial__coefficients=_coefficients(rng, decay))
        kind = "zonal" if zonal else "pointwise"
        return Op("reconstruct", f"reconstruct{dim}d-{regularization}-{kind}",
                  _scenario("noisy reconstruction", lines))
    return make


def _fraction(rng: random.Random, denominator: int) -> Fraction:
    while True:
        p = rng.randrange(1, denominator)
        if gcd(p, denominator) == 1:
            return Fraction(p, denominator)


# every subset has lcm(2q) <= 1440, so the brute-force verdict takes milliseconds
FAST_DENOMINATORS = (3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30)


def _check_rational(count: int):
    """Rational 1D suites with small denominators: periods stay small."""
    def make(rng: random.Random) -> Op:
        locations: set[Fraction] = set()
        while len(locations) < count:
            locations.add(_fraction(rng, rng.choice(FAST_DENOMINATORS)))
        return _check_1d(rng, [str(b) for b in sorted(locations)],
                         f"check1d-rational-q{count}")
    return make


SLOW_DENOMINATORS = (61, 67, 71)


def _check_rational_slow(rng: random.Random) -> Op:
    """Three odd prime denominators: no gradient witness exists, so the
    brute-force exact verdict walks a whole period, 2*61*67*71 = 580394."""
    return _check_1d(rng, [str(_fraction(rng, q)) for q in SLOW_DENOMINATORS],
                     "check1d-rational-slow")


def _check_decimal(count: int):
    def make(rng: random.Random) -> Op:
        return _check_1d(rng, [_f(rng.uniform(0.05, 0.95)) for _ in range(count)],
                         f"check1d-decimal-q{count}", truncation=50)
    return make


def _check_1d(rng: random.Random, locations: list[str], template: str,
              truncation: int = 25) -> Op:
    lo = Fraction(rng.randrange(1, 5), 10)
    hi = lo + Fraction(rng.randrange(2, 5), 10)
    lines = _lines(domain__kind="interval", region__bounds=f"{lo}, {hi}",
                   basis__truncation=truncation)
    for k, b in enumerate(locations, start=1):
        lines += [f"sensor.{k}.kind = pointwise", f"sensor.{k}.location = {b}"]
    lines += _lines(horizon=_f(rng.uniform(0.5, 2.0)))
    return Op("check", template, _scenario("1D placement check", lines))


def _filament(rng: random.Random) -> str:
    """A polyline symmetric about a vertical line: a flat or a V shape."""
    cx, y = rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.8)
    half, dip = 0.15, rng.choice([0.0, 0.05])
    return (f"{_f(cx - half)}, {_f(y)}; {_f(cx)}, {_f(y - dip)}; "
            f"{_f(cx + half)}, {_f(y)}")


def _check_2d(truncation: int, kinds: tuple[str, ...]):
    def make(rng: random.Random) -> Op:
        region = _box_2d(rng, 0.25, 0.6)
        lines = _lines(domain__kind="rectangle",
                       region__bounds=", ".join(_f(v) for v in region),
                       basis__truncation=truncation)
        for k, kind in enumerate(kinds, start=1):
            lines.append(f"sensor.{k}.kind = {kind.split('-')[0]}")
            if kind == "pointwise":
                lines.append(f"sensor.{k}.location = {_points_2d(rng, 1)[0]}")
            elif kind.startswith("zonal"):
                box = _box_2d(rng, 0.12, 0.12)
                lines += [f"sensor.{k}.box = {', '.join(_f(v) for v in box)}",
                          f"sensor.{k}.weight = {kind.split('-')[1]}"]
            else:
                lines.append(f"sensor.{k}.curve = {_filament(rng)}")
        lines += _lines(horizon=_f(rng.uniform(0.5, 2.0)))
        return Op("check", f"check2d-T{truncation}-" + "+".join(kinds),
                  _scenario("2D placement check", lines))
    return make


# Each cycle lists its templates from cheap to dear.  Within a run every
# cycle position counts at its median latency, so the median and the tail
# percentile pick a position by rank alone, whatever the number of cycles.
# The mix puts each inside a group of templates of similar cost (at the op
# costs measured on a 2-vCPU x86-64 host, README.md), not on the edge
# between two: scan's median among its middle three sweeps, gramian2d's
# among its T=30 ops, reconstruct's among its 1D discrepancy and 2D none
# ops, check's among its 1D suites; the tails fall on scan's three dearest
# sweeps, gramian2d's dearest T=30 op, reconstruct's 2D discrepancy ops and
# check's brute-force suites.
CYCLES = {
    "scan": [
        _scan_1d(12, 9), _scan_1d(50, 9), _scan_2d(5),
        _scan_1d(12, 130), _scan_1d(50, 30), _scan_2d(7),
        _scan_1d(12, 300), _scan_1d(50, 80), _scan_2d(11),
    ],
    "gramian2d": [
        _gramian_2d(20, 2, True), _gramian_2d(30, 3, True), _gramian_2d(30, 2, False),
        _gramian_2d(30, 3, False), _gramian_2d(30, 2, True), _gramian_2d(40, 3, False),
    ],
    "reconstruct": [
        _reconstruct(1, "none", False), _reconstruct(1, "tikhonov", True),
        _reconstruct(2, "tikhonov", False),
        _reconstruct(1, "discrepancy", False), _reconstruct(1, "discrepancy", True),
        _reconstruct(2, "none", True), _reconstruct(1, "discrepancy", False),
        _reconstruct(2, "discrepancy", True), _reconstruct(2, "discrepancy", False),
        _reconstruct(2, "discrepancy", True),
    ],
    "check": [
        _check_rational(1), _check_rational(2), _check_rational(3), _check_rational(4),
        _check_rational(2), _check_rational(3),
        _check_decimal(1), _check_decimal(2), _check_decimal(3),
        _check_2d(12, ("pointwise", "zonal-uniform")),
        _check_2d(30, ("pointwise", "pointwise", "filament")),
        _check_2d(18, ("pointwise", "filament", "zonal-bump")),
        _check_2d(24, ("zonal-uniform", "filament")),
        _check_rational_slow, _check_rational_slow,
    ],
}


# The tail percentile: fixed per workload, so that every run reports the
# same one, and set to leave at least 10 completed ops beyond it in a 20 s
# run on that host in its slow phases too (5 cycles of scan, 6 of gramian2d,
# 8 of reconstruct and check).
TAIL_PERCENTILE = {"scan": 75.0, "gramian2d": 70.0, "reconstruct": 85.0, "check": 88.0}

# How a workload's ops slow down when the host does, as a mix of the two
# probe parts (hostspeed.py): the share that follows the LAPACK part.  Set
# from runs on that host, as the share under which the scaled figures of
# runs in fast and slow phases agreed best: scan's many small SVDs and
# check's Fraction and quadrature work slow down like interpreted code,
# gramian2d's dense eigensolves and reconstruct's least squares like LAPACK.
LAPACK_SHARE = {"scan": 0.0, "gramian2d": 0.9, "reconstruct": 0.9, "check": 0.0}


def generate(workload: str, seed: int, cycles: int) -> list[Op]:
    """The first ``cycles`` whole cycles of a workload's op sequence."""
    rng = random.Random(f"{workload}/{seed}")
    return [template(rng) for _ in range(cycles) for template in CYCLES[workload]]
