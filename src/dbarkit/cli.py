"""Command-line front end: config loading, dispatch, refinement
studies, CSV and summary emission.

Subcommands
-----------
domains    rasterize the configured domain over the level ladder; report
           node and component counts per level
cauchy     round-trip deviation ladder for the integral solver
bezout     polynomial / partition-of-unity solutions of sum x_j f_j = 1
corona     holomorphic-correction pipeline with residual and deviation
           ladders
divide     smoothness-class certificate for a quotient f^N / g
sharpness  counterexample battery: every item must FAIL one power below
           its certified class and PASS at the power
faa        composite-derivative coefficient table (n = order) or the
           oracle battery (verify = true); exactly one of the two
lconn      interior path-length probe (bounded / growing / inconclusive)
taylor     remainder-order fits for holomorphic expressions

Exit codes: 0 success; 1 configuration errors, including malformed
expressions (reported with character positions); 2 a violated
hypothesis, raised as a domains.PreconditionError (CommonZeroError,
FitRankError, FitToleranceError, CoveringError, VanishingError,
DominationError, DisconnectedError, MaskResolutionError or the base)
or an expr.PoleError, and a cauchy or corona level whose margin leaves
no node to measure; 3 declared acceptance checks failed.  Any other
exception is a bug and propagates with its traceback.

Configs are INI files.  ``[run]`` holds command, out, levels (grid
spacings, e.g. ``1/64 1/128 1/256``), seed.  ``[domain]``
selects the region: ``kind`` is one of disk, annulus_sector,
sector_chain, disk_chain, comb, inner_spiral, half_ring_spiral, polygon,
with the constructor's keyword arguments as further keys (complex values
like ``0.5+0.25j``; ``vertices`` space-separated).  A section named
after the subcommand holds its parameters.  Every section is read
against one schema of keys: an unknown key is rejected, counts are at
least 1 (the seed at least 0), numbers and complex values are finite,
booleans take configparser's words (true/false, yes/no, on/off, 1/0),
and every malformed, missing or unknown key exits 1.  Expressions
use the prefix grammar of the expression module, e.g. ``sub(1, z)``,
``pow(z, 3)``, ``mul(conj(z), S)``.  Command-line flags override file
values; without --config every parameter falls back to its default
(unit disk, default ladder).

CSV schemas (one file per run; the first line is a generation-stamp
comment, and bodies below it are byte-identical across reruns of the
same config):
  domains:    level, h, nx, ny, inside, interior, boundary, exterior, components
  cauchy:     level, h, margin_cells, max_dev
  bezout:     route, residual, delta
  corona:     level, h, residual_sup, dbar_sup, margin_cells
  divide:     probe, verdict, measured, scale
  sharpness:  item, claimed, domain, power, verdict_at_power,
              verdict_below, measured_at_power, measured_below
  faa (table):  n, partition, coefficient
  faa (verify): trial, n, rel_err
  lconn:      scale, max_ratio, verdict
  taylor:     j, slope
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .bezout import BezoutProblem, bezout_pou, quotient_fits
from .cauchy import check_ladder, dbar_convergence
from .corona import corona_convergence
from .division import CLASSES, FAIL, PASS, DivisionProblem, certify_class
from .domains import (AnnulusSector, Comb, CompactDomain, Disk, DiskChain,
                      HalfRingSpiral, InnerSpiral, Polygon, PreconditionError,
                      SectorChain, build_mask, connected_components, dump_mask,
                      interior_shrunk)
from .expr import (Const, ExprParseError, PoleError, S, Z, add, conj, intpow,
                   mul, parse_expr, sub)
from .faa import (MAX_ORDER, CoefficientTable, compose_derivative,
                  enumerate_multi_indices, taylor_oracle)
from .geometry import l_probe, spiral_growth_probe, taylor_remainder_fit

__all__ = [
    "EXIT_OK", "EXIT_CONFIG", "EXIT_PRECONDITION", "EXIT_ACCEPTANCE",
    "ConfigError", "ExperimentConfig", "RunReport", "run",
    "refinement_study", "sharpness_battery", "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_ACCEPTANCE = 3


class ConfigError(ValueError):
    """Bad config file, bad flag value, or malformed expression."""


@dataclass
class ExperimentConfig:
    command: str
    domain: Optional[CompactDomain]
    params: dict
    h_list: tuple
    out: Optional[Path]
    seed: int = 20260817


@dataclass
class RunReport:
    command: str
    columns: tuple
    rows: list
    slopes: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def exit_status(self) -> int:
        if all(ok for _, ok, _ in self.checks):
            return EXIT_OK
        return EXIT_ACCEPTANCE

    def render(self) -> str:
        state = "ok" if self.exit_status == EXIT_OK else "FAILED"
        lines = [f"{self.command}: {state}"]
        for name, info in self.slopes.items():
            val = "exact" if info["exact"] else f"{info['slope']:.4f}"
            lines.append(f"  slope[{name}] = {val}")
        for name, ok, detail in self.checks:
            word = "PASS" if ok else "FAIL"
            lines.append(f"  [{word}] {name}: {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# --------------------------------------------------------------- parsing
#
# Every section is read by _read against a schema {key: (cast, default)}.
# A cast (raw, key) -> value raises ConfigError; the default is raw text,
# cast like a file value, None (the key reads None when absent) or
# REQUIRED.

REQUIRED = object()


def _read(section, schema, where) -> dict:
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ConfigError(f"{where} has unknown key(s) {', '.join(unknown)} "
                          f"(known: {', '.join(schema)})")
    values = {}
    for key, (cast, default) in schema.items():
        raw = section.get(key, default)
        if raw is REQUIRED:
            raise ConfigError(f"{where} needs key {key!r}")
        try:
            values[key] = None if raw is None else cast(raw, key)
        except ConfigError as err:
            raise ConfigError(f"{where} {err}") from None
    return values


def _text(raw, key) -> str:
    return raw.strip()


def _number(raw, key) -> float:
    text = raw.strip()
    num, slash, den = text.partition("/")
    try:
        value = float(num) / (float(den) if slash else 1.0)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: cannot parse number {text!r}") from None
    return _finite(value, key, text)


def _finite(value, key, text):
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _positive(raw, key) -> float:
    value = _number(raw, key)
    if not value > 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _int(raw, key) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _at_least(lo, hi=None):
    rule = f"at least {lo}" if hi is None else f"in {lo}..{hi}"

    def cast(raw, key):
        value = _int(raw, key)
        if value < lo or (hi is not None and value > hi):
            raise ConfigError(f"{key} must be {rule}, got {value}")
        return value
    return cast


def _one_of(*choices):
    def cast(raw, key):
        word = raw.strip()
        if word not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, "
                              f"got {word!r}")
        return word
    return cast


def _flag(raw, key) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    return states[_one_of(*states)(raw.lower(), key)]


def _ladder(shortest):
    # cauchy.check_ladder's rule: grid spacings, probe scales, fit radii
    def cast(raw, key):
        values = tuple(_number(tok, key) for tok in raw.split())
        try:
            return check_ladder(values, shortest)
        except ValueError:
            raise ConfigError(
                f"{key} must list at least {shortest} positive, strictly "
                f"decreasing number(s), got {raw!r}") from None
    return cast


def _complex(raw, key) -> complex:
    try:
        value = complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key}: cannot parse complex value {raw!r}") from None
    return _finite(value, key, raw)


def _split_top(text: str) -> list:
    """Split on commas at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _expr(raw, key):
    try:
        return parse_expr(raw)
    except ExprParseError as err:
        raise ConfigError(f"{key}: in expression {raw!r}: {err}") from None


def _expr_list(raw, key) -> list:
    exprs = [_expr(p, key) for p in _split_top(raw)]
    if not exprs:
        raise ConfigError(f"{key}: expression list is empty")
    return exprs


_RUN = {"command": (_text, None), "out": (_text, None),
        "levels": (_ladder(1), "1/64 1/128 1/256"),
        "seed": (_at_least(0), "20260817")}

# kind: (constructor, schema); a key that reads None is left to the
# constructor's default
_DOMAIN_KINDS = {
    "disk": (Disk, {"center": (_complex, "0j"), "radius": (_number, "1")}),
    "annulus_sector": (AnnulusSector, {"r_in": (_number, REQUIRED),
                                       "r_out": (_number, REQUIRED),
                                       "half_angle": (_number, REQUIRED),
                                       "center": (_complex, None)}),
    "sector_chain": (SectorChain, {"count": (_int, "8")}),
    "disk_chain": (DiskChain, {"count": (_int, "8")}),
    "comb": (Comb, {"teeth": (_int, None), "base_height": (_number, None),
                    "tooth_height": (_number, None)}),
    "inner_spiral": (InnerSpiral, {"theta_max": (_number, None)}),
    "half_ring_spiral": (HalfRingSpiral, {"rings": (_int, None),
                                          "thickness": (_number, None)}),
    "polygon": (Polygon, {"vertices": (
        lambda raw, key: tuple(_complex(tok, key) for tok in raw.split()),
        REQUIRED)}),
}
_KIND = {"kind": (_one_of(*_DOMAIN_KINDS), "disk")}


def _read_domain(section) -> CompactDomain:
    kind = _read({"kind": section.get("kind", "disk")}, _KIND,
                 "[domain]")["kind"]
    cls, schema = _DOMAIN_KINDS[kind]
    kwargs = _read(section, {**_KIND, **schema}, "[domain]")
    del kwargs["kind"]
    try:
        return cls(**{k: v for k, v in kwargs.items() if v is not None})
    except ValueError as err:
        raise ConfigError(f"[domain] {err}") from None


# ------------------------------------------------ per-command parameters

_DOMAINS = {"components": (_int, None), "dump": (_text, None)}
_CAUCHY = {"f": (_expr, "1"), "tol": (_positive, None),
           "slope_min": (_number, "0.9"), "physical_margin": (_positive, "0.15")}
_BEZOUT = {"f": (_expr_list, REQUIRED),
           "route": (_one_of("poly", "pou", "both"), "both"),
           "residual_tol": (_positive, "1e-10"), "max_degree": (_at_least(0), "16")}
_CORONA = {"f": (_expr_list, REQUIRED), "route": (_one_of("poly", "pou"), "poly"),
           "residual_tol": (_positive, "1e-6"), "dbar_tol": (_positive, "1e-3"),
           "slope_min": (_number, "0.9"), "max_degree": (_at_least(0), "16"),
           "physical_margin": (_positive, "0.15")}
# derivative-layer probes need ring room around the divisor zeros;
# h = 1/512 keeps every shipped class decidable out of the box
_DIVIDE = {"f": (_expr, REQUIRED), "g": (_expr, REQUIRED),
           "power": (_at_least(1), REQUIRED), "class": (_one_of(*CLASSES), REQUIRED),
           "h": (_positive, "1/512"), "expect": (_one_of("pass", "fail"), "pass")}
_DIVIDE_FLAGS = {"f": {}, "g": {}, "power": {}, "class": {},
                 "domain": {"choices": list(_DOMAIN_KINDS)}}
_SHARPNESS = {"h_fine": (_positive, "1/512"), "h_chain": (_positive, "1/256")}
_FAA = {"n": (_at_least(1, MAX_ORDER), None), "verify": (_flag, "false"),
        "trials": (_at_least(1), "200"), "max_n": (_at_least(1, MAX_ORDER), "12"),
        "tol": (_positive, "1e-10")}
_FAA_FLAGS = {"n": {}, "verify": {"action": "store_const", "const": "true"}}
_VERDICTS = ("bounded", "growing", "inconclusive")
_LCONN = {"preset": (_one_of("spiral"), None), "expect": (_one_of(*_VERDICTS), None)}
_LCONN_DISK = {**_LCONN, "z0": (_complex, "0+0j"),
               "scales": (_ladder(2), "0.2 0.1 0.05"),
               "samples": (_at_least(1), "64"), "h": (_positive, "1/128")}
_LCONN_SPIRAL = {**_LCONN, "scales": (_ladder(2), "0.3 0.15 0.075"),
                 "samples": (_at_least(1), "256"),
                 "nodes": (_at_least(64), "256"),
                 "depth": (_positive, "1.45")}
_TAYLOR = {"f": (_expr, REQUIRED), "z0": (_complex, REQUIRED),
           "m": (_at_least(0), REQUIRED),
           "radii": (_ladder(2), "0.2 0.1 0.05 0.025 0.0125"),
           "samples": (_at_least(1), "48"),
           "coeffs": (lambda raw, key: [_complex(t, key) for t in _split_top(raw)],
                      None),
           "expect": (_one_of("pass", "fail", "none"), "pass")}


def _lconn_schema(section) -> dict:
    # the preset picks the schema; an unknown preset fails its own cast
    return _LCONN_SPIRAL if section.get("preset") == "spiral" else _LCONN_DISK


def _section(cp, name) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def load_config(command: str, config_path=None, overrides=None,
                out=None, levels=None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from an INI file plus flag overrides."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cp.read(path)
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {path}: {err}") from None
    run_sec = _read(_section(cp, "run"), _RUN, "[run]")
    declared = run_sec["command"]
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r}, "
                          f"but {command!r} was requested")
    h_list = run_sec["levels"]
    if levels is not None:
        if levels < 1:
            raise ConfigError("--levels must be at least 1")
        while len(h_list) < levels:
            h_list += (h_list[-1] / 2,)
        h_list = h_list[:levels]
    out_val = out if out is not None else run_sec["out"]
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    # --domain overrides the [domain] kind; every other flag a command key
    domain_sec = _section(cp, "domain")
    if "domain" in overrides:
        domain_sec["kind"] = overrides.pop("domain")
    section = _section(cp, command)
    section.update(overrides)
    domain = _read_domain(domain_sec)
    schema = _COMMANDS[command].schema
    if callable(schema):
        schema = schema(section)
    return ExperimentConfig(command=command, domain=domain,
                            params=_read(section, schema, f"[{command}]"),
                            h_list=h_list,
                            out=None if out_val is None else Path(out_val),
                            seed=run_sec["seed"])


# -------------------------------------------------------------- metrics


def _require_measured(cfg, ladder, metric):
    # a level whose metric reads NaN because its margin leaves no node
    # made no check at all: a violated precondition, not a failed one.
    # The mask is built only for a NaN level
    for h, margin, value in zip(ladder["h"], ladder["margins"], ladder[metric]):
        if math.isnan(value) and not interior_shrunk(
                build_mask(cfg.domain, h=h), margin).any():
            raise PreconditionError(
                f"at h = {h:g} a margin of {margin} cells leaves 0 nodes "
                f"to measure {metric} on; lower physical_margin")


def _slope_check(checks, slopes, name, minimum):
    info = slopes[name]
    if info["exact"]:
        checks.append((f"slope[{name}]", True, "metric vanishes at every level"))
    else:
        checks.append((f"slope[{name}] >= {minimum}",
                       info["slope"] >= minimum, f"slope = {info['slope']:.4f}"))


# -------------------------------------------------------------- runners


def _run_domains(cfg: ExperimentConfig) -> RunReport:
    rows, last_mask = [], None
    for i, h in enumerate(cfg.h_list):
        mask = build_mask(cfg.domain, h=h)
        _, count = connected_components(mask)
        c = mask.counts()
        rows.append((i, h, mask.grid.nx, mask.grid.ny, c["inside"],
                     c["interior"], c["boundary"], c["exterior"], count))
        last_mask = mask
    checks, notes = [], []
    want = cfg.params["components"]
    if want is not None:
        got = sorted({r[-1] for r in rows})
        checks.append(("components", got == [want],
                       f"expected {want} at every level, got {got}"))
    if cfg.params["dump"]:
        target = Path(cfg.params["dump"])
        if cfg.out is not None and not target.is_absolute():
            cfg.out.mkdir(parents=True, exist_ok=True)
            target = cfg.out / target
        dump_mask(last_mask, target)
        notes.append(f"finest mask dumped to {target}")
    return RunReport("domains",
                     ("level", "h", "nx", "ny", "inside", "interior",
                      "boundary", "exterior", "components"),
                     rows, checks=checks, notes=notes)


def _run_cauchy(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    ladder = dbar_convergence(p["f"], cfg.domain, hs=cfg.h_list,
                              physical_margin=p["physical_margin"])
    _require_measured(cfg, ladder, "max_dev")
    rows = [(i, h, m, d) for i, (h, m, d) in
            enumerate(zip(ladder["h"], ladder["margins"], ladder["max_dev"]))]
    slopes = ladder["slopes"]
    checks = []
    if slopes:
        _slope_check(checks, slopes, "max_dev", p["slope_min"])
    if p["tol"] is not None:
        dev = rows[-1][3]
        checks.append((f"max_dev <= {p['tol']:g}", dev <= p["tol"],
                       f"finest-level deviation = {dev:.3e}"))
    return RunReport("cauchy", ("level", "h", "margin_cells", "max_dev"),
                     rows, slopes=slopes, checks=checks)


def _run_bezout(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    problem = BezoutProblem.build(cfg.domain, p["f"], h=cfg.h_list[-1])
    inside = problem.mask.inside
    fv = [g.values[inside] for g in problem.f_fields]
    routes = ("poly", "pou") if p["route"] == "both" else (p["route"],)
    rows, checks = [], []
    for route in routes:
        if route == "poly":
            # x_j = p_j / sum p_k f_k on the Inside nodes
            xv = quotient_fits(problem, p["max_degree"])[1]
        else:
            xv = [x.values[inside] for x in bezout_pou(problem)]
        res = float(np.abs(sum(x * f for x, f in zip(xv, fv)) - 1.0).max())
        rows.append((route, res, problem.delta))
        checks.append((f"{route} residual <= {p['residual_tol']:g}",
                       res <= p["residual_tol"], f"residual = {res:.3e}"))
    return RunReport("bezout", ("route", "residual", "delta"), rows,
                     checks=checks)


def _run_corona(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    ladder = corona_convergence(p["f"], cfg.domain, hs=cfg.h_list,
                                physical_margin=p["physical_margin"],
                                route=p["route"], max_degree=p["max_degree"])
    _require_measured(cfg, ladder, "dbar_sup")
    rows = [(i, h, r, d, m) for i, (h, r, d, m) in
            enumerate(zip(ladder["h"], ladder["residual_sup"],
                          ladder["dbar_sup"], ladder["margins"]))]
    slopes = ladder["slopes"]
    checks = []
    res, dbar = rows[-1][2], rows[-1][3]
    checks.append((f"residual_sup <= {p['residual_tol']:g}",
                   res <= p["residual_tol"], f"finest residual = {res:.3e}"))
    checks.append((f"dbar_sup <= {p['dbar_tol']:g}",
                   dbar <= p["dbar_tol"], f"finest deviation = {dbar:.3e}"))
    if slopes:
        _slope_check(checks, slopes, "dbar_sup", p["slope_min"])
    return RunReport("corona",
                     ("level", "h", "residual_sup", "dbar_sup", "margin_cells"),
                     rows, slopes=slopes, checks=checks)


def _run_divide(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    expect = PASS if p["expect"] == "pass" else FAIL
    cert = certify_class(p["f"], p["g"], p["power"], cfg.domain, p["class"],
                         h=p["h"])
    rows = [(pr.name, pr.verdict, pr.measured, pr.scale)
            for pr in cert.probes]
    checks = [(f"class {p['class']} at power {p['power']}: "
               f"expected {expect}", cert.verdict == expect,
               f"verdict = {cert.verdict}")]
    notes = [f"certificate: claimed={cert.claimed} power={cert.power} "
             f"h={cert.grid_h:g} verdict={cert.verdict}"]
    notes.extend(f"probe {pr.name}: {pr.verdict} (measured {pr.measured:.6g})"
                 for pr in cert.probes)
    return RunReport("divide", ("probe", "verdict", "measured", "scale"),
                     rows, checks=checks, notes=notes)


# ------------------------------------------------- sharpness battery


def _vanishing_inner_pair():
    one_minus = sub(Const(1.0), Z)
    return mul(one_minus, S), one_minus


def _radial_circle_families():
    # radial approach to 1, and along-circle approach through the points
    # where the inner factor equals 1 exactly
    ks = np.arange(1, 9, dtype=float)
    theta = 2.0 * np.arctan(1.0 / (2 * np.pi * 2.0 ** ks))
    return {"radial": [1.0 - 2.0 ** -k for k in ks],
            "circle": list(np.exp(1j * theta))}


def _chain_divisor(chain):
    corners = np.array([chain.corner(n) for n in range(1, chain.count + 1)])

    def g(z):
        z = np.asarray(z, dtype=complex)
        idx = np.clip(chain.sector_index(z) - 1, 0, len(corners) - 1)
        return np.where(chain.sector_index(z) > 0, np.conj(corners[idx]), 1.0)

    return g


def _chain_families(chain):
    corners = [chain.corner(n) for n in range(1, chain.count + 1)]
    return {"corner": corners, "conj_corner": [np.conj(c) for c in corners]}


def _worst_measure(cert) -> float:
    vals = [pr.measured for pr in cert.probes if math.isfinite(pr.measured)]
    return max(vals) if vals else float("nan")


def _sharpness_items(h_fine: float, h_chain: float) -> list:
    """The battery's counterexamples: (item, claimed, domain label,
    domain, power, f, g, DivisionProblem.build keywords, families at the
    power, families one power below; None probes rings)."""
    disk = Disk(0j, 1.0)
    chain = SectorChain(8)
    one_minus = sub(Const(1.0), Z)
    fv, gv = _vanishing_inner_pair()
    fams = _radial_circle_families()
    chain_fams = _chain_families(chain)
    # "holomorphic values" is the one item whose run one power below
    # differs: families, not rings
    return [
        ("boundary values", "C0", "disk", disk, 2, fv, gv, {}, fams, fams),
        ("first derivatives", "C1", "disk", disk, 3, Z, conj(Z),
         dict(h=h_fine), None, None),
        ("holomorphic values", "A0", "disk", disk, 2, fv, gv, {}, None, fams),
        ("holomorphic derivatives, chain", "A1", "sector_chain", chain, 3,
         Z, _chain_divisor(chain), dict(h=h_chain, g_locally_constant=True),
         chain_fams, chain_fams),
        ("holomorphic derivatives", "A1", "disk", disk, 2,
         mul(intpow(one_minus, 3), S), intpow(one_minus, 3), {}, None, None),
        ("dbar derivatives", "Dbar1", "disk", disk, 4, Z, conj(Z),
         dict(h=h_fine), None, None),
    ]


def sharpness_battery(h_fine: float = 1 / 512,
                      h_chain: float = 1 / 256) -> list:
    """Run every counterexample at its certified power and one below.

    Returns one dict per item with both verdicts and the largest probe
    measurement of each run.  A correct implementation yields PASS at
    the power and FAIL below for all six items.  Both powers are
    certified from one DivisionProblem per item, so each item samples
    its data and builds its probe geometry once; the record is released
    before the next item builds its own.
    """
    out = []
    for (name, claimed, dom_label, dom, power, f, g, build, fams_at,
         fams_below) in _sharpness_items(h_fine, h_chain):
        problem = DivisionProblem.build(f, g, dom, **build)
        at = problem.certify(power, claimed, fams_at)
        below = problem.certify(power - 1, claimed, fams_below)
        del problem
        out.append({"item": name, "claimed": claimed, "domain": dom_label,
                    "power": power,
                    "verdict_at_power": at.verdict,
                    "verdict_below": below.verdict,
                    "measured_at_power": _worst_measure(at),
                    "measured_below": _worst_measure(below)})
    return out


def _run_sharpness(cfg: ExperimentConfig) -> RunReport:
    battery = sharpness_battery(h_fine=cfg.params["h_fine"],
                                h_chain=cfg.params["h_chain"])
    rows, checks = [], []
    for item in battery:
        rows.append((item["item"], item["claimed"], item["domain"],
                     item["power"], item["verdict_at_power"],
                     item["verdict_below"], item["measured_at_power"],
                     item["measured_below"]))
        checks.append((f"{item['item']}: PASS at {item['power']}",
                       item["verdict_at_power"] == PASS,
                       f"verdict = {item['verdict_at_power']}"))
        checks.append((f"{item['item']}: FAIL at {item['power'] - 1}",
                       item["verdict_below"] == FAIL,
                       f"verdict = {item['verdict_below']}"))
    return RunReport("sharpness",
                     ("item", "claimed", "domain", "power",
                      "verdict_at_power", "verdict_below",
                      "measured_at_power", "measured_below"),
                     rows, checks=checks)


# ------------------------------------------------------- faa runners


def _bell_numbers(n: int) -> list:
    bell = [1]
    for m in range(n):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return bell


def _partition_counts(n: int) -> list:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


def _poly_eval_deriv(coeffs, j, t):
    """j-th derivative of sum_k coeffs[k] t^k at t."""
    acc = 0j
    for k in range(j, len(coeffs)):
        acc += coeffs[k] * math.perm(k, j) * t ** (k - j)
    return acc


def _poly_expr(coeffs):
    out = Const(coeffs[0])
    for k in range(1, len(coeffs)):
        out = add(out, mul(Const(coeffs[k]), intpow(Z, k)))
    return out


def _run_faa(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    if (p["n"] is not None) == p["verify"]:
        raise ConfigError("[faa] set exactly one of n (coefficient table) "
                          "and verify = true (oracle battery)")
    if p["n"] is not None:
        n = p["n"]
        table = CoefficientTable.build(n)
        rows = [(n, "+".join(str(part) for part in k), c)
                for k, c in table.entries]
        total, bell = table.total(), _bell_numbers(n)[n]
        checks = [(f"sum of coefficients = Bell({n})", total == bell,
                   f"{total} vs {bell}"),
                  (f"table rows = p({n})",
                   len(rows) == _partition_counts(n)[n],
                   f"{len(rows)} vs {_partition_counts(n)[n]}")]
        return RunReport("faa", ("n", "partition", "coefficient"), rows,
                         checks=checks)

    rng = np.random.default_rng(cfg.seed)
    max_n, tol = p["max_n"], p["tol"]
    rows, worst = [], 0.0
    for trial in range(p["trials"]):
        n = int(rng.integers(1, max_n + 1))
        fc = rng.uniform(-1, 1, size=(max_n + 1, 2)) @ np.array([1, 1j])
        gc = rng.uniform(-1, 1, size=(max_n + 1, 2)) @ np.array([1, 1j])
        x = complex(*rng.uniform(-1, 1, size=2))
        gx = _poly_eval_deriv(gc, 0, x)
        f_derivs = [_poly_eval_deriv(fc, j, gx) for j in range(1, n + 1)]
        g_derivs = [_poly_eval_deriv(gc, j, x) for j in range(1, n + 1)]
        lhs = compose_derivative(f_derivs, g_derivs, n)
        rhs = taylor_oracle(_poly_expr(fc), _poly_expr(gc), x, n)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        rows.append((trial, n, rel))
    checks = [(f"coefficient route matches series route to {tol:g} relative",
               worst <= tol, f"worst of {p['trials']} trials = {worst:.3e}")]
    bell = _bell_numbers(max_n)
    ok_bell = all(
        complex(compose_derivative([1] * n, [1] * n, n)) == bell[n]
        for n in range(1, max_n + 1))
    named = ", ".join(f"B{k} = {bell[k]}" for k in (4, 5) if k <= max_n)
    checks.append(("all-ones sums follow the Bell recurrence", ok_bell,
                   f"checked n = 1..{max_n}" + (named and f"; {named}")))
    pc = _partition_counts(max_n)
    ok_p = all(len(enumerate_multi_indices(n)) == pc[n]
               for n in range(1, max_n + 1))
    checks.append(("table sizes are the partition counts", ok_p,
                   f"checked n = 1..{max_n}"))
    return RunReport("faa", ("trial", "n", "rel_err"), rows, checks=checks)


# --------------------------------------------------- geometry runners


def _run_lconn(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    if p["preset"] == "spiral":
        rep = spiral_growth_probe(scales=p["scales"], depth=p["depth"],
                                  nodes=p["nodes"],
                                  samples_per_scale=p["samples"])
    else:
        rep = l_probe(cfg.domain, p["z0"], scales=p["scales"],
                      samples_per_scale=p["samples"], h=p["h"])
    rows = [(s, r, rep.verdict) for s, r in zip(rep.scales, rep.max_ratios)]
    checks = []
    if p["expect"] is not None:
        checks.append((f"verdict = {p['expect']}",
                       rep.verdict == p["expect"],
                       f"verdict = {rep.verdict}"))
    return RunReport("lconn", ("scale", "max_ratio", "verdict"), rows,
                     checks=checks, notes=list(rep.annotations))


def _run_taylor(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    if p["coeffs"] is not None and len(p["coeffs"]) != p["m"] + 1:
        raise ConfigError(f"[taylor] coeffs must list m + 1 = {p['m'] + 1} "
                          f"value(s), got {len(p['coeffs'])}")
    rep = taylor_remainder_fit(p["f"], p["z0"], p["m"], cfg.domain,
                               radii=p["radii"],
                               samples_per_radius=p["samples"],
                               coeffs=p["coeffs"])
    rows = list(zip(range(p["m"] + 1), [float(s) for s in rep["slope"]]))
    checks = []
    if p["expect"] == "pass":
        checks.append(("remainder orders hold for every j",
                       bool(all(rep["passes"])),
                       f"passes = {[bool(b) for b in rep['passes']]}"))
    elif p["expect"] == "fail":
        checks.append(("at least one remainder order fails",
                       not all(rep["passes"]),
                       f"passes = {[bool(b) for b in rep['passes']]}"))
    notes = [f"j = {j}: exact zero remainder" for j in range(p["m"] + 1)
             if rep["exact_zero"][j]]
    return RunReport("taylor", ("j", "slope"), rows, checks=checks,
                     notes=notes)


class _Command(NamedTuple):
    schema: Union[dict, Callable]  # a schema, or section -> schema (lconn)
    run: Callable
    flags: dict = {}  # --key flags that override section keys: argparse kwargs


_COMMANDS = {
    "domains": _Command(_DOMAINS, _run_domains),
    "cauchy": _Command(_CAUCHY, _run_cauchy),
    "bezout": _Command(_BEZOUT, _run_bezout),
    "corona": _Command(_CORONA, _run_corona),
    "divide": _Command(_DIVIDE, _run_divide, _DIVIDE_FLAGS),
    "sharpness": _Command(_SHARPNESS, _run_sharpness),
    "faa": _Command(_FAA, _run_faa, _FAA_FLAGS),
    "lconn": _Command(_lconn_schema, _run_lconn),
    "taylor": _Command(_TAYLOR, _run_taylor),
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch to the configured command's pipeline."""
    return _COMMANDS[config.command].run(config)


def refinement_study(config: ExperimentConfig) -> dict:
    """Slopes per ladder metric; requires at least three levels.

    A metric that vanishes (to roundoff) at every level carries no order
    information and is flagged exact instead of fitted.
    """
    if len(config.h_list) < 3:
        raise ConfigError("refinement study needs at least three levels")
    report = run(config)
    if not report.slopes:
        raise ConfigError(f"{config.command} produces no refinement metrics")
    return report.slopes


# ---------------------------------------------------------------- main


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, report: RunReport) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    with open(path, "w", newline="") as fh:
        fh.write(f"# {report.command} generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_csv_cell(v) for v in row])


def _emit(report: RunReport, config: ExperimentConfig) -> None:
    text = report.render()
    if config.out is not None:
        config.out.mkdir(parents=True, exist_ok=True)
        csv_path = config.out / f"{config.command}.csv"
        _write_csv(csv_path, report)
        (config.out / "summary.txt").write_text(text + "\n")
        text += f"\n  wrote {csv_path}"
    print(text)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with its own status 2 on bad usage, which collides
    # with the precondition exit class; route usage errors to exit 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="dbarkit",
                             description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory for CSVs and summary")
        p.add_argument("--levels", type=int,
                       help="number of ladder levels (truncates or extends)")
        for key, kwargs in command.flags.items():
            p.add_argument(f"--{key}", **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {key: vars(args)[key] for key in _COMMANDS[args.command].flags}
        config = load_config(args.command, config_path=args.config,
                             overrides=overrides, out=args.out,
                             levels=args.levels)
        # a runner's cross-key rule (faa's n or verify, taylor's coeffs
        # count) raises ConfigError too
        report = run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, PoleError) as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, config)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
