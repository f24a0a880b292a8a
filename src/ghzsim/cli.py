"""Command-line front end: parameter sweeps, summary tables, analyzer and swap runs.

Subcommands
    reflection      reflection amplitudes and per-photon efficiencies vs frequency
    efficiency-map  pulse-averaged n-photon efficiency over a (g/ks, k/ks) grid
    table1          fidelity/efficiency summary versus photon number
    analyze         run the analyzer on a named GHZ/Bell input state
    swap            two- or three-pair entanglement swapping demo

Outputs are deterministic for a fixed configuration and seed: CSV carries the
resolved configuration as '#' comment lines above a single header row, JSON
embeds it as a "metadata" object.
Exit codes: 0 success, 2 bad arguments, an oversized run or an --out path that
cannot be written, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import operator
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np

from . import __version__
from .circuit import (MAX_STEP_BYTES, AnalyzerConfig, check_fits,
                      classification_distribution, conclusive_probability, run_analyzer)
from .circuit import classify  # noqa: F401 - the traced benchmark wraps it in this module
from .network import bell_swap, feed_photon, ghz_swap, make_network
from .scattering import (CavityQDParams, PulseSpectrum,
                         QuadratureConvergenceError, average_efficiency,
                         fidelity_fn, reflection_coeffs)
from .states import GhzLabel, bell_label, bell_state, ghz_state
from .states import fidelity  # noqa: F401 - the traced benchmark wraps it in this module

STATE_GRAMMAR = ("state spec grammar: 'GHZ:<bitstring>' (photon count inferred from "
                 "length, e.g. GHZ:010) or 'BELL:{phi+,phi-,psi+,psi-}'")

# bytes a sweep holds per table row, grid arrays and rendered output together:
# the tracemalloc peak of a JSON run (the largest format) at 160,000 rows, 1,338
# and 600 bytes per row, rounded up
_REFLECTION_ROW_BYTES = 1400
_MAP_ROW_BYTES = 640
# bytes `analyze` holds per record from its columns to its rendered output, a bound:
# the tracemalloc peak of a JSON run (the largest format) at 29,003, 86,250 and
# 252,103 records (n = 8, 9 and 10 at eta0 = 0.9) is 433, 441 and 450 bytes per
# record; 1000 keeps the same runs refused (12 photons at eta0 = 0.9 exit 2)
_ANALYZE_ROW_BYTES = 1000


class UsageError(Exception):
    """Bad command-line arguments or configuration values."""


@dataclass
class RunReport:
    """Tabular result plus resolved-configuration echo; payload overrides JSON.

    `table` maps each column name, in output order, to that column's values:
    a list, or (values, the index of each row's value among them).
    """

    metadata: dict
    table: dict[str, list | tuple[list, np.ndarray]]
    payload: dict | None = field(default=None)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_FLOAT_TEXT = operator.methodcaller("__format__", ".17g")


def _text_encoder(values: list):
    """`_fmt` for a column's values, picked once for the column."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return str
    return _FLOAT_TEXT if kinds == {float} else _fmt


def _json_encoder(values: list):
    """The encoder `json.dumps` uses for a column's values, picked once for the column:
    `encode_basestring_ascii` for strings and `float.__repr__` for finite floats."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return encode_basestring_ascii
    if kinds == {float} and all(map(math.isfinite, values)):
        return float.__repr__
    return json.dumps


def _cells(column, pick) -> list[str]:
    """A table column as text, one string per row.

    A column is a list of values, or (values, the index of each row's value
    among them); the values are encoded once each, with the function that
    `pick` returns for them, and then expanded by index.
    """
    values, index = column if isinstance(column, tuple) else (column, None)
    texts = list(map(pick(values), values))
    return texts if index is None else np.array(texts, dtype=object)[index].tolist()


def render_csv(report: RunReport) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in report.metadata.items()]
    lines.append(",".join(report.table))
    cells = [_cells(column, _text_encoder) for column in report.table.values()]
    lines.extend(map(",".join, zip(*cells)))
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)


def _json_rows(table: dict, pieces: list) -> None:
    """Append json.dumps(rows, indent=2) of the table, nested one level deep, to `pieces`,
    one column at a time: each value follows its key."""
    cells = [_cells(column, _json_encoder) for column in table.values()]
    rows = len(cells[0])
    if not rows:
        pieces.append("[]")
        return
    width = 2 * len(table)
    pieces.append("[\n")
    start = len(pieces)
    pieces.extend([""] * (width * rows))
    for j, key in enumerate(table):
        lead = "\n    },\n    {\n" if j == 0 else ",\n"
        pieces[start + 2 * j::width] = [f"{lead}      {encode_basestring_ascii(key)}: "] * rows
        pieces[start + 2 * j + 1::width] = cells[j]
    pieces[start] = pieces[start][len("\n    },\n"):]  # the first row opens the list
    pieces.append("\n    }\n  ]")


def _json_flat(value) -> str:
    """json.dumps(value, indent=2) of a scalar or a dict of scalars, nested one level
    deep: the indent encoder is pure Python, so the C encoder writes one item a line."""
    if not isinstance(value, dict) or not value:
        return json.dumps(value)
    return "{\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  }"


def render_json(report: RunReport) -> str:
    """json.dumps(doc, indent=2) of the report, with its table written by `_json_rows`;
    the text is joined once, from its pieces."""
    if report.payload is not None:
        doc = {"metadata": report.metadata, **report.payload}
    else:
        doc = {"metadata": report.metadata, "rows": report.table}
    pieces: list = []
    for key, value in doc.items():
        pieces.append(f",\n  {encode_basestring_ascii(key)}: ")
        if value is report.table:
            _json_rows(value, pieces)
        else:
            pieces.append(_json_flat(value))
    pieces[0] = "{\n" + pieces[0][len(",\n"):]
    pieces.append("\n}\n")
    return "".join(pieces)


def render_markdown(report: RunReport) -> str:
    lines = [f"- {k}: {_fmt(v)}" for k, v in report.metadata.items()]
    lines.append("")
    lines.append("| " + " | ".join(report.table) + " |")
    lines.append("|" + "|".join(" --- " for _ in report.table) + "|")
    cells = [_cells(column, _text_encoder) for column in report.table.values()]
    lines.extend(map("| {} |".format, map(" | ".join, zip(*cells))))
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)


_RENDERERS = {"csv": render_csv, "json": render_json, "md": render_markdown}


def _base_metadata(command: str, settings: "_Settings") -> dict:
    return {
        "command": command,
        "version": __version__,
        "timestamp": os.environ.get("SOURCE_DATE_EPOCH", ""),
        "config_file": settings.config_path or "",
    }


@dataclass
class _Settings:
    """Layered option lookup: built-in default < config file < CLI flag."""

    file_values: Mapping
    args: argparse.Namespace
    config_path: str | None

    def get(self, section: str, key: str, default, cast=float):
        flag = key.replace("-", "_")
        cli = getattr(self.args, flag, None)
        if cli is not None:
            return cli
        raw = self.file_values.get(section, {}).get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad config value {section}.{key} = {raw!r}") from exc


def _parse_config(text: str, resolved: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {resolved}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


@functools.cache
def _bundled_profile(name: str) -> Mapping | None:
    """A bundled profile's sections, parsed once per process and read-only.

    Profiles are package data, so they cannot change while the process runs.
    """
    ref = resources.files("ghzsim").joinpath("configs", name)
    if not ref.is_file():
        return None
    values = _parse_config(ref.read_text(encoding="utf-8"), f"builtin:{name}")
    return MappingProxyType({k: MappingProxyType(v) for k, v in values.items()})


def _load_config_file(path_or_name: str) -> tuple[Mapping, str]:
    """A file on disk, read on every call, else a bundled profile of that name."""
    candidates = [path_or_name]
    if not path_or_name.endswith(".cfg"):
        candidates.append(path_or_name + ".cfg")
    for cand in candidates:
        if os.path.exists(cand):
            with open(cand, "r", encoding="utf-8") as fh:
                return _parse_config(fh.read(), cand), cand
    for cand in candidates:
        name = os.path.basename(cand)
        values = _bundled_profile(name)
        if values is not None:
            return values, f"builtin:{name}"
    raise UsageError(f"config {path_or_name!r} is neither a file nor a bundled profile")


def _settings(args: argparse.Namespace) -> _Settings:
    file_values: Mapping = {}
    path = None
    if getattr(args, "config", None):
        file_values, path = _load_config_file(args.config)
    return _Settings(file_values=file_values, args=args, config_path=path)


def _scattering_params(settings: _Settings) -> CavityQDParams:
    try:
        return CavityQDParams(
            g=settings.get("scattering", "g", 30.0),
            kappa=settings.get("scattering", "kappa", 270.0),
            kappa_s=settings.get("scattering", "kappa_s", 30.0),
            gamma=settings.get("scattering", "gamma", 0.3),
            omega_c=settings.get("scattering", "omega_c", 0.0),
            omega_x=settings.get("scattering", "omega_x", 0.0),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _echo_params(meta: dict, params: CavityQDParams) -> None:
    meta.update(g=params.g, kappa=params.kappa, kappa_s=params.kappa_s,
                gamma=params.gamma, omega_c=params.omega_c, omega_x=params.omega_x)


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: ordered finite bounds, step count, linear or log scale."""

    name: str
    lo: float
    hi: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise UsageError(f"{self.name} scale must be 'linear' or 'log'")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise UsageError(f"{self.name} bounds must be finite and ordered")
        if self.steps < 2:
            raise UsageError(f"{self.name} needs at least 2 steps")
        if self.scale == "log" and self.lo <= 0:
            raise UsageError(f"{self.name}: log scale needs positive bounds")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.steps)
        return np.linspace(self.lo, self.hi, self.steps)

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}:{self.steps}:{self.scale}"


def _parse_axis(text: str, name: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"{name} must look like MIN:MAX:STEPS[:log], got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r} for {name}") from exc
    scale = parts[3] if len(parts) == 4 else "linear"
    return SweepAxis(name=name, lo=lo, hi=hi, steps=steps, scale=scale)


def _check_rows(rows: int, row_bytes: int, what: str) -> None:
    """Refuse a table of `rows` rows before it is built if it would pass the budget."""
    if rows * row_bytes > MAX_STEP_BYTES:
        raise UsageError(f"{what} of {rows} rows needs about {rows * row_bytes} bytes, "
                         f"over the {MAX_STEP_BYTES}-byte budget")


def _parse_list(text: str, name: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {name} list {text!r}") from exc


def parse_state_spec(text: str):
    """'GHZ:<bits>' or 'BELL:<name>' to (register, true label, display name)."""
    kind, _, rest = text.partition(":")
    if kind == "GHZ" and rest:
        try:
            label = GhzLabel.from_string(rest)
        except ValueError as exc:
            raise UsageError(f"{exc}; {STATE_GRAMMAR}") from exc
        check_fits(label.n)  # before the register is built
        return ghz_state(label.n, label), label, f"GHZ:{label}"
    if kind == "BELL":
        try:
            return bell_state(rest), bell_label(rest), f"BELL:{rest}"
        except ValueError as exc:
            raise UsageError(f"{exc}; {STATE_GRAMMAR}") from exc
    raise UsageError(f"cannot parse state spec {text!r}; {STATE_GRAMMAR}")


def cmd_reflection(args: argparse.Namespace) -> RunReport:
    settings = _settings(args)
    params = _scattering_params(settings)
    axis = _parse_axis(args.omega_range, "--omega-range")
    _check_rows(axis.steps, _REFLECTION_ROW_BYTES, "--omega-range")
    omegas = axis.values()
    meta = _base_metadata("reflection", settings)
    _echo_params(meta, params)
    meta["omega_range"] = args.omega_range
    table = {c: [] for c in ("omega_ueV", "re_r0", "im_r0", "re_r1", "im_r1", "eta1", "p2")}
    for w in omegas.tolist():
        pair = reflection_coeffs(params, w)
        # scattering.eta1 and error_prob, from the one pair
        for column, value in zip(table.values(), (
                w, pair.r0.real, pair.r0.imag, pair.r1.real, pair.r1.imag,
                float(np.abs(pair.r1 - pair.r0) ** 2 / 4.0),
                float(np.abs(pair.r1 + pair.r0) ** 2 / 4.0))):
            column.append(value)
    return RunReport(meta, table)


def cmd_efficiency_map(args: argparse.Namespace) -> RunReport:
    settings = _settings(args)
    kappa_s = settings.get("scattering", "kappa_s", 30.0)
    gamma = settings.get("scattering", "gamma", 0.3)
    sigma = settings.get("pulse", "sigma", gamma)
    eta0 = settings.get("analyzer", "eta0", 1.0)
    nodes = settings.get("analyzer", "quad_nodes", 64, cast=int)
    n = args.n
    g_axis = _parse_axis(settings.get("sweep", "g_over_ks", "0.25:4:16", cast=str),
                         "g_over_ks")
    k_axis = _parse_axis(settings.get("sweep", "k_over_ks", "1:30:30", cast=str),
                         "k_over_ks")
    _check_rows(g_axis.steps * k_axis.steps, _MAP_ROW_BYTES, "efficiency-map grid")
    meta = _base_metadata("efficiency-map", settings)
    meta.update(n=n, kappa_s=kappa_s, gamma=gamma, sigma=sigma, eta0=eta0,
                quad_nodes=nodes, g_over_ks=str(g_axis), k_over_ks=str(k_axis))
    g_over, k_over = (a.ravel() for a in np.meshgrid(g_axis.values(), k_axis.values(),
                                                     indexing="ij"))
    params = CavityQDParams.resonant(g=g_over * kappa_s, kappa=k_over * kappa_s,
                                     kappa_s=kappa_s, gamma=gamma)
    spec = PulseSpectrum(omega_c=params.omega_c, sigma=sigma)
    values = average_efficiency(params, spec, n, eta0=eta0, nodes=nodes)
    return RunReport(meta, {"g_over_ks": g_over.tolist(), "k_over_ks": k_over.tolist(),
                            "eta_n_s": values.tolist()})


def cmd_table1(args: argparse.Namespace) -> RunReport:
    settings = _settings(args)
    params = _scattering_params(settings)
    sigma = settings.get("pulse", "sigma", 2.0 * params.gamma)
    eta0 = settings.get("analyzer", "eta0", 1.0)
    nodes = settings.get("analyzer", "quad_nodes", 64, cast=int)
    n_list = (_parse_list(settings.get("table", "n", "2,3,4,5,6,7,8,20", cast=str), "n", int)
              if args.n_list is None else _parse_list(args.n_list, "--n-list", int))
    if not n_list:
        raise UsageError("table1 needs at least one photon count in its n list")
    t2_text = (settings.get("table", "t2", "10.9,2000", cast=str)
               if args.t2 is None else args.t2)
    t2_list = _parse_list(t2_text, "--t2", float)
    if len(t2_list) != 2:
        raise UsageError("table1 needs exactly two T2 values (F_prime, F_doubleprime)")
    spec = PulseSpectrum(omega_c=params.omega_c, sigma=sigma)
    meta = _base_metadata("table1", settings)
    _echo_params(meta, params)
    meta.update(sigma=sigma, eta0=eta0, quad_nodes=nodes,
                t2_prime_ns=t2_list[0], t2_doubleprime_ns=t2_list[1])
    return RunReport(meta, {
        "n": n_list,
        "F_prime": [fidelity_fn(n, t2_list[0], spec) for n in n_list],
        "F_doubleprime": [fidelity_fn(n, t2_list[1], spec) for n in n_list],
        "eta_n_s": average_efficiency(params, spec, n_list, eta0=eta0, nodes=nodes),
    })


def _analyzer_config(settings: _Settings, args: argparse.Namespace) -> AnalyzerConfig:
    mode = settings.get("analyzer", "mode", "ideal", cast=str)
    enumeration = settings.get("analyzer", "enumeration", "exhaustive", cast=str)
    eta0 = settings.get("analyzer", "eta0", 1.0)
    nodes = settings.get("analyzer", "quad_nodes", 64, cast=int)
    seed = settings.get("analyzer", "seed", 0, cast=int)
    params = _scattering_params(settings) if mode == "realistic" else None
    omega = getattr(args, "omega", None)
    # [pulse] applies only where --sigma exists: swap runs are monochromatic
    sigma = settings.get("pulse", "sigma", None) if hasattr(args, "sigma") else None
    if getattr(args, "sigma", None) is not None and omega is not None:
        raise UsageError("give either --omega (monochromatic) or --sigma (pulse)")
    spectrum = None
    if sigma is not None and omega is None and mode == "realistic":
        spectrum = PulseSpectrum(omega_c=params.omega_c, sigma=float(sigma))
    try:
        return AnalyzerConfig(mode=mode, qnd1=params, qnd2=params, omega=omega,
                              spectrum=spectrum, eta0=eta0, enumeration=enumeration,
                              seed=seed, quad_nodes=nodes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _echo_analyzer(meta: dict, config: AnalyzerConfig) -> None:
    meta.update(mode=config.mode, eta0=config.eta0, enumeration=config.enumeration)
    if meta["command"] == "analyze":  # a swap is exhaustive and monochromatic
        meta.update(seed=config.seed, quad_nodes=config.quad_nodes)
    if config.qnd1 is not None:
        _echo_params(meta, config.qnd1)
    if config.omega is not None:
        meta["omega"] = config.omega
    if config.spectrum is not None:
        meta["sigma"] = config.spectrum.sigma


def cmd_analyze(args: argparse.Namespace) -> RunReport:
    settings = _settings(args)
    config = _analyzer_config(settings, args)
    photons, true_label, display = parse_state_spec(args.state)
    n = photons.num_qubits
    records = run_analyzer(photons, config, shots=args.shots)
    _check_rows(len(records), _ANALYZE_ROW_BYTES, "analyze output")
    dist = classification_distribution(records, n)  # these two and `columns` share one decode
    conclusive = conclusive_probability(records)
    correct = dist.get(str(true_label), 0.0)
    conditional = correct / conclusive if conclusive > 0 else None
    meta = _base_metadata("analyze", settings)
    meta.update(state=display, photons=n, shots=args.shots)
    _echo_analyzer(meta, config)
    table = dict(zip(("fates", "pattern", "qd", "probability", "classified"),
                     records.columns()))
    payload = {
        "state": display,
        "conclusive_probability": conclusive,
        "conditional_fidelity": conditional,
        "classification": dist,
        "outcomes": table,
    }
    meta["conclusive_probability"] = conclusive
    meta["conditional_fidelity"] = "" if conditional is None else conditional
    return RunReport(meta, table, payload=payload)


def cmd_swap(args: argparse.Namespace) -> RunReport:
    settings = _settings(args)
    config = _analyzer_config(settings, args)
    state = make_network(args.pairs)
    for photon in range(args.pairs):
        state = feed_photon(state, photon, config)
    outcomes = bell_swap(state) if args.pairs == 2 else ghz_swap(state)
    meta = _base_metadata("swap", settings)
    meta.update(pairs=args.pairs)
    _echo_analyzer(meta, config)
    table = dict(zip(("clicks", "qd", "probability", "predicted", "fidelity"),
                     outcomes.columns()))
    payload = {"pairs": args.pairs, "outcomes": table}
    return RunReport(meta, table, payload=payload)


def _add_common(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--config", help="config file path or bundled profile name")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json", "md"), default=default_format)


def _add_scattering_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--g", type=float, default=None, help="QD-cavity coupling (ueV)")
    sub.add_argument("--kappa", type=float, default=None, help="directional cavity rate (ueV)")
    sub.add_argument("--kappa-s", dest="kappa_s", type=float, default=None,
                     help="side-leakage rate (ueV)")
    sub.add_argument("--gamma", type=float, default=None, help="trion decay rate (ueV)")
    sub.add_argument("--omega-c", dest="omega_c", type=float, default=None,
                     help="cavity resonance (ueV)")
    sub.add_argument("--omega-x", dest="omega_x", type=float, default=None,
                     help="trion transition frequency (ueV)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args never mutates it."""
    parser = argparse.ArgumentParser(
        prog="ghzsim",
        description="Passive multiphoton GHZ/Bell-state analyzer toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("reflection", help="reflection amplitudes vs frequency")
    _add_common(p, "csv")
    _add_scattering_flags(p)
    p.add_argument("--omega-range", default="-150:150:301",
                   help="frequency sweep MIN:MAX:STEPS[:log] in ueV; give a range "
                        "that starts below zero with '=', as --omega-range=-300:300:601")
    p.set_defaults(func=cmd_reflection)

    p = subs.add_parser("efficiency-map", help="average efficiency over a coupling grid")
    _add_common(p, "csv")
    p.add_argument("--n", type=int, default=2, help="photon count")
    p.add_argument("--kappa-s", dest="kappa_s", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None, help="pulse bandwidth (ueV)")
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None)
    p.add_argument("--g-over-ks", dest="g_over_ks", default=None,
                   help="grid axis MIN:MAX:STEPS[:log]")
    p.add_argument("--k-over-ks", dest="k_over_ks", default=None,
                   help="grid axis MIN:MAX:STEPS[:log]")
    p.set_defaults(func=cmd_efficiency_map)

    p = subs.add_parser("table1", help="fidelity/efficiency summary vs photon number")
    _add_common(p, "csv")
    _add_scattering_flags(p)
    p.add_argument("--sigma", type=float, default=None, help="pulse bandwidth (ueV)")
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None)
    p.add_argument("--n-list", dest="n_list", default=None,
                   help="comma-separated photon counts")
    p.add_argument("--t2", default=None, help="two coherence times in ns, comma-separated")
    p.set_defaults(func=cmd_table1)

    p = subs.add_parser("analyze", help="run the analyzer on a named input state")
    _add_common(p, "json")
    _add_scattering_flags(p)
    p.add_argument("state", help=STATE_GRAMMAR)
    p.add_argument("--mode", default=None, choices=("ideal", "realistic"))
    p.add_argument("--omega", type=float, default=None, help="monochromatic frequency (ueV)")
    p.add_argument("--sigma", type=float, default=None, help="pulse bandwidth (ueV)")
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--enumeration", default=None, choices=("exhaustive", "monte-carlo"))
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="RNG seed for sampling runs")
    p.add_argument("--shots", type=int, default=100_000,
                   help="sample count for monte-carlo enumeration")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("swap", help="entanglement swapping over 2 or 3 hybrid pairs")
    _add_common(p, "json")
    _add_scattering_flags(p)
    p.add_argument("--pairs", type=int, default=3, choices=(2, 3))
    p.add_argument("--mode", default=None, choices=("ideal", "realistic"))
    p.add_argument("--omega", type=float, default=None, help="monochromatic frequency (ueV)")
    p.add_argument("--eta0", type=float, default=None)
    p.set_defaults(func=cmd_swap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.func(args)
        text = _RENDERERS[args.format](report)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
