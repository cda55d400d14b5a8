"""Command-line front end: mass, smile, bounds, compare and mc reports.

Configuration comes from an INI-style file with [model], [grid], [mc]
and [output] sections; every value can be overridden on the command
line by a flag of the same dotted name (e.g. --model.sigma=0.25).
Output is CSV with a fixed column schema, or a minimal SVG overlay of
the normalized smile curves.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from atomvol.blackscholes import MarketSlice, vega
from atomvol.cev import CevModel, CevParams
from atomvol.errors import (
    AtomvolError,
    ConfigError,
    DomainError,
)
from atomvol.montecarlo import McConfig, mc_smile
from atomvol.svgplot import Series, render_plot
# the smile_* functions stay bound here: perfbench/layers.py wraps them by name
from atomvol.wing import (  # noqa: F401
    AtomModel, BoundsConfig, smile_bounds, smile_dmhj, smile_grid, smile_leading,
    smile_three_term_atom, smile_three_term_G, smile_three_term_pT,
)

__all__ = ["main"]

COLUMNS = [
    "k",
    "K",
    "exact_iv",
    "mc_iv",
    "mc_se",
    "leading",
    "three_term_atom",
    "three_term_pT",
    "three_term_G",
    "dmhj",
    "lower",
    "upper",
    "err_three_term",
    "err_dmhj",
]


@dataclass
class RunConfig:
    market: MarketSlice
    atom: AtomModel
    cev_model: Optional[CevModel]
    bounds: BoundsConfig
    k_grid: Optional[list[float]]
    mc: Optional[McConfig]
    out_path: Optional[str]
    out_format: str


# ----------------------------------------------------------------------
# configuration assembly
# ----------------------------------------------------------------------
def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    """Accept '--section.key=value' or '--section.key value' pairs."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or "." not in token:
            raise ConfigError(f"unrecognized argument: {token}")
        body = token[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"missing value for override {token}")
            value = tokens[i + 1]
            i += 2
        section, _, option = key.partition(".")
        if not section or not option:
            raise ConfigError(f"override must look like section.key, got {key}")
        overrides[f"{section}.{option}".lower()] = value
    return overrides


def _load_settings(config_path: Optional[str], overrides: dict[str, str]) -> dict[str, str]:
    settings: dict[str, str] = {}
    if config_path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for section in parser.sections():
            for option, value in parser.items(section):
                settings[f"{section}.{option}".lower()] = value
    settings.update(overrides)
    return settings


def _get_float(settings: dict, key: str, default=None) -> Optional[float]:
    if key not in settings:
        return default
    try:
        return float(settings[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {settings[key]!r}") from exc


def _get_int(settings: dict, key: str, default=None) -> Optional[int]:
    if key not in settings:
        return default
    try:
        return int(settings[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {settings[key]!r}") from exc


def _get_bool(settings: dict, key: str, default: bool = False) -> bool:
    if key not in settings:
        return default
    value = settings[key].strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {settings[key]!r}")


def _tabulated_p_tilde(path: str):
    """Monotone interpolant of a two-column (u, p_tilde) CSV table."""
    us, vals = [], []
    try:
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                us.append(float(row[0]))
                vals.append(float(row[1]))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read p_tilde table {path}: {exc}") from exc
    if len(us) < 2:
        raise ConfigError(f"p_tilde table {path} needs at least two rows")
    u_arr = np.asarray(us, dtype=float)
    v_arr = np.asarray(vals, dtype=float)
    order = np.argsort(u_arr)
    u_arr, v_arr = u_arr[order], v_arr[order]
    return lambda u: float(np.interp(u, u_arr, v_arr, left=0.0, right=v_arr[-1]))


def _build_config(args, settings: dict[str, str]) -> RunConfig:
    model_type = settings.get("model.type", "cev").strip().lower()
    epsilon = _get_float(settings, "model.epsilon", 0.01)
    try:
        bounds = BoundsConfig(epsilon=epsilon)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    cev_model = None
    if model_type == "cev":
        mapping = {}
        for name in ("s0", "sigma", "rho", "beta", "t"):
            value = _get_float(settings, f"model.{name}")
            if value is not None:
                mapping["T" if name == "t" else name] = value
        try:
            params = CevParams.from_mapping(mapping)
            cev_model = CevModel(params)
        except DomainError as exc:
            raise ConfigError(f"invalid CEV model: {exc}") from exc
        market = cev_model.market()
        atom = cev_model.atom_model()
    elif model_type == "atom":
        m_t = _get_float(settings, "model.m_t")
        T = _get_float(settings, "model.t")
        x0 = _get_float(settings, "model.x0", 1.0)
        if m_t is None or T is None:
            raise ConfigError("atom model requires model.m_t and model.t")
        p_tilde = None
        if "model.p_tilde_csv" in settings:
            p_tilde = _tabulated_p_tilde(settings["model.p_tilde_csv"])
        try:
            market = MarketSlice(x0=x0, T=T)
            atom = AtomModel(mass=m_t, p_tilde=p_tilde)
        except DomainError as exc:
            raise ConfigError(f"invalid atom model: {exc}") from exc
    else:
        raise ConfigError(f"model.type must be 'cev' or 'atom', got {model_type!r}")

    k_grid = None
    if any(key.startswith("grid.") for key in settings):
        k_min = _get_float(settings, "grid.k_min")
        k_max = _get_float(settings, "grid.k_max")
        n_points = _get_int(settings, "grid.n_points")
        if k_min is None or k_max is None or n_points is None:
            raise ConfigError("grid requires grid.k_min, grid.k_max, grid.n_points")
        if not (-math.inf < k_min < k_max < 0.0):
            raise ConfigError(
                f"wing grid requires finite k_min < k_max < 0, got [{k_min}, {k_max}]"
            )
        if n_points < 2:
            raise ConfigError(f"grid.n_points must be >= 2, got {n_points}")
        k_grid = [float(v) for v in np.linspace(k_min, k_max, n_points)]

    mc_config = None
    if any(key.startswith("mc.") for key in settings):
        n_paths = _get_int(settings, "mc.n_paths")
        n_steps = _get_int(settings, "mc.n_steps")
        seed = _get_int(settings, "mc.seed")
        if n_paths is None or n_steps is None or seed is None:
            raise ConfigError("mc requires mc.n_paths, mc.n_steps, mc.seed")
        try:
            mc_config = McConfig(
                n_paths=n_paths,
                n_steps=n_steps,
                seed=seed,
                antithetic=_get_bool(settings, "mc.antithetic", False),
            )
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    out_path = args.out or settings.get("output.path")
    out_format = (args.format or settings.get("output.format", "csv")).lower()
    if out_format not in ("csv", "svg"):
        raise ConfigError(f"format must be csv or svg, got {out_format!r}")

    return RunConfig(
        market=market,
        atom=atom,
        cev_model=cev_model,
        bounds=bounds,
        k_grid=k_grid,
        mc=mc_config,
        out_path=out_path,
        out_format=out_format,
    )


# ----------------------------------------------------------------------
# row assembly
# ----------------------------------------------------------------------
# the column groups each table command fills besides k and K; mc fills
# its own columns from one simulation over the whole grid
_COLUMN_GROUPS = {
    "smile": {"approximations"},
    "bounds": {"band"},
    "compare": {"approximations", "band", "exact"},
    "mc": set(),
}


def _rows_for_command(command: str, cfg: RunConfig) -> list[dict]:
    if cfg.k_grid is None:
        raise ConfigError(f"{command} requires a [grid] section")
    if command == "compare" and cfg.cev_model is None:
        raise ConfigError("compare requires a cev model (oracle)")
    with_mc = command == "mc" or (command == "compare" and cfg.mc is not None)
    if with_mc and cfg.cev_model is None:
        raise ConfigError("mc requires a cev model")
    if with_mc and cfg.mc is None:
        raise ConfigError("mc requires an [mc] section")

    groups = _COLUMN_GROUPS[command]
    strikes = [cfg.market.x0 * math.exp(k) for k in cfg.k_grid]
    # a cell left NaN is undefined at its strike and prints empty
    rows = [dict.fromkeys(COLUMNS, math.nan) | {"k": k, "K": K} for k, K in zip(cfg.k_grid, strikes)]
    if groups:
        for name, values in smile_grid(cfg.market, strikes, cfg.atom, groups, cfg.bounds).items():
            for cells, value in zip(rows, values.tolist()):
                cells[name] = value
    if "exact" in groups:
        for cells in rows:
            cells["exact_iv"] = exact = cfg.cev_model.exact_smile(cells["K"])
            cells["err_three_term"] = abs(cells["three_term_atom"] - exact)
            cells["err_dmhj"] = abs(cells["dmhj"] - exact)
    if not with_mc:
        return rows

    estimates = mc_smile(cfg.cev_model.params, cfg.mc, cfg.k_grid)
    sqT = math.sqrt(cfg.market.T)
    for cells, est in zip(rows, estimates):
        if est.normalized_iv is not None:
            iv = est.normalized_iv * abs(est.k) / sqT
            cells["mc_iv"] = iv
            cells["mc_se"] = est.std_err / vega(cfg.market, cells["K"], iv)
    if command == "mc":
        absorbed = estimates[0].n_absorbed if estimates else 0
        print(
            f"absorbed_fraction = {absorbed / cfg.mc.n_paths:.17g} "
            f"({absorbed} of {cfg.mc.n_paths} paths)",
            file=sys.stderr,
        )
    return rows


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------
def _format_cell(value) -> str:
    # undefined cells stay empty; never NaN text
    if not math.isfinite(value):
        return ""
    return f"{value:.17g}"


def _emit_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    for cells in rows:
        writer.writerow([_format_cell(cells[name]) for name in COLUMNS])
    return buffer.getvalue()


_SVG_STYLE = {
    "exact_iv": ("exact", "#000000", False, False),
    "mc_iv": ("monte carlo", "#1f77b4", False, True),
    "three_term_atom": ("three-term (atom)", "#d62728", False, False),
    "three_term_G": ("three-term (G)", "#ff7f0e", True, False),
    "dmhj": ("DMHJ", "#2ca02c", False, False),
    "lower": ("lower bound", "#7f7f7f", True, False),
    "upper": ("upper bound", "#7f7f7f", True, False),
}


def _emit_svg(rows: list[dict], cfg: RunConfig, command: str) -> str:
    sqT = math.sqrt(cfg.market.T)
    series = []
    for name, (label, color, dashed, markers) in _SVG_STYLE.items():
        pts = tuple(
            (cells["k"], cells[name] * sqT / abs(cells["k"]))
            for cells in rows
            if math.isfinite(cells[name]) and cells["k"] != 0.0
        )
        if pts:
            series.append(
                Series(label=label, color=color, points=pts, dashed=dashed, markers=markers)
            )
    title = f"atomvol {command}: normalized left-wing smile"
    return render_plot(series, title, "log-moneyness k", "iv * sqrt(T) / |k|")


def _write_output(text: str, cfg: RunConfig) -> None:
    if cfg.out_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out_path, "w", newline="") as handle:
            handle.write(text)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_mass(cfg: RunConfig) -> None:
    if cfg.cev_model is None:
        raise ConfigError("mass requires a cev model")
    if cfg.out_format != "csv":
        raise ConfigError("mass emits a text report; use the default format")
    shape, argument = cfg.cev_model.gamma_args
    text = (
        f"m_T = {cfg.cev_model.mass:.17g}\n"
        f"gamma_shape = {shape:.17g}\n"
        f"gamma_argument = {argument:.17g}\n"
    )
    _write_output(text, cfg)


def _cmd_table(command: str, cfg: RunConfig) -> None:
    rows = _rows_for_command(command, cfg)
    if cfg.out_format == "svg":
        _write_output(_emit_svg(rows, cfg, command), cfg)
    else:
        _write_output(_emit_csv(rows), cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomvol",
        description="Small-strike implied-volatility asymptotics for models "
        "with an atom at zero.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("mass", "print the mass at zero and its gamma arguments"),
        ("smile", "tabulate the smile approximations on a k grid"),
        ("bounds", "tabulate the two-sided volatility bounds"),
        ("compare", "compare approximations against the CEV oracle"),
        ("mc", "Monte Carlo normalized smile"),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="INI-style configuration file")
        sub.add_argument("--out", help="output path (default stdout)")
        sub.add_argument("--format", choices=["csv", "svg"], help="output format")

    args, leftover = parser.parse_known_args(argv)
    try:
        overrides = _parse_overrides(leftover)
        settings = _load_settings(args.config, overrides)
        cfg = _build_config(args, settings)
        if args.command == "mass":
            _cmd_mass(cfg)
        else:
            _cmd_table(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AtomvolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # contract: report and exit, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
