"""Command-line front end: mass, smile, bounds, compare and mc reports.

Configuration comes from an INI-style file with [model], [grid] and
[mc] sections; every value can be overridden on the command line by a
flag of the same dotted name (e.g. --model.sigma=0.25).  _KEYS is the
one table of keys: each maps to its type's parser, and every value is
parsed once, when loaded, whether or not the command reads it.  An
unknown key, a malformed value or a malformed file is a configuration
error.  An atom model may take the CDF p_tilde(u) = P(0 < X <= u) of its
continuous part from model.p_tilde_csv, a table of (u, p_tilde) rows read
in one numpy call and interpolated linearly; a table that is not such a
CDF beside the mass m_t (u finite, positive and distinct; p_tilde NaN or
in [0, 1 - m_t], and nondecreasing in u) is a configuration error too.
A table command builds one column table,
a dict holding one float array over the strike grid per CSV column (NaN
where a cell is undefined), and writes it to stdout or --out as CSV with
a fixed column schema (undefined cells empty) or (--format svg) as a
minimal SVG overlay of the normalized smile curves.  Exit codes: 0
success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
import warnings
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


def _digits(parse):
    """parse, refusing the digit-group underscores ('1_0') float and int accept."""
    def strict(value: str):
        if "_" in value:
            raise ValueError(f"digit-group underscore in {value!r}")
        return parse(value)

    return strict


# every key a configuration may set: its parser, and the noun that names
# what a value it rejects should have been
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)
_NUMBER, _INTEGER, _TEXT = (_digits(float), "a number"), (_digits(int), "an integer"), (str, "text")
_BOOLEAN = (lambda value: _BOOLEANS[value.strip().lower()], "a boolean")
_KEYS = {
    "model.type": _TEXT, "model.epsilon": _NUMBER, "model.s0": _NUMBER, "model.sigma": _NUMBER,
    "model.rho": _NUMBER, "model.beta": _NUMBER, "model.t": _NUMBER, "model.m_t": _NUMBER,
    "model.x0": _NUMBER, "model.p_tilde_csv": _TEXT, "grid.k_min": _NUMBER, "grid.k_max": _NUMBER,
    "grid.n_points": _INTEGER, "mc.n_paths": _INTEGER, "mc.n_steps": _INTEGER, "mc.seed": _INTEGER,
    "mc.antithetic": _BOOLEAN,
}


@dataclass
class RunConfig:
    market: MarketSlice
    atom: Optional[AtomModel]  # None for mc
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


def _load_settings(config_path: Optional[str], overrides: dict[str, str]) -> dict[str, object]:
    """The file's keys and then the overrides, every value parsed by its
    _KEYS entry whether or not the command reads it."""
    texts: dict[str, str] = {}
    if config_path is not None:
        # no interpolation: a '%' in a file reads as literally as in an override
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(config_path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {config_path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for section in parser.sections():
            for option, value in parser.items(section):
                texts[f"{section}.{option}".lower()] = value
    texts.update(overrides)
    unknown = sorted(texts.keys() - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    settings = {}
    for key, (parse, noun) in _KEYS.items():
        if key in texts:
            try:
                settings[key] = parse(texts[key])
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{key} must be {noun}, got {texts[key]!r}") from exc
    return settings


def _section(settings: dict[str, object], section: str, names: tuple[str, ...]) -> Optional[list]:
    """The values of a section's required keys, or None where no key of
    the section is set."""
    if not any(key.startswith(f"{section}.") for key in settings):
        return None
    keys = [f"{section}.{name}" for name in names]
    if any(key not in settings for key in keys):
        raise ConfigError(f"{section} requires {', '.join(keys)}")
    return [settings[key] for key in keys]


def _tabulated_p_tilde(path: str, m_t: float):
    """Monotone interpolant of a two-column (u, p_tilde) CSV table, refused
    unless it is the CDF of a continuous part beside a mass m_t at zero."""
    try:
        with open(path) as handle, warnings.catch_warnings():
            # an empty table warns; it is refused below with the one-row table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # stripped lines, so that an indented '#' line is a comment too
            table = np.loadtxt([line.strip() for line in handle], delimiter=",", comments="#",
                               quotechar='"', usecols=(0, 1), ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read p_tilde table {path}: {exc}") from exc
    u_arr, v_arr = np.ascontiguousarray(table[np.argsort(table[:, 0])].T)
    for broken, rule in [
        (len(u_arr) < 2, "at least two rows"),
        (not np.all(np.isfinite(u_arr) & (u_arr > 0.0)), "every u finite and > 0"),
        (np.any(np.diff(u_arr) == 0.0), "distinct u"),
        (not np.all(np.isnan(v_arr) | ((v_arr >= 0.0) & (v_arr <= 1.0 - m_t))),
         f"every p_tilde NaN or in [0, 1 - m_t] = [0, {1.0 - m_t!r}]"),
        (np.any(np.diff(v_arr[~np.isnan(v_arr)]) < 0.0), "p_tilde nondecreasing in u"),
    ]:
        if broken:
            raise ConfigError(f"p_tilde table {path} needs {rule}")
    return lambda u: np.interp(u, u_arr, v_arr, left=0.0, right=v_arr[-1])


def _build_config(args, settings: dict[str, object]) -> RunConfig:
    model_type = settings.get("model.type", "cev").strip().lower()
    try:
        bounds = BoundsConfig(epsilon=settings.get("model.epsilon", 0.01))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    cev_model = None
    if model_type == "cev":
        mapping = {
            "T" if name == "t" else name: settings[f"model.{name}"]
            for name in ("s0", "sigma", "rho", "beta", "t")
            if f"model.{name}" in settings
        }
        try:
            params = CevParams.from_mapping(mapping)
            cev_model = CevModel(params)
        except DomainError as exc:
            raise ConfigError(f"invalid CEV model: {exc}") from exc
        market = cev_model.market()
        # mc reads no mass, so it runs on where the mass underflows to 0
        # and the atom model rejects it
        atom = None if args.command == "mc" else cev_model.atom_model()
    elif model_type == "atom":
        m_t, T = settings.get("model.m_t"), settings.get("model.t")
        if m_t is None or T is None:
            raise ConfigError("atom model requires model.m_t and model.t")
        try:
            market = MarketSlice(x0=settings.get("model.x0", 1.0), T=T)
            atom = AtomModel(mass=m_t)
        except DomainError as exc:
            raise ConfigError(f"invalid atom model: {exc}") from exc
        if "model.p_tilde_csv" in settings:
            # read once the mass is valid: the table's rules bound p_tilde by 1 - m_t
            atom = AtomModel(mass=m_t, p_tilde=_tabulated_p_tilde(settings["model.p_tilde_csv"], m_t))
    else:
        raise ConfigError(f"model.type must be 'cev' or 'atom', got {model_type!r}")

    k_grid = None
    grid = _section(settings, "grid", ("k_min", "k_max", "n_points"))
    if grid is not None:
        k_min, k_max, n_points = grid
        if not (-math.inf < k_min < k_max < 0.0):
            raise ConfigError(
                f"wing grid requires finite k_min < k_max < 0, got [{k_min}, {k_max}]"
            )
        if n_points < 2:
            raise ConfigError(f"grid.n_points must be >= 2, got {n_points}")
        k_grid = [float(v) for v in np.linspace(k_min, k_max, n_points)]

    mc_config = None
    mc = _section(settings, "mc", ("n_paths", "n_steps", "seed"))
    if mc is not None:
        n_paths, n_steps, seed = mc
        try:
            mc_config = McConfig(
                n_paths=n_paths, n_steps=n_steps, seed=seed, antithetic=settings.get("mc.antithetic", False)
            )
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    return RunConfig(
        market=market,
        atom=atom,
        cev_model=cev_model,
        bounds=bounds,
        k_grid=k_grid,
        mc=mc_config,
        out_path=args.out,
        out_format=args.format or "csv",
    )


# ----------------------------------------------------------------------
# table assembly
# ----------------------------------------------------------------------
# the column groups each table command fills besides k and K; mc fills
# its own columns from one simulation over the whole grid
_COLUMN_GROUPS = {
    "smile": {"approximations"},
    "bounds": {"band"},
    "compare": {"approximations", "band", "exact"},
    "mc": set(),
}


def _table_for_command(command: str, cfg: RunConfig) -> dict[str, np.ndarray]:
    """One float array over the strikes per COLUMNS name, NaN where a cell
    is undefined at its strike; with a put model also the unprinted "put"
    prices that fed leading and G, which the exact smile inverts."""
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
    table = {name: np.full(len(strikes), math.nan) for name in COLUMNS}
    table["k"], table["K"] = np.array(cfg.k_grid), np.array(strikes)
    if groups:
        table |= smile_grid(cfg.market, strikes, cfg.atom, groups, cfg.bounds)
    if "exact" in groups:
        exact = table["exact_iv"] = np.array(
            [cfg.cev_model.put_implied_vol(K, put) for K, put in zip(strikes, table["put"].tolist())]
        )
        table["err_three_term"] = np.abs(table["three_term_atom"] - exact)
        table["err_dmhj"] = np.abs(table["dmhj"] - exact)
    if not with_mc:
        return table

    estimates = mc_smile(cfg.cev_model.params, cfg.mc, cfg.k_grid)
    sqT = math.sqrt(cfg.market.T)
    for i, (K, est) in enumerate(zip(strikes, estimates)):
        if est.normalized_iv is not None:
            iv = table["mc_iv"][i] = est.normalized_iv * abs(est.k) / sqT
            table["mc_se"][i] = est.std_err / vega(cfg.market, K, iv)
    if command == "mc":
        absorbed = estimates[0].n_absorbed
        print(
            f"absorbed_fraction = {absorbed / cfg.mc.n_paths:.17g} "
            f"({absorbed} of {cfg.mc.n_paths} paths)",
            file=sys.stderr,
        )
    return table


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------
def _emit_csv(table: dict[str, np.ndarray]) -> str:
    # each column formatted once; undefined cells stay empty, never NaN text
    columns = [
        [format(v, ".17g") if math.isfinite(v) else "" for v in table[name].tolist()] for name in COLUMNS
    ]
    return "\n".join([",".join(COLUMNS), *map(",".join, zip(*columns))]) + "\n"


_SVG_STYLE = {
    "exact_iv": ("exact", "#000000", False, False),
    "mc_iv": ("monte carlo", "#1f77b4", False, True),
    "three_term_atom": ("three-term (atom)", "#d62728", False, False),
    "three_term_G": ("three-term (G)", "#ff7f0e", True, False),
    "dmhj": ("DMHJ", "#2ca02c", False, False),
    "lower": ("lower bound", "#7f7f7f", True, False),
    "upper": ("upper bound", "#7f7f7f", True, False),
}


def _emit_svg(table: dict[str, np.ndarray], cfg: RunConfig, command: str) -> str:
    sqT = math.sqrt(cfg.market.T)
    series = []
    for name, (label, color, dashed, markers) in _SVG_STYLE.items():
        defined = np.isfinite(table[name])
        if defined.any():
            k = table["k"][defined]
            pts = tuple(zip(k.tolist(), (table[name][defined] * sqT / np.abs(k)).tolist()))
            series.append(
                Series(label=label, color=color, points=pts, dashed=dashed, markers=markers)
            )
    title = f"atomvol {command}: normalized left-wing smile"
    return render_plot(series, title, "log-moneyness k", "iv * sqrt(T) / |k|")


def _write_output(text: str, cfg: RunConfig) -> None:
    if cfg.out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out_path}: {exc}") from exc


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
    table = _table_for_command(command, cfg)
    if cfg.out_format == "svg":
        _write_output(_emit_svg(table, cfg, command), cfg)
    else:
        _write_output(_emit_csv(table), cfg)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args, leftover = _parser().parse_known_args(argv)
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
