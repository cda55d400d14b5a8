"""Seeded request generator for the three benchmark workloads.

Every request is one CLI invocation described by INI sections (and, for
some atom requests, a p_tilde table).  Requests come in balanced blocks:
the discrete factors of a workload (command, spot, ...) and the terciles
of its costliest continuous factors form a fixed orthogonal design
inside each block, and a fixed Latin pattern walks every design row
through each finer stratum of those factors once per round of ROUND
blocks.  The seed draws the values inside those strata, the remaining
factors (Latin-hypercube over a round) and the order of each block.
Any whole number of blocks therefore has nearly the same cost mix for
every seed, which keeps latency and throughput steady across seeds.

CEV configurations are drawn by their atom mass: sigma is solved in
closed form from the mass through the inverse regularized upper
incomplete gamma function,

    nu = 1/(2(1-rho)),  lam = Q^{-1}(nu, mass),  khat = lam / s0^(2(1-rho)),
    sigma = 1/sqrt(2 T khat (1-rho)^2),

so the mass range is hit exactly rather than through a root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import gammainccinv

WORKLOADS = ("oracle_grid", "mc_smile", "atom_wing")

SPOTS = (0.05, 1.0, 100.0)
RHO = (0.3, 0.9)
MATURITY = (0.25, 2.0)
CEV_MASS = (1e-3, 0.3)
HARD_MASS = (1e-300, 1e-17)
ATOM_MASS = (1e-4, 0.49)
K_MAX = -0.5

# Euler path-steps per mc request: large enough that simulation is most of
# the request, small enough that a run completes a few dozen requests.
MC_PATH_STEPS = 4_000_000
TABLE_ROWS = 200
ROUND = 8  # blocks over which the finer strata are balanced


@dataclass
class Request:
    """One CLI request: command, output format and INI sections."""

    rid: int
    command: str
    fmt: str
    sections: dict
    table: Optional[np.ndarray] = None  # (2, rows): u and p_tilde(u)
    path: Optional[Path] = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        return int(self.sections["grid"]["n_points"])

    @property
    def k_grid(self) -> list[float]:
        g = self.sections["grid"]
        return [float(v) for v in np.linspace(float(g["k_min"]), float(g["k_max"]), int(g["n_points"]))]

    @property
    def path_steps(self) -> int:
        mc = self.sections.get("mc")
        return int(mc["n_paths"]) * int(mc["n_steps"]) if mc else 0

    def argv(self) -> list[str]:
        argv = [self.command, "--config", str(self.path)]
        if self.fmt == "svg":
            argv += ["--format", "svg"]
        return argv


def sigma_for_mass(s0: float, rho: float, T: float, mass: float) -> float:
    """CEV volatility whose atom at zero has the given mass at maturity T."""
    one = 1.0 - rho
    lam = float(gammainccinv(1.0 / (2.0 * one), mass))
    khat = lam / s0 ** (2.0 * one)
    return 1.0 / math.sqrt(2.0 * T * khat * one * one)


def _strata(rng, level, n_levels: int, stride: int) -> np.ndarray:
    """Uniform draws u in [0, 1), shape (ROUND, rows), finely stratified over a round.

    Row i stays in stratum level[i] of n_levels.  In block b of a round it
    sits in sub-stratum (stride*b + i) % ROUND of that stratum, at a seeded
    place inside it: with an odd stride every row visits each sub-stratum
    once per round, and the rows of one block spread over the sub-strata.
    """
    level = np.asarray(level)
    sub = (stride * np.arange(ROUND)[:, None] + np.arange(len(level))[None, :]) % ROUND
    return (level + (sub + rng.random(sub.shape)) / ROUND) / n_levels


def _free(rng, rows: int) -> np.ndarray:
    """Latin-hypercube draws u in [0, 1) over the ROUND * rows requests of a round."""
    n = ROUND * rows
    return ((rng.permutation(n) + rng.random(n)) / n).reshape(ROUND, rows)


def _scale(u: np.ndarray, lo: float, hi: float, log: bool = False) -> np.ndarray:
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def _to_int(x: np.ndarray, hi: int) -> np.ndarray:
    return np.minimum(np.floor(x).astype(int), hi)


def _cev_sections(s0, rho, T, mass, k_min, n_points) -> dict:
    return {
        "model": {
            "type": "cev",
            "s0": repr(float(s0)),
            "sigma": repr(sigma_for_mass(s0, rho, T, mass)),
            "rho": repr(float(rho)),
            "t": repr(float(T)),
        },
        "grid": {"k_min": repr(float(k_min)), "k_max": repr(K_MAX), "n_points": str(int(n_points))},
    }


def _columns(rows):
    return (np.array(col) for col in zip(*rows))


def _oracle_round(rng, first_block: int) -> list[list[Request]]:
    # Orthogonal array OA(9, 4, 3, 2) over command, spot, rho tercile and
    # n_points tercile: every pair of levels meets once per block, so the
    # costly corners (low rho, many strikes, compare) recur in every block.
    rows = [(c, s, (c + s) % 3, (c + 2 * s) % 3) for c in range(3) for s in range(3)]
    n = len(rows)
    cmd, spot, rho_t, pts_t = _columns(rows)
    rho = _scale(_strata(rng, rho_t, 3, 1), *RHO)
    n_points = _to_int(_scale(_strata(rng, pts_t, 3, 3), 5, 34), 33)
    T, mass = _scale(_free(rng, n), *MATURITY), _scale(_free(rng, n), *CEV_MASS, log=True)
    k_min = _scale(_free(rng, n), -12.0, -4.0)
    blocks = []
    for b in range(ROUND):
        svg = (first_block + b) % n  # one SVG request per block, rotating
        blocks.append([
            Request(-1, ("smile", "bounds", "compare")[cmd[i]], "svg" if i == svg else "csv",
                    _cev_sections(SPOTS[spot[i]], rho[b, i], T[b, i], mass[b, i], k_min[b, i], n_points[b, i]))
            for i in range(n)
        ])
    return blocks


def _mc_round(rng, first_block: int) -> list[list[Request]]:
    # antithetic x spot factorial; rho and n_steps terciles pair up evenly
    rows = [(a, s, (a + s) % 3, (s + 2 * a) % 3) for a in range(2) for s in range(3)]
    n = len(rows)
    anti, spot, rho_t, steps_t = _columns(rows)
    rho = _scale(_strata(rng, rho_t, 3, 1), *RHO)
    n_steps = _to_int(_scale(_strata(rng, steps_t, 3, 3), 64, 513, log=True), 512)
    T, mass = _scale(_free(rng, n), *MATURITY), _scale(_free(rng, n), *CEV_MASS, log=True)
    k_min = _scale(_free(rng, n), -12.0, -4.0)
    seeds = rng.integers(0, 2**31, size=(ROUND, n))
    blocks = []
    for b in range(ROUND):
        block = []
        for i in range(n):
            sections = _cev_sections(SPOTS[spot[i]], rho[b, i], T[b, i], mass[b, i], k_min[b, i], 17)
            sections["mc"] = {
                "n_paths": str(MC_PATH_STEPS // int(n_steps[b, i])),
                "n_steps": str(int(n_steps[b, i])),
                "seed": str(int(seeds[b, i])),
                "antithetic": "true" if anti[i] else "false",
            }
            block.append(Request(-1, "mc", "csv", sections))
        blocks.append(block)
    return blocks


def _p_tilde_table(rng, mass: float) -> np.ndarray:
    """Continuous-part CDF (1-mass)(1 - exp(-(u/c)^a)) on a geometric u grid."""
    u = np.geomspace(1e-180, 1e3, TABLE_ROWS)
    c, a = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
    return np.vstack([u, (1.0 - mass) * -np.expm1(-((u / c) ** a))])


def _atom_round(rng, first_block: int) -> list[list[Request]]:
    # command x spot factorial, each command meeting every n_points tercile
    rows = [(c, s, (c + s) % 3) for c in range(2) for s in range(3)]
    n = len(rows)
    cmd, spot, pts_t = _columns(rows)
    n_points = _to_int(_scale(_strata(rng, pts_t, 3, 1), 17, 130), 129)
    T, mass = _scale(_free(rng, n), *MATURITY), _scale(_free(rng, n), *ATOM_MASS, log=True)
    k_min = _scale(_free(rng, n), -400.0, -8.0)
    blocks = []
    for b in range(ROUND):
        g = first_block + b
        with_table = {g % n, (g + 4) % n}  # two requests per block, rotating
        block = []
        for i in range(n):
            sections = {
                "model": {"type": "atom", "m_t": repr(float(mass[b, i])), "t": repr(float(T[b, i])),
                          "x0": repr(SPOTS[spot[i]])},
                "grid": {"k_min": repr(float(k_min[b, i])), "k_max": repr(K_MAX),
                         "n_points": str(int(n_points[b, i]))},
            }
            table = _p_tilde_table(rng, mass[b, i]) if i in with_table else None
            block.append(Request(-1, ("smile", "bounds")[cmd[i]], "csv", sections, table))
        blocks.append(block)
    return blocks


_ROUNDS = {"oracle_grid": _oracle_round, "mc_smile": _mc_round, "atom_wing": _atom_round}


def generate(workload: str, seed: int, n_blocks: int) -> list[list[Request]]:
    """n_blocks balanced blocks of requests; a pure function of (workload, seed, n_blocks).

    Each block lists its requests in a seeded order; request ids count up
    from 0 in the order the blocks are run.
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    blocks = []
    while len(blocks) < n_blocks:
        blocks += _ROUNDS[workload](rng, len(blocks))
    blocks = [[block[j] for j in rng.permutation(len(block))] for block in blocks[:n_blocks]]
    for rid, req in enumerate(r for block in blocks for r in block):
        req.rid = rid
    return blocks


def hard_slice(seed: int, rid0: int) -> list[Request]:
    """CEV requests whose true mass lies in [1e-300, 1e-17].

    There 1 - gammainc rounds the mass to 0, so the CLI exits 3 (a known
    defect).  They run outside the timed window and are reported apart.
    """
    rng = np.random.default_rng([len(WORKLOADS), seed])
    cmds = ("smile", "bounds", "compare")
    rho, T = _scale(rng.random(3), *RHO), _scale(rng.random(3), *MATURITY)
    mass = _scale(rng.random(3), *HARD_MASS, log=True)
    return [
        Request(rid0 + i, cmd, "csv", _cev_sections(SPOTS[i], rho[i], T[i], mass[i], -8.0, 9))
        for i, cmd in enumerate(cmds)
    ]


def warmup_request(workload: str) -> Request:
    """Fixed small request used to warm up a fresh interpreter."""
    sections = _cev_sections(0.05, 0.6, 1.2, 0.0707, -6.0, 5)
    if workload == "oracle_grid":
        return Request(-1, "compare", "csv", sections)
    if workload == "mc_smile":
        sections["mc"] = {"n_paths": "2000", "n_steps": "64", "seed": "1", "antithetic": "false"}
        return Request(-1, "mc", "csv", sections)
    sections = {
        "model": {"type": "atom", "m_t": "0.0707", "t": "1.2", "x0": "1.0"},
        "grid": {"k_min": "-40.0", "k_max": repr(K_MAX), "n_points": "17"},
    }
    return Request(-1, "smile", "csv", sections)


def ini_text(req: Request, table_path: Optional[Path]) -> str:
    lines = []
    for name, options in req.sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in options.items())
        if name == "model" and table_path is not None:
            lines.append(f"p_tilde_csv = {table_path}")
        lines.append("")
    return "\n".join(lines)


def write(requests: list[Request], directory: Path) -> None:
    """Write each request's INI file (and table) and record its path."""
    directory.mkdir(parents=True, exist_ok=True)
    for req in requests:
        stem = f"r{req.rid:06d}" if req.rid >= 0 else "warmup"
        table_path = None
        if req.table is not None:
            table_path = directory / f"{stem}_p_tilde.csv"
            table_path.write_text(
                "".join(f"{u!r},{p!r}\n" for u, p in zip(req.table[0].tolist(), req.table[1].tolist()))
            )
        req.path = directory / f"{stem}.ini"
        req.path.write_text(ini_text(req, table_path))
