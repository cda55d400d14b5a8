"""Output checks: CSV/SVG shape, no non-finite text, and cells against the library.

Reference cells come from direct calls into atomvol's public functions,
made after the timed window.  The tolerance (1e-8 relative) is far
looser than any difference between two correct oracles of the put price
(a series and the quadrature agree to about 5e-11 relative) and far
tighter than any formula error the CSV reports.
"""

from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from atomvol.blackscholes import MarketSlice, vega
from atomvol.cev import CevModel, CevParams
from atomvol.cli import COLUMNS
from atomvol.errors import AtomvolError, DomainError
from atomvol.montecarlo import McConfig, mc_smile
from atomvol.wing import (
    AtomModel,
    smile_bounds,
    smile_dmhj,
    smile_leading,
    smile_three_term_atom,
    smile_three_term_G,
    smile_three_term_pT,
)

RTOL, ATOL = 1e-8, 1e-12
NONFINITE = re.compile(r"(?i)(?<![a-z0-9_])(nan|inf|infinity)(?![a-z0-9_])")

_APPROX = {"leading", "three_term_atom", "three_term_pT", "three_term_G", "dmhj"}
# the columns each command fills; every other column must stay empty
FILLED = {
    "smile": {"k", "K"} | _APPROX,
    "bounds": {"k", "K", "lower", "upper"},
    "compare": {"k", "K", "exact_iv", "lower", "upper", "err_three_term", "err_dmhj"} | _APPROX,
    "mc": {"k", "K", "mc_iv", "mc_se"},
}


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def shape_problems(req, code: int, out: str) -> list[str]:
    """Exit code, header, row count, empty columns and non-finite text."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    if NONFINITE.search(out):
        problems.append("non-finite value in output")
    if req.fmt == "svg":
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            return problems + [f"SVG does not parse: {exc}"]
        if not root.tag.endswith("svg"):
            problems.append(f"root element is {root.tag}")
        return problems
    rows = parse_csv(out)
    if not rows or rows[0] != COLUMNS:
        return problems + ["header differs from atomvol.cli.COLUMNS"]
    if len(rows) - 1 != req.n_rows:
        problems.append(f"{len(rows) - 1} rows, expected {req.n_rows}")
    for row in rows[1:]:
        if len(row) != len(COLUMNS):
            return problems + [f"row has {len(row)} cells"]
        extra = [c for c, v in zip(COLUMNS, row) if v and c not in FILLED[req.command]]
        if extra:
            problems.append(f"{req.command} fills {extra}")
            break
    return problems


def _attempt(fn):
    try:
        return fn()
    except DomainError:
        return None


def _models(req):
    """(market, atom, cev_model or None) built directly from the request's values."""
    m = req.sections["model"]
    if m["type"] == "cev":
        model = CevModel(CevParams(s0=float(m["s0"]), sigma=float(m["sigma"]),
                                   rho=float(m["rho"]), T=float(m["t"])))
        return model.market(), model.atom_model(), model
    p_tilde = None
    if req.table is not None:
        u, p = req.table
        p_tilde = lambda x: float(np.interp(x, u, p, left=0.0, right=p[-1]))
    return MarketSlice(x0=float(m["x0"]), T=float(m["t"])), AtomModel(mass=float(m["m_t"]), p_tilde=p_tilde), None


def reference_row(req, k: float) -> dict:
    """Expected cells of the row at log-moneyness k, from library calls."""
    market, atom, model = _models(req)
    K = market.x0 * math.exp(k)
    cells = {"k": k, "K": K}
    want = FILLED[req.command]
    if want & _APPROX:
        if atom.put is not None:
            cells["leading"] = _attempt(lambda: smile_leading(market, K, atom.put(K / market.x0) * market.x0))
        cells["three_term_atom"] = _attempt(lambda: smile_three_term_atom(market, K, atom.mass))
        if atom.p_tilde is not None:
            cells["three_term_pT"] = _attempt(lambda: smile_three_term_pT(market, K, atom))
        cells["three_term_G"] = _attempt(lambda: smile_three_term_G(market, K, atom))
        cells["dmhj"] = _attempt(lambda: smile_dmhj(market, K, atom.mass))
    if "lower" in want:
        cells["lower"], cells["upper"] = _attempt(lambda: smile_bounds(market, K, atom)) or (None, None)
    if "exact_iv" in want:
        exact = model.exact_smile(K)
        cells["exact_iv"] = exact
        for col, approx in (("err_three_term", "three_term_atom"), ("err_dmhj", "dmhj")):
            if cells[approx] is not None:
                cells[col] = abs(cells[approx] - exact)
    return cells


def reference_mc(req) -> list[dict]:
    """Expected k, K, mc_iv and mc_se of every row, from a direct mc_smile call."""
    market, _, model = _models(req)
    mc = req.sections["mc"]
    cfg = McConfig(n_paths=int(mc["n_paths"]), n_steps=int(mc["n_steps"]), seed=int(mc["seed"]),
                   antithetic=mc["antithetic"] == "true")
    sqT = math.sqrt(market.T)
    rows = []
    for est in mc_smile(model.params, cfg, req.k_grid):
        K = market.x0 * math.exp(est.k)
        cells = {"k": est.k, "K": K}
        if est.normalized_iv is not None:
            iv = est.normalized_iv * abs(est.k) / sqT
            cells["mc_iv"], cells["mc_se"] = iv, est.std_err / vega(market, K, iv)
        rows.append(cells)
    return rows


def sample_rows(req, out: str, rng) -> dict:
    """The CSV rows kept for the library comparison: every row of an mc
    request, one seeded row of any other."""
    rows = parse_csv(out)[1:]
    picked = range(len(rows)) if req.command == "mc" else [int(rng.integers(len(rows)))]
    return {i: rows[i] for i in picked}


def cell_problems(req, rows: dict) -> list[str]:
    """Compare CSV rows (index -> cells) with library references, column by column."""
    try:
        refs = reference_mc(req) if req.command == "mc" else None
        problems = []
        for i, cells in rows.items():
            ref = refs[i] if refs is not None else reference_row(req, req.k_grid[i])
            for col, text in zip(COLUMNS, cells):
                if col not in FILLED[req.command]:
                    continue
                want = ref.get(col)
                got = float(text) if text else None
                if (want is None) != (got is None) or (
                    got is not None and not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
                ):
                    problems.append(f"row {i} {col}: cli {text or 'empty'} library {want!r}")
        return problems
    except AtomvolError as exc:
        return [f"library reference failed: {type(exc).__name__}: {exc}"]
