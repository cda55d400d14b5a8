"""Monte Carlo reproduction of the normalized left-wing smile.

Simulates the CEV price to maturity with the deterministic counter-based
generator, inverts the sampled put prices, and overlays the normalized
curve iv * sqrt(T) / |k| against the three-term approximation, the
plain-quantile approximation, and the series oracle.  Also writes
the same comparison as an SVG through the command-line machinery.
"""

import math
import pathlib

from atomvol import (
    CevModel,
    CevParams,
    McConfig,
    mc_smile,
    sigma_for_mass,
    smile_dmhj,
    smile_three_term_atom,
)
from atomvol.cli import main

sigma = sigma_for_mass(0.0707, rho=0.6, s0=0.05, T=1.2)
params = CevParams(s0=0.05, sigma=sigma, rho=0.6, T=1.2)
model = CevModel(params)
market = model.market()
sqT = math.sqrt(params.T)

cfg = McConfig(n_paths=10_000, n_steps=100, seed=1)
grid = [-2.0 - 0.5 * i for i in range(13)]  # k from -2 to -8
estimates = mc_smile(params, cfg, grid)

print(f"m_T = {model.mass:.4f}; {cfg.n_paths} paths x {cfg.n_steps} steps, seed {cfg.seed}")
print(f"absorbed paths: {estimates[0].n_absorbed}")
print(f"\n{'k':>5} {'MC':>8} {'exact':>8} {'3-term':>8} {'DMHJ':>8}   (iv * sqrt(T)/|k|)")
for est in estimates:
    K = params.s0 * math.exp(est.k)
    exact = model.exact_smile(K) * sqT / abs(est.k)
    three = smile_three_term_atom(market, K, model.mass) * sqT / abs(est.k)
    dmhj = smile_dmhj(market, K, model.mass) * sqT / abs(est.k)
    mc = "   --- " if est.normalized_iv is None else f"{est.normalized_iv:8.4f}"
    print(f"{est.k:>5.1f} {mc} {exact:8.4f} {three:8.4f} {dmhj:8.4f}")

out = pathlib.Path(__file__).with_name("normalized_smile.svg")
code = main(
    [
        "compare",
        "--model.type=cev",
        "--model.s0=0.05",
        f"--model.sigma={sigma!r}",
        "--model.rho=0.6",
        "--model.t=1.2",
        "--grid.k_min=-8",
        "--grid.k_max=-2",
        "--grid.n_points=13",
        "--mc.n_paths=10000",
        "--mc.n_steps=100",
        "--mc.seed=1",
        "--format=svg",
        "--out",
        str(out),
    ]
)
print(f"\nSVG overlay written to {out} (exit code {code})")
