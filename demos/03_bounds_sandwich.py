"""Two-sided bounds on the left wing.

The three-term expansion is the Taylor form of an exact square-root
expression built from the H transform; keeping the square root gives an
upper bound that holds at every depth, and deflating the level fed to
the inverse quantile by an epsilon-dependent amount gives a lower bound
valid beyond a model-dependent threshold.  This script locates that
threshold empirically and shows the band tightening like L^(-3/2).
"""

import math

from atomvol import BoundsConfig, CevModel, CevParams, sigma_for_mass, smile_bounds
from atomvol.errors import DomainBelowError

sigma = sigma_for_mass(0.0707, rho=0.6, s0=0.05, T=1.2)
model = CevModel(CevParams(s0=0.05, sigma=sigma, rho=0.6, T=1.2))
market = model.market()
atom = model.atom_model()
cfg = BoundsConfig(epsilon=0.01)

print(f"configuration: m_T = {model.mass:.4f}, epsilon = {cfg.epsilon}")
print(f"\n{'k':>5} {'lower':>9} {'exact':>9} {'upper':>9} {'band':>9}  sandwich")
first_holds = None
for tenth in range(-10, -125, -5):
    k = tenth / 10.0
    K = 0.05 * math.exp(k)
    exact = model.exact_smile(K)
    try:
        lower, upper = smile_bounds(market, K, atom, cfg)
    except DomainBelowError:
        print(f"{k:>5.1f} {'-':>9} {exact:9.5f} {'-':>9} {'-':>9}  lower undefined")
        continue
    holds = lower <= exact <= upper
    if holds and first_holds is None:
        first_holds = k
    print(
        f"{k:>5.1f} {lower:9.5f} {exact:9.5f} {upper:9.5f} "
        f"{upper - lower:9.5f}  {'yes' if holds else 'no'}"
    )

print(f"\nshallowest depth at which the sandwich holds: k = {first_holds}")
print("band width scaled by |k|^(3/2):")
for k in (-6.0, -8.0, -10.0, -12.0):
    K = 0.05 * math.exp(k)
    lower, upper = smile_bounds(market, K, atom, cfg)
    print(f"  k={k:>5.1f}: (upper-lower)*|k|^1.5 = {(upper - lower) * abs(k) ** 1.5:.4f}")
