"""Diagnostics around the perturbed quantile.

Two facts distinguish the strike-dependent quantile (U_K)^{-1} from the
plain normal quantile N^{-1}.  First, their gap shrinks at the exact
rate 1/sqrt(2 log K): scaled by sqrt(2 log K) it tends to one, for any
mass level.  Second, below mass 1/2 their signs can disagree: the
perturbed quantile crosses zero at mass 1/2 - 1/(2 sqrt(pi log(1/K))),
strictly below one half.
"""

import math

from atomvol import estims_ratio, norm_cdf_inv, sign_classify, u_k_inv

print("scaled quantile gap sqrt(2 log K) * [(U_K)^{-1}(m) - N^{-1}(m)]:")
print(f"{'mass':>6} " + " ".join(f"{f'depth 1e{p}':>12}" for p in (1, 2, 3, 4)))
for mass in (0.1, 0.3, 0.5, 0.7, 0.9):
    row = []
    for power in (1, 2, 3, 4):
        try:
            row.append(f"{estims_ratio(mass, 10.0 ** power):12.5f}")
        except Exception:
            row.append(f"{'undefined':>12}")
    print(f"{mass:6.1f} " + " ".join(row))

print("\nsign of the perturbed quantile for masses below one half (depth 4):")
depth = 4.0
threshold = 0.5 - 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(depth))
print(f"  zero crossing at mass = {threshold:.6f}")
for mass in (0.05, 0.25, threshold, threshold + 0.01, 0.45):
    label = sign_classify(mass, depth)
    u = u_k_inv(mass, depth)
    a = norm_cdf_inv(mass)
    note = "  <- opposite signs" if u > 1e-9 > 0.0 > a else ""
    print(f"  mass={mass:.6f}: classified {label:>8}, "
          f"(U)^-1={u:+.5f}, N^-1={a:+.5f}{note}")
