"""Small-strike implied-volatility asymptotics for asset-price models
whose terminal distribution carries an atom at zero, with a CEV
oracle summed as a Poisson-Gamma series and a reproducible Monte Carlo
harness."""

from atomvol.blackscholes import (
    MarketSlice,
    OptionQuote,
    bs_price,
    d1_d2,
    implied_vol,
    vega,
)
from atomvol.cev import CevModel, CevParams
from atomvol.errors import (
    AtomvolError,
    ConfigError,
    DomainAboveError,
    DomainBelowError,
    DomainError,
    NoSolutionError,
    QuadratureError,
)
from atomvol.montecarlo import (
    McConfig,
    McSmileEstimate,
    mc_put_price,
    mc_smile,
    simulate_terminals,
)
from atomvol.specfun import (
    norm_cdf,
    norm_cdf_inv,
    reg_inc_gamma,
    reg_inc_gamma_upper,
)
from atomvol.wing import (
    AtomModel,
    BoundsConfig,
    estims_ratio,
    g_from_put,
    sign_classify,
    smile_bounds,
    smile_dmhj,
    smile_grid,
    smile_leading,
    smile_sqrt_form,
    smile_three_term_G,
    smile_three_term_atom,
    smile_three_term_pT,
    u_k,
    u_k_inv,
)

__version__ = "0.1.0"

__all__ = [
    "MarketSlice",
    "OptionQuote",
    "bs_price",
    "d1_d2",
    "implied_vol",
    "vega",
    "CevModel",
    "CevParams",
    "AtomvolError",
    "ConfigError",
    "DomainAboveError",
    "DomainBelowError",
    "DomainError",
    "NoSolutionError",
    "QuadratureError",
    "McConfig",
    "McSmileEstimate",
    "mc_put_price",
    "mc_smile",
    "simulate_terminals",
    "norm_cdf",
    "norm_cdf_inv",
    "reg_inc_gamma",
    "reg_inc_gamma_upper",
    "AtomModel",
    "BoundsConfig",
    "estims_ratio",
    "g_from_put",
    "sign_classify",
    "smile_bounds",
    "smile_dmhj",
    "smile_grid",
    "smile_leading",
    "smile_sqrt_form",
    "smile_three_term_G",
    "smile_three_term_atom",
    "smile_three_term_pT",
    "u_k",
    "u_k_inv",
    "__version__",
]
