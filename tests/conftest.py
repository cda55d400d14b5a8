"""Shared fixtures: the two CEV configurations used across the suite.

The printed configuration is the documented parameter set (s0=0.05,
T=1.2, rho=0.6, sigma=0.2).  The reference configuration keeps s0, T
and rho but sets sigma, in closed form (atomvol.sigma_for_mass), so that the
mass at zero equals 0.0707, the anchor value of the comparison
experiments; it is the sigma of tools/cli_digest.py's reference
requests, bit for bit.  The printed sigma does not reproduce that
mass (see the acceptance output for the evidence).

Property tests run under one fixed hypothesis profile: derandomized, so
every run draws the same examples, and with no deadline, since timings
on a loaded machine vary.  With no example database and hypothesis's
own caches moved to the system temp directory, a test run writes no
.hypothesis/ directory into the checkout.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from atomvol import CevModel, CevParams, sigma_for_mass

PRINTED_PARAMS = CevParams(s0=0.05, sigma=0.2, rho=0.6, T=1.2)
ANCHOR_MASS = 0.0707

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "atomvol-hypothesis")
settings.register_profile("atomvol", derandomize=True, deadline=None, database=None)
settings.load_profile("atomvol")


@pytest.fixture(scope="session")
def printed_model() -> CevModel:
    return CevModel(PRINTED_PARAMS)


@pytest.fixture(scope="session")
def reference_sigma() -> float:
    return sigma_for_mass(ANCHOR_MASS)


@pytest.fixture(scope="session")
def reference_model(reference_sigma) -> CevModel:
    return CevModel(CevParams(s0=0.05, sigma=reference_sigma, rho=0.6, T=1.2))
