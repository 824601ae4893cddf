import inspect
import math
import re

import pytest

from dtqw import errors
from dtqw.core import CoinParams, wrap_angle
from dtqw.edge import InitialStateCase, InterfaceSpec, analytic_edge_state, dynamics_experiment
from dtqw.errors import NumericalContractError, ValidationError, WalkError
from dtqw.lattice import WalkerState, build_walk, evolve
from dtqw.momentum import band_structure
from dtqw.topology import FrameVariant, rotated_winding, winding_mt

SPEC = InterfaceSpec(0.0, 0.0, math.pi / 2, -math.pi / 4, math.pi / 4, 64)
COIN = CoinParams(0, 0, 0, math.pi / 4)

# Sites that raise for a domain error, each with the text its message carries.
DOMAIN_ERRORS = {
    "wrap_angle": (lambda: wrap_angle(math.nan), "angle nan is not finite"),
    "analytic_edge_state": (lambda: analytic_edge_state(SPEC, 1.0), "eta = 1.0 must be 0 or pi"),
    "dynamics_experiment": (
        lambda: dynamics_experiment(SPEC, InitialStateCase.OVERLAP_ONE, 5),
        "steps = 5: the experiment needs at least 12 steps"),
    "build_walk": (lambda: build_walk(COIN), "need either a profile or n_sites"),
    "evolve": (lambda: evolve(build_walk(COIN, n_sites=8), WalkerState.localized(8, 0), -1),
               "steps = -1 must be nonnegative"),
    "band_structure": (lambda: band_structure(COIN, 4), "grid_size must be at least 8, got 4"),
    "winding_mt": (lambda: winding_mt(CoinParams(0, 0, 0, 0)),
                   "gapless parameters: theta = 0.0 closes both gaps"),
    "WalkerState.localized": (lambda: WalkerState.localized(8, 0, (0.0, 0.0)),
                              "spinor (0.0, 0.0) has norm 0.0: a localized state needs a "
                              "finite nonzero spinor"),
    "rotated_winding": (lambda: rotated_winding(COIN, FrameVariant.IDENTITY),
                        "the identity frame has no chiral axis"),
}


@pytest.mark.parametrize("site", sorted(DOMAIN_ERRORS))
def test_domain_errors_are_validation_errors(site):
    call, message = DOMAIN_ERRORS[site]
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, WalkError)


def test_one_error_class_per_exit_code():
    classes = {name for name, value in inspect.getmembers(errors, inspect.isclass)
               if value.__module__ == errors.__name__}
    assert classes == {"WalkError", "ValidationError", "NumericalContractError"}
    assert issubclass(NumericalContractError, WalkError)
    assert not issubclass(NumericalContractError, ValueError)
