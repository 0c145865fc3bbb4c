"""The inline jitter draw is ``randint(0, m)``'s stream, draw for draw.

``Machine._external_request`` draws its perturbation jitter by
rejection-sampling ``getrandbits`` inline, as CPython's ``randint(0, m)``
does below its wrapper frames. Here a machine whose broadcast path is
stubbed to latency 0 returns exactly the jitter from every external
request; those draws must equal ``Random(derive_seed(seed,
"perturbation")).randint(0, m)``'s for every magnitude the check covers.
"""

import random

import pytest

from repro.coherence.requests import RequestType
from repro.common.rng import derive_seed
from repro.system.config import SystemConfig
from repro.system.machine import Machine

from tests.conftest import make_config

DRAWS = 10_000
PAPER_MAGNITUDE = SystemConfig.paper_cgct().timing.perturbation_cycles


def jitter_draws(magnitude: int, seed: int, count: int):
    """*count* jitters drawn through ``_external_request``."""
    machine = Machine(make_config(cgct=False, perturbation=magnitude),
                      seed=seed)
    # A baseline read broadcasts; with the broadcast stubbed to zero
    # latency, the request returns its jitter alone.
    machine._broadcast_request = lambda *args: 0
    request = machine._external_request
    read = RequestType.READ
    return [request(0, read, 0, 0) for _ in range(count)]


@pytest.mark.parametrize(
    "magnitude", sorted(set(range(1, 65)) | {PAPER_MAGNITUDE}))
def test_inline_draw_matches_randint(magnitude):
    seed = 1000 + magnitude
    reference = random.Random(derive_seed(seed, "perturbation"))
    expected = [reference.randint(0, magnitude) for _ in range(DRAWS)]
    assert jitter_draws(magnitude, seed, DRAWS) == expected

