"""Bit-identity pins for the serving path (see ``tests/serve_pins.py``).

Every scenario's full result (latencies, outcomes, counters, RNG
states, telemetry streams) must digest to the value recorded with the
per-request serving path.
"""

import json

import pytest

from tests import serve_pins

PINS = json.loads(serve_pins.PIN_FILE.read_text())


@pytest.fixture(scope="module")
def same_platform():
    if serve_pins.platform_fingerprint() != PINS["platform"]:
        pytest.skip(
            "NumPy's exp/log differ in the last bits from the machine the pins "
            "were recorded on"
        )


@pytest.mark.parametrize("name", sorted(serve_pins.SCENARIOS))
def test_scenario_matches_pin(name, same_platform):
    result = serve_pins.SCENARIOS[name]()
    pin = PINS["scenarios"][name]
    assert serve_pins.summary(result) == pin["summary"]
    assert serve_pins.digest(result) == pin["digest"]


def test_every_scenario_is_pinned():
    assert sorted(PINS["scenarios"]) == sorted(serve_pins.SCENARIOS)
