import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pulseplan import PrfConfig, RadarConfig, default_prf_set


@pytest.fixture
def cfg():
    return RadarConfig()


@pytest.fixture
def prfs():
    return default_prf_set()


@pytest.fixture
def lab_cfg():
    """Round numbers for hand-checked arithmetic: c=3e8, 10 us pulses."""
    return RadarConfig(c=3.0e8, wavelength=0.03, pulse_width=10e-6,
                       n_r=3.0, n_f=3.0, n_intlv=8, pulses_per_look=64)


@pytest.fixture
def lab_prf():
    """12.5 kHz PRF with 2 km / 2 kHz edge clutter; R_u = 12 km."""
    return PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                     c_f_plus=2000.0, c_f_minus=2000.0)
