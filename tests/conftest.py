import pytest

from otazone import WaveSpec


@pytest.fixture(scope="session")
def wave():
    return WaveSpec()


@pytest.fixture(scope="session")
def lam(wave):
    return wave.wavelength
