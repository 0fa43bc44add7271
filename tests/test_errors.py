"""The exception hierarchy contract."""

import pytest

from repro.errors import (
    ConfigError, DeviceError, MemoryError_, ReproError, SimulationError,
)


@pytest.mark.parametrize("exc", [
    SimulationError, ConfigError, MemoryError_, DeviceError,
])
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)


def test_repro_error_catchable_as_exception():
    with pytest.raises(ReproError):
        raise ConfigError("bad")


def test_memory_error_is_not_builtin_memoryerror():
    # deliberately distinct from the builtin (hence the underscore)
    assert not issubclass(MemoryError_, MemoryError)
