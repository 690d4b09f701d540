"""Exception types shared across the package, and the scalar judges.

The CLI maps these onto its exit-code contract: config/usage problems
exit 2, I/O problems exit 3, numerical divergence exits 4 and external
denoiser failures exit 5.

Every module judges a scalar argument with one of three helpers that
raise ConfigError: ``_check_count`` (an integer >= a minimum; integral
floats such as 3.0 pass), ``_check_seed`` (None or an integer >= 0) and
``_check_weight`` (a finite float > 0, or >= a given minimum). None of
them takes a string, bytes, a bool or a complex number as a number.
"""

import math

import numpy as np


class PcsmriError(Exception):
    """Base class for all package errors."""


class ShapeError(PcsmriError, ValueError):
    """Array arguments have incompatible or invalid shapes."""


class ConfigError(PcsmriError, ValueError):
    """Invalid parameter value or configuration file entry."""


class ProtocolError(PcsmriError, RuntimeError):
    """Input data violates an acquisition-protocol precondition."""


class EstimationError(PcsmriError, RuntimeError):
    """Sensitivity estimation cannot proceed (e.g. all-zero ACS block)."""


class DivergenceError(PcsmriError, RuntimeError):
    """A solver iterate or the objective became non-finite; message names the step."""


class PriorExecutionError(PcsmriError, RuntimeError):
    """The external denoiser command failed or returned malformed output."""


class ContainerError(PcsmriError, RuntimeError):
    """A data file or its sidecar header is malformed."""


# int() and float() read these as numbers (a numpy complex by dropping
# its imaginary part); the judges do not
_NOT_NUMBERS = (str, bytes, bool, complex, np.bool_, np.complexfloating)


def _check_count(value, name, minimum=1):
    """Return value as an int >= minimum; integral floats such as 3.0 pass."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            if int(value) == value and value >= minimum:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_seed(seed):
    """None, or seed as an int >= 0: numpy's generators take no other seed."""
    return None if seed is None else _check_count(seed, "seed", minimum=0)


def _check_weight(value, name, minimum=None):
    """Return value as a finite float > 0, or >= minimum when one is given."""
    weight = math.nan
    if not isinstance(value, _NOT_NUMBERS):
        try:
            weight = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if math.isfinite(weight) and (weight > 0 if minimum is None
                                  else weight >= minimum):
        return weight
    bound = "> 0" if minimum is None else f">= {minimum}"
    shown = repr(value) if isinstance(value, (str, bytes)) else value
    raise ConfigError(f"{name} must be {bound} and finite, got {shown}")
