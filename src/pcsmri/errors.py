"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: config/usage problems
exit 2, I/O problems exit 3, numerical divergence exits 4 and external
denoiser failures exit 5.
"""


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
