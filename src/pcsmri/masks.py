"""1D Cartesian undersampling masks with a fully sampled central ACS band.

The phase-encode direction is fixed to grid columns: a "line" is one
column of k-space, and the 2D mask is constant along each column (the
frequency-encode direction). Transpose data at the I/O boundary if your
convention differs.

Organ protocols ship as named presets: equispaced R=4 for brain, random
R=6 for knee and random R=8 for cardiac, all with a 24-line ACS band.
The cardiac pattern is a stand-in choice, not a literal clinical
trajectory. All masks use ``acs_width`` contiguous central lines.
"""

import math
from dataclasses import dataclass

import numpy as np

from .container import _read_header, _read_payload, _write_header
from .errors import (ConfigError, ContainerError, ShapeError, _check_count,
                     _check_seed, _check_weight)

_MASK_MAGIC = "pcsmri-mask v1"
_MASK_FIELDS = {"height": int, "width": int, "r": float, "acs_width": int,
                "kind": str, "seed": lambda v: None if v == "none" else int(v)}


def acs_band(width, acs_width):
    """Int (start, stop) of the central ACS band; acs_width <= width, both integral."""
    width = _check_count(width, "width", minimum=0)
    acs_width = _check_count(acs_width, "acs_width", minimum=0)
    if acs_width > width:
        raise ConfigError(f"acs_width {acs_width} out of range for width {width}")
    start = width // 2 - acs_width // 2
    return start, start + acs_width


def _check_dims(height, width):
    """(height, width) as ints; ShapeError unless both are positive."""
    height, width = (_check_count(n, "mask dimension", minimum=0)
                     for n in (height, width))
    if height == 0 or width == 0:
        raise ShapeError("mask dimensions must be positive")
    return height, width


@dataclass(frozen=True)
class SamplingMask:
    """Binary selection of phase-encode lines (columns) of an H x W grid.

    ``line_selected`` holds one 0/1 flag per column; ``forward`` and the DC
    step transform only the flagged columns, and ``adjoint`` zeroes the
    others before its inverse. Instances are immutable and safe to share.
    """

    height: int
    width: int
    line_selected: np.ndarray
    acs_width: int
    acceleration: float
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        height, width = _check_dims(self.height, self.width)
        lines = np.asarray(self.line_selected)
        if lines.shape != (width,):
            raise ShapeError(
                f"line_selected has shape {lines.shape}, expected ({width},)"
            )
        bad = lines[(lines != 0) & (lines != 1)]
        if bad.size:
            raise ConfigError(f"line flag {bad[0]}, expected 0 or 1")
        lines = lines.astype(bool)
        start, stop = acs_band(width, self.acs_width)
        if not lines[start:stop].all():
            raise ConfigError("ACS band is not fully selected")
        r = _check_weight(self.acceleration, "acceleration", minimum=1)
        lines.setflags(write=False)
        for name, value in (("height", height), ("width", width),
                            ("line_selected", lines), ("acs_width", stop - start),
                            ("acceleration", r), ("seed", _check_seed(self.seed))):
            object.__setattr__(self, name, value)

    @property
    def n_selected(self):
        return int(self.line_selected.sum())

    @property
    def sampling_ratio(self):
        return self.n_selected / self.width


def _check_budget(height, width, r, acs_width):
    """(width, r, budget, start, stop) for a maker's judged arguments."""
    _, width = _check_dims(height, width)
    start, stop = acs_band(width, acs_width)
    r = _check_weight(r, "acceleration", minimum=1)
    budget = int(round(width / r))
    if budget < 1:
        raise ConfigError(f"line budget round({width}/{r}) = 0 selects no line")
    if budget < stop - start:
        raise ConfigError(
            f"line budget round({width}/{r}) = {budget} is smaller than "
            f"the {stop - start}-line ACS band"
        )
    return width, r, budget, start, stop


def make_random_mask(height, width, r, acs_width, seed):
    """Uniform random Cartesian mask with exactly round(width / r) lines.

    The ACS band counts toward the budget; the remaining lines are drawn
    uniformly without replacement from the non-ACS lines. Deterministic
    for a given seed.
    """
    seed = _check_seed(seed)
    width, r, budget, start, stop = _check_budget(height, width, r, acs_width)
    lines = np.zeros(width, dtype=bool)
    lines[start:stop] = True
    candidates = np.flatnonzero(~lines)
    n_extra = budget - (stop - start)
    rng = np.random.default_rng(seed)
    if n_extra > 0:
        chosen = rng.choice(candidates, size=n_extra, replace=False)
        lines[chosen] = True
    return SamplingMask(height, width, lines, acs_width, r, "random", seed)


def make_equispaced_mask(height, width, r, acs_width, seed):
    """Equispaced mask: stride-r lines from a random offset, ACS overlaid.

    The stride pattern contributes exactly ceil(width / r) lines (indices
    wrap modulo width when r does not divide width), so the realized
    sampling ratio can exceed 1/r by up to acs_width / width after the
    ACS overlay.
    """
    seed = _check_seed(seed)
    width, r, _, start, stop = _check_budget(height, width, r, acs_width)
    r_int = int(round(r))
    if abs(r - r_int) > 1e-12:
        raise ConfigError(f"equispaced masks need an integer acceleration, got {r}")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, r_int))
    n_stride = math.ceil(width / r_int)
    stride_lines = (offset + r_int * np.arange(n_stride)) % width
    lines = np.zeros(width, dtype=bool)
    lines[stride_lines] = True
    lines[start:stop] = True
    return SamplingMask(
        height, width, lines, acs_width, float(r_int), "equispaced", seed
    )


MASK_KINDS = {"random": make_random_mask, "equispaced": make_equispaced_mask}


@dataclass(frozen=True)
class MaskProtocol:
    kind: str
    r: float
    acs_width: int


PRESETS = {
    "brain": MaskProtocol("equispaced", 4.0, 24),
    "knee": MaskProtocol("random", 6.0, 24),
    "cardiac": MaskProtocol("random", 8.0, 24),
}


def make_preset_mask(name, height, width, seed):
    try:
        proto = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return MASK_KINDS[proto.kind](height, width, proto.r, proto.acs_width, seed)


def save_mask(path, mask):
    """Write a mask as width bytes of 0/1 line flags plus a text sidecar."""
    seed = "none" if mask.seed is None else mask.seed
    _write_header(
        path, _MASK_MAGIC,
        zip(_MASK_FIELDS, [mask.height, mask.width, mask.acceleration,
                           mask.acs_width, mask.kind, seed]),
        payload=mask.line_selected.astype(np.uint8).tobytes(),
    )


def load_mask(path):
    """Read a mask written by save_mask; a malformed file raises ContainerError."""
    height, width, r, acs_width, kind, seed = _read_header(
        path, _MASK_MAGIC, _MASK_FIELDS)
    flags = np.frombuffer(_read_payload(path, width), dtype=np.uint8)
    try:
        return SamplingMask(height, width, flags, acs_width, r, kind, seed)
    except (ConfigError, ShapeError) as exc:
        raise ContainerError(f"{path} holds an invalid mask: {exc}") from None


def mask_summary(mask):
    return (
        f"{mask.kind} mask {mask.height}x{mask.width}, R={mask.acceleration:g}, "
        f"acs={mask.acs_width}, lines={mask.n_selected} "
        f"(ratio {mask.sampling_ratio:.4f})"
    )
