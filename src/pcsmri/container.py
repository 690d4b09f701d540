"""Shared on-disk container for complex arrays: raw binary plus text sidecar.

Binary payload is little-endian interleaved (re, im) float pairs in C
order, coil-major for multi-coil data. The sidecar (the full path plus
``.hdr``, so ``a.gt`` pairs with ``a.gt.hdr``) is human-readable text
in UTF-8, with each key once and in a fixed order so files diff cleanly:

    pcsmri-array v1
    kind: kspace
    coils: 4
    height: 128
    width: 128
    dtype: <c8
    layout: coil-major

``dtype`` is ``<c8`` (float32 pairs, the default) or ``<c16`` (float64
pairs, used where bit-level fidelity matters more than size). Plain
images are stored as coils=1. Round trips are bit-exact for data
already in the stored dtype.

Masks and manifests share this header codec. Each file, and every text
artifact of the CLI, is written to a temporary sibling, in a directory
made if missing, and renamed over its target: a failure before the write
creates nothing, and one during it leaves the previous files in place
(and may leave a directory it made).
"""

import errno
import os
import threading
from pathlib import Path

import numpy as np

from .errors import ContainerError, ShapeError

_ARRAY_MAGIC = "pcsmri-array v1"
_ARRAY_FIELDS = {"kind": str, "coils": int, "height": int, "width": int,
                 "dtype": str, "layout": str}
_DTYPES = ("<c8", "<c16")


def _sidecar(path):
    return Path(f"{Path(path)}.hdr")


def _write_files(files):
    """Write (path, bytes) pairs, each to a temporary sibling first.

    Every file is written in full before the first rename, in the given
    order, so an interrupted write leaves the previous files in place.
    A missing directory is made just before the first file in it, and
    stays if an I/O error follows. An OSError names the requested path;
    a target with no file name (``.``, ``/``) raises one before any write.
    """
    files = [(Path(target), data) for target, data in files]
    for target, _ in files:
        if not target.name:
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    temps = []
    try:
        for target, data in files:
            if not temps or temps[-1].parent != target.parent:
                target.parent.mkdir(parents=True, exist_ok=True)
            temps.append(target.with_name(
                f".{target.name}.{os.getpid()}-{threading.get_ident()}.tmp"))
            temps[-1].write_bytes(data)
        for (target, _), temp in zip(files, temps):
            os.replace(temp, target)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(target)) from None
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_header(path, magic, pairs, payload=None):
    """Write a header file at path, or a payload at path plus its sidecar."""
    text = f"{magic}\n" + "".join(f"{k}: {v}\n" for k, v in pairs)
    header = text.encode(errors="surrogateescape")  # a non-UTF-8 name: its bytes
    _write_files([(path, header)] if payload is None else [
        (path, payload), (_sidecar(path), header)])


def _read_header(path, magic, schema):
    """The sidecar values of path, converted by ``schema`` (key -> converter).

    Any defect in the sidecar raises ContainerError, among them bytes that
    are not UTF-8 and a key stated twice.
    """
    sidecar = _sidecar(path)
    try:
        lines = sidecar.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ContainerError(f"missing sidecar {sidecar}") from None
    except UnicodeDecodeError as exc:
        raise ContainerError(f"{sidecar} is not UTF-8 text: {exc}") from None
    if not lines or lines[0] != magic:
        raise ContainerError(f"{sidecar} is not a {magic} sidecar")
    fields = {}
    for line in filter(str.strip, lines[1:]):
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ContainerError(f"malformed sidecar line {line!r} in {sidecar}")
        if key in fields:
            raise ContainerError(f"duplicate key {key!r} in {sidecar}")
        fields[key] = value.strip()
    try:
        return [convert(fields[key]) for key, convert in schema.items()]
    except (KeyError, ValueError) as exc:
        raise ContainerError(f"bad sidecar field in {sidecar}: {exc}") from None


def save_array(path, arr, kind, dtype="<c8"):
    """Write a complex (H, W) or (coils, H, W) array with its sidecar.

    A finite value that ``dtype`` cannot hold raises ContainerError and
    nothing is written; NaN and inf are stored as they are.
    """
    if dtype not in _DTYPES:
        raise ContainerError(f"unsupported dtype {dtype!r}, expected one of {_DTYPES}")
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ShapeError(f"expected (H, W) or (coils, H, W), got shape {arr.shape}")
    if not kind or any(c.isspace() for c in kind):
        raise ContainerError(f"invalid kind {kind!r}")
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(arr.astype(dtype, copy=False))
    if not np.can_cast(arr.dtype, dtype) and np.isinf(stored).any():
        overflow = np.count_nonzero(np.isinf(stored) & np.isfinite(arr))
        if overflow:
            raise ContainerError(
                f"cannot store {path} as {dtype}: {overflow} finite values overflow it")
    _write_header(
        path, _ARRAY_MAGIC,
        zip(_ARRAY_FIELDS, [kind, *arr.shape, dtype, "coil-major"]),
        payload=stored.tobytes(),
    )


def _read_payload(path, expected):
    """The bytes of path, which must hold exactly ``expected`` of them."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise ContainerError(f"missing payload file {path}") from None
    if len(raw) != expected:
        raise ContainerError(
            f"{path} holds {len(raw)} bytes, sidecar implies {expected}"
        )
    return raw


def load_array(path, expect_kind=None):
    """Read an array written by save_array.

    Returns (arr, kind) with arr of shape (coils, height, width) in the
    stored dtype. Raises ContainerError on any structural problem, and
    on kind mismatch when ``expect_kind`` is given.
    """
    sidecar = _sidecar(path)
    kind, coils, height, width, dtype, layout = _read_header(
        path, _ARRAY_MAGIC, _ARRAY_FIELDS)
    if dtype not in _DTYPES:
        raise ContainerError(f"unsupported dtype {dtype!r} in {sidecar}")
    if layout != "coil-major":
        raise ContainerError(f"unsupported layout {layout!r} in {sidecar}")
    if min(coils, height, width) < 1:
        raise ContainerError(f"non-positive dimensions in {sidecar}")
    if expect_kind is not None and kind != expect_kind:
        raise ContainerError(f"{path} holds kind={kind!r}, expected {expect_kind!r}")
    raw = _read_payload(path, coils * height * width * np.dtype(dtype).itemsize)
    arr = np.frombuffer(raw, dtype=dtype).reshape(coils, height, width)
    return arr.copy(), kind


def save_image(path, img, kind, dtype="<c8"):
    """Write a single (H, W) complex image."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ShapeError(f"expected a 2D image, got shape {img.shape}")
    save_array(path, img, kind, dtype=dtype)


def load_image(path, expect_kind=None):
    """Read a single-coil container back as an (H, W) array."""
    arr, kind = load_array(path, expect_kind=expect_kind)
    if arr.shape[0] != 1:
        raise ContainerError(f"{path} holds {arr.shape[0]} coils, expected 1")
    return arr[0], kind
