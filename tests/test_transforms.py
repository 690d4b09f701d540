"""Centered unitary FFT pair and the l2 norm."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_complex
from oracles import centered_dft2_apply, inner_product
from pcsmri import ShapeError, fft2c, ifft2c, transforms
from pcsmri.transforms import l2_norm

# deliberately mixes even, odd and rectangular grids
SIZES = [(8, 8), (9, 7), (16, 31), (33, 12), (64, 64), (21, 64)]


def test_round_trip_is_identity():
    rng = np.random.default_rng(0)
    for shape in SIZES:
        x = random_complex(rng, shape)
        np.testing.assert_allclose(ifft2c(fft2c(x)), x, atol=1e-10)
        np.testing.assert_allclose(fft2c(ifft2c(x)), x, atol=1e-10)


def test_unitarity_preserves_l2_norm():
    rng = np.random.default_rng(1)
    for shape in SIZES:
        x = random_complex(rng, shape)
        assert abs(l2_norm(fft2c(x)) - l2_norm(x)) <= 1e-10 * l2_norm(x)
        assert abs(l2_norm(ifft2c(x)) - l2_norm(x)) <= 1e-10 * l2_norm(x)


def test_linearity():
    rng = np.random.default_rng(2)
    for shape in SIZES:
        x = random_complex(rng, shape)
        y = random_complex(rng, shape)
        a = 1.3 - 0.4j
        b = -0.7 + 2.1j
        np.testing.assert_allclose(
            fft2c(a * x + b * y), a * fft2c(x) + b * fft2c(y), atol=1e-10
        )


def test_forward_and_inverse_are_adjoint():
    rng = np.random.default_rng(3)
    for shape in SIZES:
        x = random_complex(rng, shape)
        y = random_complex(rng, shape)
        lhs = inner_product(fft2c(x), y)
        rhs = inner_product(x, ifft2c(y))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_matches_dense_centered_dft():
    rng = np.random.default_rng(4)
    for shape in [(8, 8), (9, 7), (16, 12), (5, 16)]:
        x = random_complex(rng, shape)
        np.testing.assert_allclose(fft2c(x), centered_dft2_apply(x), atol=1e-10)


def test_dc_bin_sits_at_half_indices():
    for h, w in [(8, 8), (9, 7), (16, 12)]:
        flat = np.ones((h, w), dtype=complex)
        ksp = fft2c(flat)
        expected = np.zeros((h, w), dtype=complex)
        expected[h // 2, w // 2] = np.sqrt(h * w)
        np.testing.assert_allclose(ksp, expected, atol=1e-10)

        impulse = np.zeros((h, w), dtype=complex)
        impulse[h // 2, w // 2] = 1.0
        np.testing.assert_allclose(
            fft2c(impulse), np.full((h, w), 1.0 / np.sqrt(h * w)), atol=1e-10
        )


def test_batch_axes_transform_the_last_two():
    rng = np.random.default_rng(5)
    x = random_complex(rng, (3, 2, 8, 10))
    ksp = fft2c(x)
    assert ksp.shape == x.shape
    for i in range(3):
        for j in range(2):
            np.testing.assert_allclose(ksp[i, j], fft2c(x[i, j]), atol=1e-12)


def test_rejects_low_rank_and_empty_input():
    with pytest.raises(ShapeError):
        fft2c(np.ones(8))
    with pytest.raises(ShapeError):
        ifft2c(np.ones((0, 4)))
    with pytest.raises(ShapeError):
        fft2c(np.ones((4, 0)))


def test_elementwise_helpers():
    rng = np.random.default_rng(6)
    a = random_complex(rng, (4, 5))
    assert l2_norm(a) == pytest.approx(np.linalg.norm(a))


def _shifted_reference(x, transform):
    axes = (-2, -1)
    shifted = np.fft.ifftshift(x, axes=axes)
    return np.fft.fftshift(transform(shifted, axes=axes, norm="ortho"), axes=axes)


def _layouts(rng, dtype):
    """2D, batched, odd and non-contiguous inputs of one complex dtype."""
    base = random_complex(rng, (3, 33, 47)).astype(dtype)
    return [base[0], base, random_complex(rng, (2, 2, 8, 10)).astype(dtype),
            base[:, ::2, 1:], np.swapaxes(base, -1, -2)]


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_bit_identical_to_shifted_numpy_pair(dtype):
    rng = np.random.default_rng(8)
    for x in _layouts(rng, dtype):
        for ours, transform in ((fft2c, np.fft.fft2), (ifft2c, np.fft.ifft2)):
            got, want = ours(x), _shifted_reference(x, transform)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)


def test_input_is_never_modified_or_shared():
    rng = np.random.default_rng(9)
    for x in _layouts(rng, np.complex128) + _layouts(rng, np.complex64):
        before = x.copy()
        for transform in (fft2c, ifft2c):
            out = transform(x)
            np.testing.assert_array_equal(x, before)
            assert not np.shares_memory(out, x)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_real_input_keeps_dtype_and_agrees_to_round_off(dtype):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 33, 47)).astype(dtype)
    tol = 10 * np.finfo(dtype).eps * np.sqrt(x.size)
    for ours, transform in ((fft2c, np.fft.fft2), (ifft2c, np.fft.ifft2)):
        got, want = ours(x), _shifted_reference(x, transform)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


def _flagged(rng, width, kind):
    """One bool flag per column: a random subset (maybe empty), one or all."""
    return {"random": rng.random(width) < 0.4,
            "one": np.arange(width) == rng.integers(width),
            "all": np.ones(width, dtype=bool)}[kind]


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.integers(1, 3), max_size=2), h=st.integers(1, 40),
       w=st.integers(1, 40), kind=st.sampled_from(["random", "one", "all"]),
       seed=st.integers(0, 2**32 - 1))
@example(batch=[], h=8, w=8, kind="one", seed=0)
@example(batch=[2], h=9, w=7, kind="all", seed=1)
@example(batch=[3, 2], h=16, w=31, kind="random", seed=2)
@example(batch=[4], h=33, w=12, kind="one", seed=3)
def test_lines_restrict_the_full_transforms(batch, h, w, kind, seed):
    rng = np.random.default_rng(seed)
    lines = _flagged(rng, w, kind)
    x = random_complex(rng, (*batch, h, w))
    k = random_complex(rng, (*batch, h, int(lines.sum())))
    x_before, k_before = x.copy(), k.copy()
    scale = 1e-12 * l2_norm(x)

    got = fft2c(x, lines)
    assert got.shape == k.shape and got.dtype == np.complex128
    assert got.flags.c_contiguous
    # full transform, then select the flagged columns
    assert l2_norm(got - fft2c(x)[..., lines]) <= scale
    back = ifft2c(k, lines)
    assert back.shape == x.shape and back.dtype == np.complex128
    # zero-fill the other columns, then the full inverse
    filled = np.zeros(x.shape, dtype=complex)
    filled[..., lines] = k
    assert l2_norm(back - ifft2c(filled)) <= 1e-12 * l2_norm(k)
    # the restricted pair is adjoint, and inverts on the flagged columns
    lhs, rhs = inner_product(got, k), inner_product(x, back)
    assert abs(lhs - rhs) <= 1e-12 * l2_norm(x) * l2_norm(k)
    assert l2_norm(fft2c(back, lines) - k) <= 1e-12 * l2_norm(k)

    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(k, k_before)
    assert not np.shares_memory(got, x) and not np.shares_memory(back, k)


@pytest.mark.parametrize("shape", [(2, 16, 12), (9, 7)])
def test_lines_keep_single_precision(shape):
    rng = np.random.default_rng(11)
    lines = _flagged(rng, shape[-1], "random") | _flagged(rng, shape[-1], "one")
    x = random_complex(rng, shape).astype(np.complex64)
    got = fft2c(x, lines)
    back = ifft2c(got, lines)
    assert got.dtype == back.dtype == np.complex64
    assert got.flags.c_contiguous
    want = fft2c(x.astype(np.complex128))[..., lines]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())


def test_lines_must_be_one_bool_flag_per_column():
    rng = np.random.default_rng(12)
    x = random_complex(rng, (2, 8, 10))
    lines = np.zeros(10, dtype=bool)
    lines[[1, 4, 5]] = True
    k = fft2c(x, lines)
    for bad in (lines[:-1], np.append(lines, True), np.flatnonzero(lines),
                lines.astype(int), lines.astype(float), lines[None, :],
                np.zeros(0, dtype=bool)):
        with pytest.raises(ShapeError, match="bool flag per column"):
            fft2c(x, bad)
    for bad in (np.flatnonzero(lines), lines.astype(np.uint8), lines[None, :]):
        with pytest.raises(ShapeError, match="bool flag per column"):
            ifft2c(k, bad)
    # the columns given must be the flagged ones
    with pytest.raises(ShapeError, match="flagged lines"):
        ifft2c(k[..., :2], lines)
    with pytest.raises(ShapeError, match="flagged lines"):
        ifft2c(k[0, 0], lines)
    with pytest.raises(ShapeError):
        fft2c(np.ones(10), lines)


def test_only_transforms_py_runs_numpys_ffts():
    # the sampled-column transform, its phase and its centering have one
    # owner; the solver's data-consistency step goes through it too
    fft = re.compile(r"(np|numpy)\.fft\.i?fft[2n]?\b|from numpy\.fft import")
    owner = Path(transforms.__file__)
    assert fft.search(owner.read_text())
    calls = [f"{path.name}:{n}: {line}"
             for path in sorted(owner.parent.glob("*.py")) if path != owner
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if fft.search(line)]
    assert calls == []
