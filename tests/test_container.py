"""Binary array container: bit-exact round trips and strict validation."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex
from pcsmri import (
    ContainerError,
    ShapeError,
    load_array,
    load_image,
    load_mask,
    make_random_mask,
    save_array,
    save_image,
    save_mask,
)


def test_round_trip_is_bit_exact_for_both_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    arr = random_complex(rng, (3, 6, 5))
    for dtype in ("<c8", "<c16"):
        path = tmp_path / f"arr_{dtype[1:]}"
        stored = arr.astype(dtype)
        save_array(path, stored, kind="kspace", dtype=dtype)
        back, kind = load_array(path)
        assert kind == "kspace"
        assert back.dtype == np.dtype(dtype)
        assert back.tobytes() == stored.tobytes()


def test_payload_is_interleaved_little_endian_pairs(tmp_path):
    img = np.array([[1.5 - 2.0j, 3.0 + 0.25j]], dtype=np.complex64)
    path = tmp_path / "pairs"
    save_image(path, img, kind="image")
    floats = np.frombuffer(path.read_bytes(), dtype="<f4")
    np.testing.assert_array_equal(floats, [1.5, -2.0, 3.0, 0.25])


def test_two_dim_input_is_promoted_to_one_coil(tmp_path):
    rng = np.random.default_rng(1)
    img = random_complex(rng, (4, 7))
    save_array(tmp_path / "img", img, kind="image", dtype="<c16")
    back, _ = load_array(tmp_path / "img")
    assert back.shape == (1, 4, 7)
    np.testing.assert_array_equal(back[0], img)


def test_sidecar_has_fixed_key_order(tmp_path):
    save_array(tmp_path / "a", np.ones((2, 3, 4), dtype=complex), kind="sens",
               dtype="<c16")
    assert (tmp_path / "a.hdr").read_text() == (
        "pcsmri-array v1\n"
        "kind: sens\n"
        "coils: 2\n"
        "height: 3\n"
        "width: 4\n"
        "dtype: <c16\n"
        "layout: coil-major\n"
    )


def test_save_rejects_bad_inputs(tmp_path):
    with pytest.raises(ContainerError):
        save_array(tmp_path / "x", np.ones((2, 2), dtype=complex), kind="a b")
    with pytest.raises(ContainerError):
        save_array(tmp_path / "x", np.ones((2, 2), dtype=complex), kind="")
    with pytest.raises(ContainerError):
        save_array(tmp_path / "x", np.ones((2, 2)), kind="image", dtype="<c32")
    with pytest.raises(ShapeError):
        save_array(tmp_path / "x", np.ones(4), kind="image")
    with pytest.raises(ShapeError):
        save_array(tmp_path / "x", np.ones((1, 2, 3, 4)), kind="image")
    with pytest.raises(ShapeError):
        save_image(tmp_path / "x", np.ones((2, 2, 2)), kind="image")


def test_save_refuses_a_finite_value_that_overflows_the_dtype(tmp_path):
    big = np.array([[1.0, 1e39], [-2e39j, 3.0]])
    with pytest.raises(ContainerError, match=r"ov.*<c8: 2 finite values"):
        save_array(tmp_path / "ov", big, kind="image")
    # nor the directory it would have been written to
    with pytest.raises(ContainerError, match=r"ov.*<c8: 2 finite values"):
        save_array(tmp_path / "new" / "ov", big, kind="image")
    assert list(tmp_path.iterdir()) == []
    # float64 pairs hold it; NaN and inf input is stored as it is
    save_array(tmp_path / "wide", big, kind="image", dtype="<c16")
    np.testing.assert_array_equal(load_array(tmp_path / "wide")[0][0], big)
    odd = np.array([[np.nan, np.inf], [-np.inf * 1j, 1.0]])
    save_array(tmp_path / "odd", odd, kind="image")
    np.testing.assert_array_equal(load_array(tmp_path / "odd")[0][0], odd)


def test_save_makes_the_missing_directories_of_its_target(tmp_path):
    arr = np.arange(6, dtype=np.complex64).reshape(1, 2, 3)
    save_array(tmp_path / "flat", arr, kind="image")
    save_array(tmp_path / "a" / "b" / "deep", arr, kind="image")
    for name in ("deep", "deep.hdr"):
        assert ((tmp_path / "a" / "b" / name).read_bytes()
                == (tmp_path / name.replace("deep", "flat")).read_bytes())
    # a file where a directory belongs fails naming the requested path
    with pytest.raises(OSError) as info:
        save_array(tmp_path / "flat" / "x", arr, kind="image")
    assert info.value.filename == str(tmp_path / "flat" / "x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "flat", "flat.hdr"]


def test_expect_kind_mismatch(tmp_path):
    save_array(tmp_path / "k", np.ones((1, 2, 2)), kind="kspace")
    load_array(tmp_path / "k", expect_kind="kspace")
    with pytest.raises(ContainerError):
        load_array(tmp_path / "k", expect_kind="image")


def _write_with_header(tmp_path, name, header_lines, n_values=4):
    path = tmp_path / name
    np.zeros(n_values, dtype="<c8").tofile(path)
    path.with_suffix(".hdr").write_text("\n".join(header_lines) + "\n")
    return path


_GOOD_HEADER = [
    "pcsmri-array v1",
    "kind: image",
    "coils: 1",
    "height: 2",
    "width: 2",
    "dtype: <c8",
    "layout: coil-major",
]


def test_load_error_paths(tmp_path):
    with pytest.raises(ContainerError):
        load_array(tmp_path / "missing")

    ok = _write_with_header(tmp_path, "ok", _GOOD_HEADER)
    load_array(ok)

    bad = dict(enumerate(_GOOD_HEADER))
    cases = {
        "magic": {0: "pcsmri-array v2"},
        "nokind": {1: "kindless"},
        "coils": {2: "coils: one"},
        "dtype": {5: "dtype: <c32"},
        "layout": {6: "layout: line-major"},
        "negative": {2: "coils: 0"},
    }
    for name, repl in cases.items():
        lines = [repl.get(i, line) for i, line in bad.items()]
        path = _write_with_header(tmp_path, name, lines)
        with pytest.raises(ContainerError):
            load_array(path)

    short = _write_with_header(tmp_path, "short", _GOOD_HEADER, n_values=3)
    with pytest.raises(ContainerError):
        load_array(short)

    missing_field = [line for line in _GOOD_HEADER if not line.startswith("height")]
    path = _write_with_header(tmp_path, "nofield", missing_field)
    with pytest.raises(ContainerError):
        load_array(path)

    orphan = tmp_path / "orphan"
    orphan.with_suffix(".hdr").write_text("\n".join(_GOOD_HEADER) + "\n")
    with pytest.raises(ContainerError):
        load_array(orphan)


@pytest.mark.parametrize("line", ["kind: sens", "kind: gt"],
                         ids=["other-value", "same-value"])
def test_a_sidecar_that_states_a_key_twice_is_refused(tmp_path, line):
    # the later line would otherwise pass a gt container off as a map set
    save_image(tmp_path / "gt", np.ones((2, 2)), kind="gt")
    header = tmp_path / "gt.hdr"
    header.write_text(header.read_text() + line + "\n")
    with pytest.raises(ContainerError, match=r"duplicate key 'kind' in .*gt\.hdr"):
        load_array(tmp_path / "gt", expect_kind="sens")


def test_load_image_requires_single_coil(tmp_path):
    save_array(tmp_path / "multi", np.ones((2, 3, 3)), kind="image")
    with pytest.raises(ContainerError):
        load_image(tmp_path / "multi")
    save_image(tmp_path / "single", np.ones((3, 3)), kind="image")
    img, kind = load_image(tmp_path / "single", expect_kind="image")
    assert img.shape == (3, 3)
    assert kind == "image"


def test_loaded_array_is_writable_copy(tmp_path):
    save_array(tmp_path / "c", np.ones((1, 2, 2)), kind="image")
    arr, _ = load_array(tmp_path / "c")
    arr[0, 0, 0] = 5.0  # must not raise; buffer-backed views would
    assert arr[0, 0, 0] == 5.0


def test_float32_storage_quantizes_float64_data(tmp_path):
    # storing <c16 data as <c8 is lossy by design; the round trip through
    # <c16 is exact
    value = np.array([[1 / 3 + (1 / 7) * 1j]], dtype=np.complex128)
    save_image(tmp_path / "lossy", value, kind="image", dtype="<c8")
    back8, _ = load_image(tmp_path / "lossy")
    assert back8[0, 0] != value[0, 0]
    assert abs(back8[0, 0] - value[0, 0]) < 1e-7

    save_image(tmp_path / "exact", value, kind="image", dtype="<c16")
    back16, _ = load_image(tmp_path / "exact")
    assert back16[0, 0] == value[0, 0]


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6),
                                 st.integers(1, 6)), min_size=2, max_size=2),
       suffixes=st.lists(st.sampled_from(["", ".gt", ".kspace", ".v2.sens"]),
                         min_size=2, max_size=2, unique=True),
       dtype=st.sampled_from(["<c8", "<c16"]),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_property_for_names_sharing_a_stem(shapes, suffixes, dtype,
                                                      seed):
    rng = np.random.default_rng(seed)
    arrays = [random_complex(rng, shape).astype(dtype) for shape in shapes]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"scan{suffix}" for suffix in suffixes]
        for index, (path, arr) in enumerate(zip(paths, arrays)):
            save_array(path, arr, kind=f"kind{index}", dtype=dtype)
        for index, (path, arr) in enumerate(zip(paths, arrays)):
            back, _ = load_array(path, expect_kind=f"kind{index}")
            assert back.dtype == np.dtype(dtype)
            assert back.tobytes() == arr.tobytes()
        assert sorted(os.listdir(tmp)) == sorted(
            name for p in paths for name in (p.name, p.name + ".hdr"))


@pytest.mark.parametrize("failure", ["sidecar write", "first rename"])
def test_failed_save_leaves_previous_pair_loadable(tmp_path, monkeypatch,
                                                   failure):
    old = random_complex(np.random.default_rng(7), (2, 3, 4)).astype("<c16")
    old_mask = make_random_mask(4, 16, 2.0, 4, seed=0)
    new_mask = make_random_mask(4, 16, 2.0, 4, seed=1)
    assert not np.array_equal(old_mask.line_selected, new_mask.line_selected)
    save_array(tmp_path / "a", old, kind="kspace", dtype="<c16")
    save_mask(tmp_path / "m", old_mask)
    listing = sorted(os.listdir(tmp_path))

    if failure == "sidecar write":
        real_write = Path.write_bytes

        def write_half_then_fail(self, data):
            # the payload is complete; its sidecar dies half-way
            if self.name.startswith((".a.hdr", ".m.hdr")):
                real_write(self, data[: len(data) // 2])
                raise OSError("disk full")
            return real_write(self, data)

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_array(tmp_path / "a", old + 1, kind="kspace", dtype="<c16")
    with pytest.raises(OSError):
        save_mask(tmp_path / "m", new_mask)
    monkeypatch.undo()

    back, _ = load_array(tmp_path / "a", expect_kind="kspace")
    assert back.tobytes() == old.tobytes()
    assert np.array_equal(load_mask(tmp_path / "m").line_selected,
                          old_mask.line_selected)
    assert sorted(os.listdir(tmp_path)) == listing
