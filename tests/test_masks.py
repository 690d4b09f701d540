"""Cartesian line masks: budgets, ACS handling, presets and mask I/O."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_read_only
from pcsmri import (
    ConfigError,
    ContainerError,
    SamplingMask,
    ShapeError,
    acs_band,
    load_array,
    load_mask,
    make_equispaced_mask,
    make_preset_mask,
    make_random_mask,
    save_array,
    save_mask,
)
from pcsmri.masks import PRESETS, mask_summary


def test_acs_band_is_centered():
    assert acs_band(128, 24) == (52, 76)
    assert acs_band(11, 3) == (4, 7)
    assert acs_band(10, 0) == (5, 5)
    with pytest.raises(ConfigError):
        acs_band(10, 11)
    with pytest.raises(ConfigError):
        acs_band(10, -1)
    for width in (16.5, np.nan):
        with pytest.raises(ConfigError, match="width must be an integer >= 0"):
            acs_band(width, 2)


def test_random_mask_hits_exact_line_budget():
    for width, r in [(320, 4.0), (320, 6.0), (320, 8.0), (128, 4.0), (96, 3.0)]:
        mask = make_random_mask(64, width, r, 24, seed=0)
        assert mask.n_selected == round(width / r)
        start, stop = acs_band(width, 24)
        assert mask.line_selected[start:stop].all()
        assert mask.kind == "random"
        assert mask.acceleration == r


def test_random_mask_deterministic_per_seed():
    a = make_random_mask(32, 128, 4.0, 16, seed=7)
    b = make_random_mask(32, 128, 4.0, 16, seed=7)
    c = make_random_mask(32, 128, 4.0, 16, seed=8)
    np.testing.assert_array_equal(a.line_selected, b.line_selected)
    assert not np.array_equal(a.line_selected, c.line_selected)


def test_random_mask_budget_validation():
    with pytest.raises(ConfigError):
        make_random_mask(32, 64, 8.0, 24, seed=0)  # budget 8 < acs 24
    with pytest.raises(ConfigError):
        make_random_mask(32, 64, 0.5, 4, seed=0)
    with pytest.raises(ConfigError):
        make_random_mask(32, 64, 4.0, -1, seed=0)
    # a non-finite acceleration, or a budget of no line at all
    for make in (make_random_mask, make_equispaced_mask):
        for r in (np.nan, np.inf, 200.0):
            with pytest.raises(ConfigError):
                make(32, 64, r, 0, seed=0)
        # numpy's generators take a seed >= 0 only
        for seed in (-1, 1.5, "3"):
            with pytest.raises(ConfigError, match="seed"):
                make(8, 8, 2.0, 2, seed)
        for width in (16.5, "16"):
            with pytest.raises(ConfigError):
                make(8, width, 2.0, 2, seed=0)
        # an empty grid is a shape fault, whichever side is zero
        for height, width in ((0, 16), (16, 0)):
            with pytest.raises(ShapeError, match="mask dimensions must be positive"):
                make(height, width, 4.0, 0, seed=0)
        assert make(8, 16.0, 2.0, 2, seed=0).width == 16


def test_equispaced_mask_strides_from_a_seeded_offset():
    mask = make_equispaced_mask(32, 128, 4.0, 8, seed=3)
    cols = np.flatnonzero(mask.line_selected)
    start, stop = acs_band(128, 8)
    outside = cols[(cols < start) | (cols >= stop)]
    offsets = np.unique(outside % 4)
    assert offsets.size == 1  # all stride lines share one residue class
    assert mask.kind == "equispaced"


def test_equispaced_mask_wraps_when_stride_does_not_divide_width():
    mask = make_equispaced_mask(16, 10, 3.0, 0, seed=1)
    cols = set(np.flatnonzero(mask.line_selected).tolist())
    assert len(cols) == int(np.ceil(10 / 3))
    candidates = [{(off + 3 * i) % 10 for i in range(4)} for off in range(3)]
    assert cols in candidates


def test_equispaced_mask_rejects_fractional_acceleration():
    with pytest.raises(ConfigError):
        make_equispaced_mask(32, 128, 3.5, 8, seed=0)
    with pytest.raises(ConfigError):
        make_equispaced_mask(32, 128, 0.0, 8, seed=0)


@pytest.mark.parametrize("name,kind,r", [
    ("brain", "equispaced", 4.0),
    ("knee", "random", 6.0),
    ("cardiac", "random", 8.0),
])
def test_presets_follow_their_protocols(name, kind, r):
    mask = make_preset_mask(name, 320, 320, seed=11)
    assert mask.kind == kind
    assert mask.acceleration == r
    assert mask.acs_width == 24
    start, stop = acs_band(320, 24)
    assert mask.line_selected[start:stop].all()
    if kind == "random":
        assert mask.n_selected == round(320 / r)
    again = make_preset_mask(name, 320, 320, seed=11)
    np.testing.assert_array_equal(mask.line_selected, again.line_selected)


def test_preset_table_is_complete():
    assert sorted(PRESETS) == ["brain", "cardiac", "knee"]
    with pytest.raises(ConfigError):
        make_preset_mask("spine", 320, 320, seed=0)


def test_mask_dataclass_validates_and_freezes():
    lines = np.zeros(16, dtype=bool)
    lines[6:10] = True
    mask = SamplingMask(8, 16, lines, 4, 4.0)
    assert mask.n_selected == 4
    assert mask.sampling_ratio == 0.25
    assert_read_only(mask.line_selected)

    with pytest.raises(ConfigError):
        SamplingMask(8, 16, np.zeros(16, dtype=bool), 4, 4.0)  # ACS unselected
    with pytest.raises(ShapeError):
        SamplingMask(8, 16, np.zeros(15, dtype=bool), 0, 4.0)
    with pytest.raises(ShapeError):
        SamplingMask(0, 16, lines, 4, 4.0)
    # so save_mask never writes an acceleration that load_mask rejects
    for r in (float("nan"), float("inf"), 0.5):
        with pytest.raises(ConfigError):
            SamplingMask(8, 16, lines, 4, r)
    # nor a height, width or seed
    fields = dict(height=8, width=16, line_selected=lines, acs_width=4,
                  acceleration=4.0)
    for field, bad in (("height", 2.5), ("height", "8"), ("width", 16.5),
                       ("height", -1), ("seed", 2.5), ("seed", -1)):
        with pytest.raises(ConfigError):
            SamplingMask(**(fields | {field: bad}))
    mask = SamplingMask(8.0, 16, lines, 4, 4.0, seed=3.0)
    assert (type(mask.height), type(mask.seed)) == (int, int)


def test_mask_round_trips_through_disk(tmp_path):
    mask = make_random_mask(64, 96, 3.0, 12, seed=5)
    path = tmp_path / "mask"
    save_mask(path, mask)
    back = load_mask(path)
    np.testing.assert_array_equal(back.line_selected, mask.line_selected)
    assert (back.height, back.width) == (64, 96)
    assert back.acs_width == 12
    assert back.acceleration == 3.0
    assert back.kind == "random"
    assert back.seed == 5

    header = (tmp_path / "mask.hdr").read_text().splitlines()
    assert header[0] == "pcsmri-mask v1"
    assert header[1] == "height: 64"
    assert header[2] == "width: 96"


def test_mask_seedless_round_trip(tmp_path):
    lines = np.zeros(16, dtype=bool)
    lines[6:10] = True
    mask = SamplingMask(8, 16, lines, 4, 4.0)
    save_mask(tmp_path / "m", mask)
    assert "seed: none" in (tmp_path / "m.hdr").read_text()
    assert load_mask(tmp_path / "m").seed is None


def test_mask_load_error_paths(tmp_path):
    mask = make_random_mask(8, 16, 2.0, 4, seed=0)
    save_mask(tmp_path / "ok", mask)

    with pytest.raises(ContainerError):
        load_mask(tmp_path / "absent")

    bad_magic = tmp_path / "magic"
    save_mask(bad_magic, mask)
    header = bad_magic.with_suffix(".hdr")
    header.write_text(header.read_text().replace("pcsmri-mask v1", "other"))
    with pytest.raises(ContainerError):
        load_mask(bad_magic)

    bad_field = tmp_path / "field"
    save_mask(bad_field, mask)
    header = bad_field.with_suffix(".hdr")
    header.write_text(header.read_text().replace("width: 16", "width: sixteen"))
    with pytest.raises(ContainerError):
        load_mask(bad_field)

    no_colon = tmp_path / "colon"
    save_mask(no_colon, mask)
    header = tmp_path / "colon.hdr"
    header.write_text(header.read_text() + "stray line\n")
    with pytest.raises(ContainerError):
        load_mask(no_colon)

    truncated = tmp_path / "short"
    save_mask(truncated, mask)
    truncated.write_bytes(truncated.read_bytes()[:-2])
    with pytest.raises(ContainerError):
        load_mask(truncated)

    no_payload = tmp_path / "gone"
    save_mask(no_payload, mask)
    no_payload.unlink()
    with pytest.raises(ContainerError, match="missing payload"):
        load_mask(no_payload)


@pytest.mark.parametrize("make", [make_random_mask, make_equispaced_mask])
def test_an_integral_float_acs_width_counts_as_an_int(tmp_path, make):
    mask = make(32, 64, 4.0, 12.0, seed=3)
    want = make(32, 64, 4.0, 12, seed=3)
    np.testing.assert_array_equal(mask.line_selected, want.line_selected)
    assert type(mask.acs_width) is int and mask.acs_width == 12
    save_mask(tmp_path / "m", mask)
    assert "acs_width: 12\n" in (tmp_path / "m.hdr").read_text()
    assert load_mask(tmp_path / "m").acs_width == 12


@pytest.mark.parametrize("acs", [12.5, float("nan"), "12"])
def test_a_non_integral_acs_width_is_a_config_error(acs):
    with pytest.raises(ConfigError):
        acs_band(64, acs)
    for make in (make_random_mask, make_equispaced_mask):
        with pytest.raises(ConfigError):
            make(32, 64, 4.0, acs, seed=3)
    with pytest.raises(ConfigError):
        SamplingMask(32, 64, np.ones(64, dtype=bool), acs, 1.0)


@pytest.mark.parametrize("field,value", [
    ("acs_width", "999"), ("height", "0"), ("acs_width", "16"), ("r", "nan"),
    ("r", "0.5"),
])
def test_mask_load_names_the_file_of_a_mask_it_rejects(tmp_path, field, value):
    path = tmp_path / "m"
    save_mask(path, make_random_mask(8, 16, 2.0, 4, seed=0))
    header = tmp_path / "m.hdr"
    header.write_text(re.sub(rf"^{field}: .*$", f"{field}: {value}",
                             header.read_text(), flags=re.M))
    with pytest.raises(ContainerError, match=re.escape(str(path))):
        load_mask(path)


@pytest.mark.parametrize("flag", [2, 7, 255])
def test_mask_load_rejects_flag_bytes_other_than_0_or_1(tmp_path, flag):
    path = tmp_path / "m"
    save_mask(path, make_random_mask(8, 16, 2.0, 4, seed=0))
    payload = bytearray(path.read_bytes())
    payload[0] = flag  # line 0 lies outside the ACS band
    path.write_bytes(bytes(payload))
    with pytest.raises(ContainerError) as info:
        load_mask(path)
    assert (f"{path} holds an invalid mask: line flag {flag}, expected 0 or 1"
            in str(info.value))


@pytest.mark.parametrize("flag", [2, 7, 0.5, -1, np.nan, np.inf],
                         ids=["2", "7", "half", "minus-1", "nan", "inf"])
def test_mask_rejects_line_flags_other_than_0_or_1(flag):
    lines = np.array([0, 1, 1, 0], dtype=float)
    lines[3] = flag  # outside the 2-line ACS band
    with pytest.raises(ConfigError, match=re.escape(f"line flag {lines[3]}, "
                                                    "expected 0 or 1")):
        SamplingMask(4, 4, lines, 2, 1.0)
    if float(flag).is_integer():
        with pytest.raises(ConfigError, match="0 or 1"):
            SamplingMask(4, 4, lines.astype(np.int64), 2, 1.0)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
def test_mask_accepts_0_and_1_flags_of_any_numeric_dtype(dtype):
    mask = SamplingMask(4, 4, np.array([0, 1, 1, 0], dtype=dtype), 2, 1.0)
    assert mask.line_selected.dtype == bool
    assert mask.line_selected.tolist() == [False, True, True, False]


@settings(max_examples=40, deadline=None)
@given(height=st.integers(1, 9),
       lines=st.lists(st.booleans(), min_size=1, max_size=40),
       acceleration=st.floats(1.0, 64.0),
       seed=st.none() | st.integers(0, 2**63 - 1),
       name=st.sampled_from(["m", "a.mask", "scan.v2.mask"]))
def test_mask_round_trip_property(height, lines, acceleration, seed, name):
    mask = SamplingMask(height, len(lines), np.array(lines), 0, acceleration,
                        "random", seed)
    image = np.ones((height, len(lines)), dtype=complex)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        twin = path.with_suffix(".gt")  # same stem, its own sidecar
        save_mask(path, mask)
        save_array(twin, image, kind="gt")
        back = load_mask(path)
        assert load_array(twin, expect_kind="gt")[0].shape == (1,) + image.shape
    np.testing.assert_array_equal(back.line_selected, mask.line_selected)
    assert (back.height, back.width, back.acs_width) == (height, len(lines), 0)
    assert (back.acceleration, back.kind, back.seed) == (acceleration, "random",
                                                         seed)


def test_mask_summary_line():
    mask = make_random_mask(8, 16, 4.0, 4, seed=0)
    assert mask_summary(mask) == (
        "random mask 8x16, R=4, acs=4, lines=4 (ratio 0.2500)"
    )
