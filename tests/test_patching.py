import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    ParameterError,
    PatchGrid,
    ShapeError,
    Tensor,
    extract_patches,
    reassemble,
    tile_to_resolution,
)
from conftest import rand_tensor


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------


def test_tile_repeats_content_modularly(rng):
    img = rand_tensor(rng, (1, 3, 5, 7))
    out = tile_to_resolution(img, 12, 16)
    assert out.dims == (1, 3, 12, 16)
    for y in range(12):
        for x in range(16):
            assert np.array_equal(out.data[0, :, y, x],
                                  img.data[0, :, y % 5, x % 7])


def test_tile_can_crop_down(rng):
    img = rand_tensor(rng, (1, 1, 10, 10))
    out = tile_to_resolution(img, 4, 4)
    assert np.array_equal(out.data, img.data[:, :, :4, :4])


def test_tile_defaults_to_hd(rng):
    img = rand_tensor(rng, (1, 3, 100, 100))
    out = tile_to_resolution(img)
    assert out.dims == (1, 3, 720, 1280)


def test_tile_identity_when_already_at_target(rng):
    img = rand_tensor(rng, (1, 2, 9, 11))
    out = tile_to_resolution(img, 9, 11)
    assert np.array_equal(out.data, img.data)


# ---------------------------------------------------------------------------
# Patch grids
# ---------------------------------------------------------------------------


def test_hd_grid_patch_count():
    img = Tensor(np.zeros((1, 3, 720, 1280), dtype=np.float32))
    patches, grid = extract_patches(img, 256, 56)
    assert grid.count == 200
    assert patches.dims == (200, 3, 256, 256)
    rows = sorted({r for r, _ in grid.origins})
    cols = sorted({c for _, c in grid.origins})
    assert len(rows) == 10 and len(cols) == 20


def test_grid_covers_every_pixel_brute_force():
    h, w, k, s = 720, 1280, 256, 56
    img = Tensor(np.zeros((1, 1, h, w), dtype=np.float32))
    _, grid = extract_patches(img, k, s)
    covered = np.zeros((h, w), dtype=bool)
    for r, c in grid.origins:
        covered[r:r + k, c:c + k] = True
    assert covered.all()


def test_clamped_final_origin_lands_on_border():
    img = Tensor(np.zeros((1, 1, 300, 300), dtype=np.float32))
    _, grid = extract_patches(img, 256, 56)
    assert grid.origins[-1] == (300 - 256, 300 - 256)
    assert grid.clamped[-1]
    assert not grid.clamped[0]


def test_exact_fit_needs_no_clamp():
    img = Tensor(np.zeros((1, 1, 256, 312), dtype=np.float32))
    _, grid = extract_patches(img, 256, 56)
    assert grid.origins == ((0, 0), (0, 56))
    assert not any(grid.clamped)


def test_tile_output_is_fresh_frozen_c_contiguous(rng):
    img = rand_tensor(rng, (2, 3, 5, 7))
    out = tile_to_resolution(img, 11, 4)
    assert out.dims == (2, 3, 11, 4)
    assert out.data.dtype == np.float32 and out.data.flags.c_contiguous
    assert not out.data.flags.writeable
    assert not np.shares_memory(out.data, img.data)
    r, c = np.ix_(np.arange(11) % 5, np.arange(4) % 7)
    assert np.array_equal(out.data, img.data[:, :, r, c])


@pytest.mark.parametrize("target", [2.5, "3", float("nan"), None])
def test_tile_rejects_non_integral_targets(rng, target):
    img = rand_tensor(rng, (1, 1, 3, 3))
    with pytest.raises(ParameterError, match="integers"):
        tile_to_resolution(img, target, 4)
    with pytest.raises(ParameterError, match="integers"):
        tile_to_resolution(img, 4, target)


@pytest.mark.parametrize("dims", [(1, 3, 0, 0), (1, 3, 0, 4), (1, 3, 4, 0)])
def test_tile_rejects_zero_extent_image(dims):
    with pytest.raises(ShapeError, match="cannot tile"):
        tile_to_resolution(Tensor(np.zeros(dims, dtype=np.float32)), 8, 8)


def test_patch_larger_than_image_rejected(rng):
    img = rand_tensor(rng, (1, 1, 100, 100))
    with pytest.raises(ShapeError):
        extract_patches(img, 256, 56)


def test_patch_params_validated(rng):
    img = rand_tensor(rng, (1, 1, 300, 300))
    with pytest.raises(ShapeError):
        extract_patches(img, 0, 56)
    with pytest.raises(ShapeError):
        extract_patches(img, 256, 0)


def test_grid_is_derived_from_its_five_fields():
    grid = PatchGrid(image_h=8, image_w=10, channels=1, patch=4, stride=4)
    assert grid.rows == (0, 4) and grid.cols == (0, 4, 6)
    assert grid.origins == ((0, 0), (0, 4), (0, 6), (4, 0), (4, 4), (4, 6))
    assert grid.count == 6
    assert grid.clamped == (False, False, True, False, False, True)
    with pytest.raises(ParameterError, match="integers"):
        PatchGrid(8, 8, 1, 4.0, 4)
    with pytest.raises(ShapeError, match="exceeds"):
        PatchGrid(8, 3, 1, 4, 4)


def test_patch_contents_match_slices(rng):
    img = rand_tensor(rng, (1, 2, 300, 280))
    patches, grid = extract_patches(img, 256, 56)
    for i, (r, c) in enumerate(grid.origins):
        assert np.array_equal(patches.data[i],
                              img.data[0, :, r:r + 256, c:c + 256])


# ---------------------------------------------------------------------------
# Reassembly
# ---------------------------------------------------------------------------


def test_round_trip_bit_exact_hd(rng):
    img = rand_tensor(rng, (1, 3, 720, 1280), lo=0.0, hi=255.0)
    patches, grid = extract_patches(img, 256, 56)
    back = reassemble(patches, grid)
    assert np.array_equal(back.data, img.data)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=256, max_value=420),
       st.integers(min_value=256, max_value=420))
@settings(max_examples=25, deadline=None)
def test_round_trip_bit_exact_random_sizes(seed, h, w):
    r = np.random.default_rng(seed)
    img = Tensor(r.uniform(-4, 4, (1, 2, h, w)).astype(np.float32))
    patches, grid = extract_patches(img, 256, 56)
    back = reassemble(patches, grid)
    assert np.array_equal(back.data, img.data)


def test_reassemble_validates_patch_count(rng):
    img = rand_tensor(rng, (1, 1, 300, 300))
    patches, grid = extract_patches(img, 256, 56)
    short = Tensor(patches.data[:-1])
    with pytest.raises(ShapeError):
        reassemble(short, grid)


def test_reassemble_validates_patch_dims(rng):
    img = rand_tensor(rng, (1, 1, 300, 300))
    patches, grid = extract_patches(img, 256, 56)
    squeezed = Tensor(patches.data[:, :, :128, :])
    with pytest.raises(ShapeError):
        reassemble(squeezed, grid)


@pytest.mark.parametrize("patch,stride", [(2.5, 1), (4, 1.5), (4.0, 2), ("4", 2)])
def test_extract_rejects_non_integral_geometry(rng, patch, stride):
    img = rand_tensor(rng, (1, 1, 8, 8))
    with pytest.raises(ParameterError, match="integers"):
        extract_patches(img, patch, stride)


def test_extract_accepts_numpy_integer_geometry(rng):
    img = rand_tensor(rng, (1, 1, 8, 8))
    patches, grid = extract_patches(img, np.int64(4), np.int32(4))
    assert patches.dims == (4, 1, 4, 4)
    assert np.array_equal(reassemble(patches, grid).data, img.data)


def test_batched_input_rejected(rng):
    img = rand_tensor(rng, (2, 1, 300, 300))
    with pytest.raises(ShapeError):
        extract_patches(img, 256, 56)


def test_reassemble_rejects_uncovered_pixels():
    # stride 8 over patch 4 leaves pixels 4-7 and 12-15 of each axis bare
    img = Tensor(np.ones((1, 1, 20, 20), dtype=np.float32))
    patches, grid = extract_patches(img, 4, 8)
    with pytest.raises(ShapeError, match="uncovered"):
        reassemble(patches, grid)


def test_clamped_origin_covers_the_gap_stride_leaves():
    # extent 10, patch 6, stride 8: the clamped origin 4 covers 6..9
    img = rand_tensor(np.random.default_rng(3), (1, 2, 10, 10))
    patches, grid = extract_patches(img, 6, 8)
    assert grid.rows == grid.cols == (0, 4)
    assert np.array_equal(reassemble(patches, grid).data, img.data)
