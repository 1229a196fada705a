"""Image tiling and overlapping patch extraction/reassembly.

Patch origins advance by a fixed stride along each axis; when the last
full patch would overrun the border, one extra origin is clamped so the
patch ends exactly at the edge. Reassembly averages every patch covering
a pixel with uniform weights, which reproduces the source bit for bit
when the patches are untouched (the sums run in float64, and k equal
float32 values averaged in float64 give back the value exactly).

At 1080p with 256/56 patches the stack holds 496 patches (390 MB of
float32), so both directions avoid copies the result does not need:

- extraction writes each patch once, into a stack allocated up front,
  and hands that stack to the returned :class:`Tensor` without a copy;
- reassembly adds each patch in place into one float64 canvas, in
  row-major origin order, so every pixel sums the same float64 values in
  the same order whatever the patches hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParameterError, ShapeError, integral_bits
from .tensor import Tensor

__all__ = ["PatchGrid", "tile_to_resolution", "extract_patches", "reassemble"]


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of one extraction: image extents, channels, patch size
    and stride, from which the row-major patch origins follow."""

    image_h: int
    image_w: int
    channels: int
    patch: int
    stride: int

    def __post_init__(self):
        if not (isinstance(self.patch, Integral) and isinstance(self.stride, Integral)):
            raise ParameterError(
                f"patch and stride must be integers; got {self.patch!r} and {self.stride!r}"
            )
        if self.patch < 1 or self.stride < 1:
            raise ShapeError("patch and stride must be positive")
        for extent in (self.image_h, self.image_w):
            if self.patch > extent:
                raise ShapeError(f"patch {self.patch} exceeds image extent {extent}")

    @property
    def rows(self) -> tuple:
        return _axis_origins(self.image_h, self.patch, self.stride)

    @property
    def cols(self) -> tuple:
        return _axis_origins(self.image_w, self.patch, self.stride)

    @property
    def origins(self) -> tuple:
        """((row, col), ...) in row-major order."""
        return tuple((r, c) for r in self.rows for c in self.cols)

    @property
    def count(self) -> int:
        return len(self.rows) * len(self.cols)

    @property
    def clamped(self) -> tuple:
        """Per origin, True where it was clamped to the border: off the stride."""
        return tuple(bool(r % self.stride or c % self.stride) for r, c in self.origins)


def _axis_origins(extent: int, patch: int, stride: int) -> tuple:
    origins = list(range(0, extent - patch + 1, stride))
    if origins[-1] + patch < extent:
        origins.append(extent - patch)
    return tuple(origins)


def _axis_cover(extent: int, origins, patch: int):
    """Per pixel along one axis, how many patches cover it (float64)."""
    cover = np.zeros(extent)
    for o in origins:
        cover[o:o + patch] += 1.0
    return cover


def tile_to_resolution(image: Tensor, target_h: int = 720,
                       target_w: int = 1280) -> Tensor:
    """Repeat the image modularly to cover the target.

    Output pixel (r, c) equals source pixel (r % h, c % w); a source
    already at the target passes through unchanged.
    """
    target_h = integral_bits(target_h, "target extents")
    target_w = integral_bits(target_w, "target extents")
    if target_h < 1 or target_w < 1:
        raise ShapeError("target extents must be positive")
    if image.h < 1 or image.w < 1:
        raise ShapeError(f"cannot tile an image of extent {image.h}x{image.w}")
    rows = np.take(image.data, np.arange(target_h) % image.h, axis=2)
    return Tensor._adopt(np.take(rows, np.arange(target_w) % image.w, axis=3))


def extract_patches(image: Tensor, patch: int = 256, stride: int = 56):
    """Slice the image into overlapping square patches.

    Returns (patches, grid): patches stacked on the batch axis in
    row-major origin order. The batch must be a single image.
    """
    if image.n != 1:
        raise ShapeError(f"patch extraction expects a single image; n={image.n}")
    grid = PatchGrid(image.h, image.w, image.c, patch, stride)
    stack = np.empty((grid.count, image.c, patch, patch), dtype=np.float32)
    for i, (r, c) in enumerate(grid.origins):
        stack[i] = image.data[0, :, r:r + patch, c:c + patch]
    return Tensor._adopt(stack), grid


def reassemble(patches: Tensor, grid: PatchGrid) -> Tensor:
    """Uniform-average the patches back onto the image canvas."""
    k = grid.patch
    if patches.n != grid.count:
        raise ShapeError(
            f"{patches.n} patches for a grid of {grid.count} origins"
        )
    if patches.c != grid.channels or patches.h != k or patches.w != k:
        raise ShapeError(
            f"patches have dims {patches.dims[1:]}, grid expects "
            f"({grid.channels}, {k}, {k})"
        )
    h, w = grid.image_h, grid.image_w
    row_cover = _axis_cover(h, grid.rows, k)
    col_cover = _axis_cover(w, grid.cols, k)
    if row_cover.min() < 1.0 or col_cover.min() < 1.0:
        raise ShapeError("grid leaves pixels uncovered")
    acc = np.zeros((grid.channels, h, w), dtype=np.float64)
    for i, (r, c) in enumerate(grid.origins):
        acc[:, r:r + k, c:c + k] += patches.data[i]
    acc /= np.outer(row_cover, col_cover)  # exact integer counts per pixel
    return Tensor._adopt(acc[None].astype(np.float32))
