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
  the same order whatever the patches hold;
- the per-pixel patch count comes from a 2-D difference array (+1/-1 at
  the four corners of each patch, then a running sum along each axis),
  exact for any grid, including hand-built ones that are not a product
  of rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import Tensor

__all__ = ["PatchGrid", "tile_to_resolution", "extract_patches", "reassemble"]


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of one extraction: image extents, patch size, stride,
    and the row-major list of patch origins."""

    image_h: int
    image_w: int
    channels: int
    patch: int
    stride: int
    origins: tuple  # ((row, col), ...) row-major

    @property
    def count(self) -> int:
        return len(self.origins)

    @property
    def clamped(self) -> tuple:
        """Per origin, True where it was clamped to the border: off the stride."""
        return tuple(bool(r % self.stride or c % self.stride) for r, c in self.origins)


def tile_to_resolution(image: Tensor, target_h: int = 720,
                       target_w: int = 1280) -> Tensor:
    """Repeat the image modularly to cover the target, then crop.

    Output pixel (r, c) equals source pixel (r % h, c % w); a source
    already at the target passes through unchanged.
    """
    if target_h < 1 or target_w < 1:
        raise ShapeError("target extents must be positive")
    if image.h < 1 or image.w < 1:
        raise ShapeError(f"cannot tile an image of extent {image.h}x{image.w}")
    reps_h = -(-target_h // image.h)
    reps_w = -(-target_w // image.w)
    tiled = np.tile(image.data, (1, 1, reps_h, reps_w))
    return Tensor(tiled[:, :, :target_h, :target_w])


def _axis_origins(extent: int, patch: int, stride: int):
    if patch > extent:
        raise ShapeError(f"patch {patch} exceeds image extent {extent}")
    origins = list(range(0, extent - patch + 1, stride))
    if origins[-1] + patch < extent:
        origins.append(extent - patch)
    return origins


def extract_patches(image: Tensor, patch: int = 256, stride: int = 56):
    """Slice the image into overlapping square patches.

    Returns (patches, grid): patches stacked on the batch axis in
    row-major origin order. The batch must be a single image.
    """
    if image.n != 1:
        raise ShapeError(f"patch extraction expects a single image; n={image.n}")
    if not (isinstance(patch, Integral) and isinstance(stride, Integral)):
        raise ParameterError(
            f"patch and stride must be integers; got {patch!r} and {stride!r}"
        )
    if patch < 1 or stride < 1:
        raise ShapeError("patch and stride must be positive")
    rows = _axis_origins(image.h, patch, stride)
    cols = _axis_origins(image.w, patch, stride)
    origins = tuple((r, c) for r in rows for c in cols)
    stack = np.empty((len(origins), image.c, patch, patch), dtype=np.float32)
    for i, (r, c) in enumerate(origins):
        stack[i] = image.data[0, :, r:r + patch, c:c + patch]
    grid = PatchGrid(
        image_h=image.h, image_w=image.w, channels=image.c,
        patch=patch, stride=stride, origins=origins,
    )
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
    diff = np.zeros((h + 1, w + 1), dtype=np.float64)
    for r, c in grid.origins:
        if not (isinstance(r, Integral) and isinstance(c, Integral)):
            raise ShapeError(f"origin {(r, c)} is not a pair of integers")
        if not (0 <= r <= h - k and 0 <= c <= w - k):
            raise ShapeError(
                f"origin {(r, c)} puts a {k}x{k} patch outside the {h}x{w} image"
            )
        diff[r, c] += 1.0
        diff[r, c + k] -= 1.0
        diff[r + k, c] -= 1.0
        diff[r + k, c + k] += 1.0
    np.cumsum(diff, axis=0, out=diff)
    np.cumsum(diff, axis=1, out=diff)
    cover = diff[:h, :w]
    if cover.min() < 1.0:
        raise ShapeError("grid leaves pixels uncovered")
    acc = np.zeros((grid.channels, h, w), dtype=np.float64)
    for i, (r, c) in enumerate(grid.origins):
        acc[:, r:r + k, c:c + k] += patches.data[i]
    acc /= cover
    return Tensor._adopt(acc[None].astype(np.float32))
