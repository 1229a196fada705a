"""Image tiling and overlapping patch extraction/reassembly.

Patch origins advance by a fixed stride along each axis; when the last
full patch would overrun the border, one extra origin is clamped so the
patch ends exactly at the edge. Reassembly averages every patch covering
a pixel with uniform weights, which reproduces the source bit for bit
when the patches are untouched (the sums run in float64, and k equal
float32 values averaged in float64 give back the value exactly).

At 1080p with 256/56 patches the stack holds 496 patches (390 MB of
float32). Both directions are memory-bound copies, so they make no copy
the result does not need, and they run on one thread per CPU the
process may use (its affinity mask: narrow it with ``taskset``):

- extraction writes each patch once, into a stack allocated up front,
  and hands that stack to the returned :class:`Tensor` without a copy;
  the patches are dealt round-robin to the threads;
- reassembly cuts the output into bands of ``_BAND`` rows, dealt
  round-robin to the threads. A thread adds, in row-major origin order,
  the rows of every patch that overlap its band into a float64 band
  buffer, divides by each pixel's integer cover count and writes
  float32 straight into the output; no full-frame float64 canvas is
  made.

A band holds whole output rows, so each pixel is summed by one thread
from the same float64 values in the same row-major order as on one
thread, whatever the thread count or the patch values: the output keeps
every bit. numpy releases the GIL inside these copies and casting adds,
so the threads run them side by side.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _spread(work, count: int, alloc=lambda: None) -> None:
    """Run work(share, buffers) once per share of the items 0..count-1,
    dealt round-robin into one share per usable CPU (at most one per item).

    Each share's buffers come from alloc(), called here in the calling
    thread: arrays allocated in the workers came from glibc's per-thread
    arenas and raised the peak RSS. One share runs inline. Otherwise the
    calling thread runs the first share and a pool made for this call runs
    the rest; all of them finish before this returns, and the first
    failing share's exception is raised here as it was raised.
    """
    n = max(1, min(count, _usable_cpus()))
    shares = [(range(j, count, n), alloc()) for j in range(n)]
    if n == 1:
        work(*shares[0])
        return
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(work, *share) for share in shares[1:]]
        work(*shares[0])
    for f in futures:
        f.result()


# output rows per reassembly band: a 3-channel 1080p band buffer is 1.5 MB
_BAND = 32


def extract_patches(image: Tensor, patch: int = 256, stride: int = 56):
    """Slice the image into overlapping square patches.

    Returns (patches, grid): patches stacked on the batch axis in
    row-major origin order. The batch must be a single image.
    """
    if image.n != 1:
        raise ShapeError(f"patch extraction expects a single image; n={image.n}")
    grid = PatchGrid(image.h, image.w, image.c, patch, stride)
    stack = np.empty((grid.count, image.c, patch, patch), dtype=np.float32)
    src, origins = image.data[0], grid.origins

    def copy(share, _):
        for i in share:
            r, c = origins[i]
            stack[i] = src[:, r:r + patch, c:c + patch]

    _spread(copy, grid.count)
    return Tensor._adopt(stack), grid


def reassemble(patches: Tensor, grid: PatchGrid) -> Tensor:
    """Uniform-average the patches back onto the image canvas, one band
    of rows at a time (see the module docstring)."""
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
    h, w, ch = grid.image_h, grid.image_w, grid.channels
    rows, cols = grid.rows, grid.cols
    row_cover = _axis_cover(h, rows, k)
    col_cover = _axis_cover(w, cols, k)
    if row_cover.min() < 1.0 or col_cover.min() < 1.0:
        raise ShapeError("grid leaves pixels uncovered")
    src = patches.data.reshape(len(rows), len(cols), ch, k, k)
    out = np.empty((1, ch, h, w), dtype=np.float32)
    band_rows = min(_BAND, h)

    def add_bands(bands, buffers):
        acc, cover = buffers
        for b in bands:
            top, bottom = b * _BAND, min((b + 1) * _BAND, h)
            band = acc[:, :bottom - top]
            band.fill(0.0)
            for ri, r in enumerate(rows):
                if top - k < r < bottom:
                    y0, y1 = max(r, top), min(r + k, bottom)
                    for ci, c in enumerate(cols):
                        band[:, y0 - top:y1 - top, c:c + k] += src[ri, ci, :, y0 - r:y1 - r]
            counts = cover[:bottom - top]
            np.multiply(row_cover[top:bottom, None], col_cover, out=counts)
            np.divide(band, counts, out=out[0, :, top:bottom])  # exact integer counts

    _spread(add_bands, -(-h // _BAND),
            lambda: (np.empty((ch, band_rows, w)), np.empty((band_rows, w))))
    return Tensor._adopt(out)
