"""Differential tests: copy-free patch extraction and in-place
reassembly against the kernels they replaced.

The oracles below are the package's earlier implementation, kept on raw
arrays: extraction by ``np.stack`` of the slices, reassembly by a
per-patch float64 ``astype`` add plus a per-patch ``cover`` map. Both
sides add the same float64 values in the same row-major order and divide
by the same integer counts, so every result must be bitwise equal, also
for patches changed after extraction. That holds whatever number of
threads the package deals its patches and row bands to, which the tests
set by replacing its CPU count.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lic_hw_kit import ShapeError, Tensor, extract_patches, patching, reassemble


def stack_origins(extent, patch, stride):
    origins = list(range(0, extent - patch + 1, stride))
    clamped = [False] * len(origins)
    if origins[-1] + patch < extent:
        origins.append(extent - patch)
        clamped.append(True)
    return origins, clamped


def stack_extract(x, patch, stride):
    """(1, C, H, W) float32 -> (patches, origins, clamped)."""
    rows, rflags = stack_origins(x.shape[2], patch, stride)
    cols, cflags = stack_origins(x.shape[3], patch, stride)
    origins, clamped, slices = [], [], []
    for r, rf in zip(rows, rflags):
        for c, cf in zip(cols, cflags):
            origins.append((r, c))
            clamped.append(rf or cf)
            slices.append(x[0, :, r:r + patch, c:c + patch])
    return np.stack(slices, axis=0), tuple(origins), tuple(clamped)


def loop_reassemble(patches, origins, h, w):
    _, ch, k, _ = patches.shape
    acc = np.zeros((ch, h, w), dtype=np.float64)
    cover = np.zeros((h, w), dtype=np.float64)
    for i, (r, c) in enumerate(origins):
        acc[:, r:r + k, c:c + k] += patches[i].astype(np.float64)
        cover[r:r + k, c:c + k] += 1.0
    assert cover.min() >= 1.0
    out = acc / cover[None, :, :]
    return out[None].astype(np.float32)


def float32_reassemble(patches, origins, h, w):
    """Accumulates in float32: a fault the bitwise check must catch."""
    _, ch, k, _ = patches.shape
    acc = np.zeros((ch, h, w), dtype=np.float32)
    cover = np.zeros((h, w), dtype=np.float32)
    for i, (r, c) in enumerate(origins):
        acc[:, r:r + k, c:c + k] += patches[i]
        cover[r:r + k, c:c + k] += 1.0
    return (acc / cover)[None]


def band_first_reassemble(patches, origins, h, w):
    """Sums each row band of patches first, then the bands: float64
    throughout but a different order of adds, which the bitwise check
    must also catch."""
    _, ch, k, _ = patches.shape
    acc = np.zeros((ch, h, w), dtype=np.float64)
    cover = np.zeros((h, w), dtype=np.float64)
    for r in sorted({r for r, _ in origins}):
        band = np.zeros((ch, k, w), dtype=np.float64)
        for i, (ri, c) in enumerate(origins):
            if ri == r:
                band[:, :, c:c + k] += patches[i].astype(np.float64)
                cover[r:r + k, c:c + k] += 1.0
        acc[:, r:r + k, :] += band
    return (acc / cover[None])[None].astype(np.float32)


def perturb(patches, seed):
    """Rescale each patch by its own power of ten and add noise, so the
    order of the float64 adds shows in the result."""
    r = np.random.default_rng(seed)
    scale = 10.0 ** r.uniform(-3.0, 3.0, (len(patches), 1, 1, 1))
    noise = r.normal(0.0, 1.0, patches.shape)
    return (patches * scale + noise).astype(np.float32)


def order_sensitive(patches, seed):
    """Even patches become a constant +-2**70, odd ones noise scaled by
    1e-20: a tiny term survives only where the huge ones have cancelled
    before it is added, so the order of the adds shows in the result."""
    r = np.random.default_rng(seed)
    even = (np.arange(len(patches)) % 2 == 0)[:, None, None, None]
    huge = r.choice([-2.0**70, 2.0**70], (len(patches), 1, 1, 1))
    tiny = r.normal(0.0, 1.0, patches.shape) * 1e-20
    return np.where(even, huge, tiny).astype(np.float32)


def frame(seed, ch, h, w):
    r = np.random.default_rng(seed)
    return r.uniform(-4.0, 4.0, (1, ch, h, w)).astype(np.float32)


def check_against_oracle(x, patch, stride, seed):
    ref_patches, ref_origins, ref_clamped = stack_extract(x, patch, stride)
    patches, grid = extract_patches(Tensor(x), patch, stride)
    assert np.array_equal(patches.data, ref_patches)
    assert (grid.image_h, grid.image_w, grid.channels, grid.patch, grid.stride) \
        == (x.shape[2], x.shape[3], x.shape[1], patch, stride)
    assert grid.origins == ref_origins
    assert grid.count == len(ref_origins)
    assert grid.clamped == ref_clamped
    assert np.array_equal(reassemble(patches, grid).data, x)
    moved = perturb(ref_patches, seed)
    back = reassemble(Tensor(moved), grid)
    assert np.array_equal(back.data, loop_reassemble(moved, ref_origins, *x.shape[2:]))
    return grid


def loop_cover(origins, h, w, patch):
    cover = np.zeros((h, w), dtype=np.int64)
    for r, c in origins:
        cover[r:r + patch, c:c + patch] += 1
    return cover


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ch=st.sampled_from([1, 2, 3]),
    patch=st.integers(min_value=1, max_value=12),
    extra_h=st.integers(min_value=0, max_value=25),
    extra_w=st.integers(min_value=0, max_value=25),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_matches_stack_and_loop_oracles(seed, ch, patch, extra_h, extra_w, data):
    # strides past the patch either leave a gap, which must raise, or are
    # closed by the clamped final origin, which must reassemble bit-exact
    stride = data.draw(st.integers(min_value=1, max_value=2 * patch))
    x = frame(seed, ch, patch + extra_h, patch + extra_w)
    _, ref_origins, _ = stack_extract(x, patch, stride)
    if loop_cover(ref_origins, *x.shape[2:], patch).min() == 0:
        patches, grid = extract_patches(Tensor(x), patch, stride)
        with pytest.raises(ShapeError, match="uncovered"):
            reassemble(patches, grid)
    else:
        check_against_oracle(x, patch, stride, seed)


@pytest.mark.parametrize("ch,h,w,patch,stride,clamps", [
    (3, 20, 28, 8, 4, False),   # (20 - 8) and (28 - 8) are multiples of 4
    (2, 21, 30, 8, 4, True),    # both axes need a clamped final origin
    (1, 16, 27, 8, 4, True),    # only the columns clamp
    (3, 300, 280, 256, 56, True),
])
def test_matches_oracles_with_and_without_clamping(ch, h, w, patch, stride, clamps):
    grid = check_against_oracle(frame(7, ch, h, w), patch, stride, seed=11)
    assert any(grid.clamped) == clamps


def test_float32_and_band_first_accumulation_differ_from_oracle():
    # 6x6 image, 4x4 patches at stride 2: the centre 2x2 pixels sum all
    # four patches a, b, c, d in that order. Channel 0 needs float64
    # (2**30 + 1 is not a float32); channel 1 needs the row-major order
    # (in float64 ((a + b) + c) + d keeps d, but (a + b) + (c + d) loses
    # both ones to rounding at 2**60).
    values = np.array([[2.0**30, 1.0, -2.0**30, 0.0],
                       [2.0**60, 1.0, -2.0**60, 1.0]], dtype=np.float32)
    moved = np.ones((4, 2, 4, 4), dtype=np.float32) * values.T[:, :, None, None]
    grid = extract_patches(Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32)), 4, 2)[1]
    ref = loop_reassemble(moved, grid.origins, 6, 6)
    assert ref[0, 0, 2, 2] == ref[0, 1, 2, 2] == 0.25
    assert np.array_equal(reassemble(Tensor(moved), grid).data, ref)
    assert float32_reassemble(moved, grid.origins, 6, 6)[0, 0, 2, 2] == 0.0
    assert band_first_reassemble(moved, grid.origins, 6, 6)[0, 1, 2, 2] == 0.0


def test_outputs_are_fresh_frozen_float32():
    img = Tensor(frame(29, 3, 40, 52))
    patches, grid = extract_patches(img, 12, 4)
    back = reassemble(patches, grid)
    for t, sources in ((patches, [img]), (back, [img, patches])):
        assert t.data.dtype == np.float32
        assert t.data.flags.c_contiguous
        assert not t.data.flags.writeable
        for s in sources:
            assert not np.shares_memory(t.data, s.data)


BAND = patching._BAND


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("h", [BAND - 12, BAND, 2 * BAND, 2 * BAND + 13])
def test_any_thread_count_and_band_split_keeps_every_bit(monkeypatch, cpus, h):
    """Heights below, equal to, a multiple of and not a multiple of the
    band; 1, 2, 3 and 8 threads, more than there are bands in some."""
    monkeypatch.setattr(patching, "_usable_cpus", lambda: cpus)
    x = frame(h, 2, h, 45)
    ref_patches, ref_origins, _ = stack_extract(x, 12, 5)
    patches, grid = extract_patches(Tensor(x), 12, 5)
    assert patches.data.tobytes() == ref_patches.tobytes()
    assert reassemble(patches, grid).data.tobytes() == x.tobytes()
    moved = perturb(ref_patches, h)
    want = loop_reassemble(moved, ref_origins, h, 45)
    assert reassemble(Tensor(moved), grid).data.tobytes() == want.tobytes()
    moved = order_sensitive(ref_patches, h)
    want = loop_reassemble(moved, ref_origins, h, 45)
    reverse = loop_reassemble(moved[::-1].copy(), ref_origins[::-1], h, 45)
    assert not np.array_equal(reverse, want)
    assert reassemble(Tensor(moved), grid).data.tobytes() == want.tobytes()


def test_more_threads_than_cores_under_fast_switching(monkeypatch):
    """Eight threads whatever the core count, switching every microsecond:
    each patch and each band has one writer, so a share run twice, run
    half or skipped would break the byte equality."""
    monkeypatch.setattr(patching, "_usable_cpus", lambda: 8)
    x = frame(41, 3, 5 * BAND + 3, 70)
    ref, origins, _ = stack_extract(x, 16, 6)
    moved = order_sensitive(ref, 41)
    want = loop_reassemble(moved, origins, *x.shape[2:])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            patches, grid = extract_patches(Tensor(x), 16, 6)
            assert patches.data.tobytes() == ref.tobytes()
            assert reassemble(Tensor(moved), grid).data.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


class CountingPool(patching.ThreadPoolExecutor):
    made = []

    def __init__(self, workers):
        CountingPool.made.append(workers)
        super().__init__(workers)


# pool sizes made by one extraction (patches 24/12 of an h x 24 frame:
# 2 at h = BAND, 7 at 3 * BAND) and then one reassembly (one or 3 bands)
@pytest.mark.parametrize("cpus,h,pools", [
    (1, 3 * BAND, []),          # one CPU: both inline
    (2, BAND, [1]),             # one band: the reassembly runs inline
    (2, 3 * BAND, [1, 1]),      # the caller plus one pool thread, per call
    (8, 3 * BAND, [6, 2]),      # one share per patch or band at most
])
def test_threads_start_only_for_more_than_one_share(monkeypatch, cpus, h, pools):
    """The worker count is the CPU count, capped by the items; one
    share runs in the calling thread, so no pool is made for it."""
    monkeypatch.setattr(patching, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(patching, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "made", [])
    patches, grid = extract_patches(Tensor(frame(3, 1, h, 24)), 24, 12)
    with pytest.raises(ShapeError):  # checked before any thread starts
        reassemble(Tensor(patches.data[1:]), grid)
    reassemble(patches, grid)
    assert CountingPool.made == pools


def test_a_workers_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(patching, "_usable_cpus", lambda: 3)
    err = RuntimeError("share 2 failed")
    done, failed_in = [], []

    def work(share, _):
        if share[0] == 2:
            failed_in.append(threading.get_ident())
            raise err
        done.append(list(share))

    with pytest.raises(RuntimeError) as info:
        patching._spread(work, 7)
    assert info.value is err
    assert failed_in and failed_in[0] != threading.get_ident()  # in a pool thread
    assert sorted(done) == [[0, 3, 6], [1, 4]]  # the other shares finished
