"""4-D tensor container and its binary file format.

Every array that crosses a module boundary in this package travels as a
:class:`Tensor`: batch x channels x height x width, float32 storage. The
wrapper exists to pin down the two invariants the rest of the toolkit
relies on (rank 4, all elements finite) at construction time instead of
deep inside some kernel.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import (
    DomainError,
    MalformedHeaderError,
    ShapeError,
    TruncatedPayloadError,
)

__all__ = ["Tensor", "save_tensor", "load_tensor"]


def _check_finite(arr):
    """Raise DomainError unless every element of arr is finite."""
    if not np.isfinite(arr).all():
        raise DomainError("tensor contains non-finite elements")


class Tensor:
    """Immutable 4-D float32 array with dims (n, c, h, w).

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts. Must be rank 4 and finite.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float32, order="C")  # own copy, never alias
        self._seal(arr)
        _check_finite(arr)

    @classmethod
    def _adopt(cls, arr):
        """Wrap ``arr`` without copying or scanning it.

        ``arr`` must be a fresh C-contiguous float32 array that no one else
        holds and that is finite by construction: only its rank is
        checked, then it is made read-only and kept. The callers build
        their arrays from checked tensors (patch stacks are slices of one,
        reassembled frames average them, tiled frames repeat one) or from
        integers times a format step (the fixed-point GDN output).
        """
        t = cls.__new__(cls)
        t._seal(arr)
        return t

    def _seal(self, arr):
        """Check the rank, freeze ``arr`` and keep it."""
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (n, c, h, w); got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def c(self):
        return self.data.shape[1]

    @property
    def h(self):
        return self.data.shape[2]

    @property
    def w(self):
        return self.data.shape[3]

    @property
    def dims(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(dims={self.data.shape})"


_HEADER = struct.Struct("<4I")


def save_tensor(t: Tensor) -> bytes:
    """Serialize: 16-byte header of four little-endian uint32 extents,
    then the float32 payload in row-major order."""
    payload = np.ascontiguousarray(t.data, dtype="<f4")
    return _HEADER.pack(*t.dims) + payload.tobytes()


def load_tensor(buf: bytes) -> Tensor:
    if len(buf) < _HEADER.size:
        raise MalformedHeaderError(
            f"tensor header needs {_HEADER.size} bytes, got {len(buf)}"
        )
    dims = _HEADER.unpack_from(buf)
    expected = 4 * math.prod(dims)
    body = buf[_HEADER.size:]
    if len(body) < expected:
        raise TruncatedPayloadError(
            f"tensor payload for dims {dims} needs {expected} bytes, got {len(body)}"
        )
    if len(body) > expected:
        raise MalformedHeaderError(
            f"{len(body) - expected} trailing bytes after tensor payload"
        )
    try:
        data = np.frombuffer(body, dtype="<f4").reshape(dims)
    except ValueError as e:  # a zero extent beside extents numpy cannot index
        raise MalformedHeaderError(f"tensor dims {dims} are too large: {e}") from e
    return Tensor(data)
