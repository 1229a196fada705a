"""Bjontegaard rate and quality deltas between two RD curves.

Both metrics fit a cubic in log10(rate): through the points exactly when
a curve has four, least squares when it has more. The fitted polynomials
are integrated analytically over the interval where the two curves
overlap, and the average gap converts to an average PSNR difference
(BD-PSNR, in dB) or an average rate ratio (BD-rate, in percent, via
10**gap - 1).

Sign convention: bd_metrics(a, b) describes b relative to a, so a
positive bd_psnr_db means b sits above a and a positive bd_rate_percent
means b spends more bits at equal quality.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import CurveError, NoOverlapError

__all__ = ["RdCurve", "BdResult", "bd_metrics", "read_rd_csv"]


@dataclass(frozen=True)
class RdCurve:
    """Operating points (rate, psnr) sorted by strictly increasing rate."""

    points: tuple

    def __init__(self, points):
        pts = tuple((float(r), float(p)) for r, p in points)
        if len(pts) < 4:
            raise CurveError(f"a curve needs at least 4 points; got {len(pts)}")
        rates = [r for r, _ in pts]
        if any(not np.isfinite(r) or not np.isfinite(p) for r, p in pts):
            raise CurveError("curve contains non-finite values")
        if any(r <= 0 for r in rates):
            raise CurveError("rates must be positive (log-rate fitting)")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise CurveError("rates must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def rates(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    @property
    def psnrs(self) -> np.ndarray:
        return np.array([p for _, p in self.points])


@dataclass(frozen=True)
class BdResult:
    bd_rate_percent: float
    bd_psnr_db: float
    log_rate_overlap: tuple
    psnr_overlap: tuple


def _avg_fit_gap(x1, y1, x2, y2) -> tuple:
    """Mean (fit2 - fit1) over the overlap of the two x ranges."""
    lo = max(x1.min(), x2.min())
    hi = min(x1.max(), x2.max())
    if not hi > lo:
        raise NoOverlapError(
            f"curves share no interval: [{x1.min():.4f}, {x1.max():.4f}] vs "
            f"[{x2.min():.4f}, {x2.max():.4f}]"
        )
    p1 = np.polyfit(x1, y1, 3)
    p2 = np.polyfit(x2, y2, 3)
    int1 = np.polyint(p1)
    int2 = np.polyint(p2)
    area = (np.polyval(int2, hi) - np.polyval(int2, lo)) \
        - (np.polyval(int1, hi) - np.polyval(int1, lo))
    return area / (hi - lo), (float(lo), float(hi))


def bd_metrics(a: RdCurve, b: RdCurve) -> BdResult:
    """Both Bjontegaard deltas of b against a."""
    la, lb = np.log10(a.rates), np.log10(b.rates)
    psnr_gap, rate_overlap = _avg_fit_gap(la, a.psnrs, lb, b.psnrs)
    log_rate_gap, psnr_overlap = _avg_fit_gap(a.psnrs, la, b.psnrs, lb)
    return BdResult(
        bd_rate_percent=float((10.0 ** log_rate_gap - 1.0) * 100.0),
        bd_psnr_db=float(psnr_gap),
        log_rate_overlap=rate_overlap,
        psnr_overlap=psnr_overlap,
    )


def read_rd_csv(text) -> RdCurve:
    """Parse a curve from CSV with a bpp,psnr_db header row, given as
    text or as UTF-8 bytes."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or \
                {"bpp", "psnr_db"} - set(reader.fieldnames):
            raise CurveError("curve csv needs 'bpp' and 'psnr_db' columns")
        pts = [(float(row["bpp"]), float(row["psnr_db"])) for row in reader]
    except (TypeError, ValueError, csv.Error) as e:
        raise CurveError(f"curve csv cannot be read: {e}") from e
    return RdCurve(pts)
