"""Hue histograms and the identity matching that recovers ids after an
occlusion.

While two or more confirmed objects overlap, the entity tracker
(``filtering.EntityTracker``) follows them as one occlusion group and
keeps each member's last 64-bin hue histogram as its prior. When the
group has split into fragments that re-confirm as objects, this module
matches the fragments' histograms, the posteriors, to the priors by
smallest Euclidean distance, so the original ids resume. A histogram
keeps its pixels until something reads it, so only the histograms a
match reads are ever binned.

Hue is the standard hexagonal-projection angle in [0, 360): gray pixels
(max channel == min channel) carry no hue and are excluded. Histograms
are normalized to sum to 1 over the counted pixels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .intra import PixelTile

HUE_BINS = 64


class HueHistogram:
    """A 64-bin hue histogram, normalized over its ``valid_pixel_count``
    coloured pixels.

    ``HueHistogram(bins, valid_pixel_count)`` holds given bins. One made
    by ``hue_histogram`` holds its pixels instead, and bins them the
    first time ``bins``, ``valid_pixel_count``, ``distance`` or ``==``
    reads it, then drops them: the pipeline takes a histogram of every
    refined real object at each I-frame, but only the resolution of an
    occlusion reads one.
    """

    __slots__ = ("_bins", "_count", "_pixels")

    def __init__(self, bins: np.ndarray, valid_pixel_count: int):
        if bins.shape != (HUE_BINS,):
            raise ValueError(f"expected {HUE_BINS} bins, got {bins.shape}")
        self._bins, self._count, self._pixels = bins, valid_pixel_count, None

    @classmethod
    def _of_pixels(cls, r: np.ndarray, g: np.ndarray, b: np.ndarray) -> "HueHistogram":
        hist = cls.__new__(cls)
        hist._pixels = (r, g, b)
        return hist

    def _binned(self) -> "HueHistogram":
        if self._pixels is not None:
            self._bins, self._count = bin_hues(*self._pixels)
            self._pixels = None
        return self

    @property
    def bins(self) -> np.ndarray:
        """(64,) float64, sums to 1 unless no pixel had hue."""
        return self._binned()._bins

    @property
    def valid_pixel_count(self) -> int:
        return self._binned()._count

    def distance(self, other: "HueHistogram") -> float:
        return float(np.linalg.norm(self.bins - other.bins))

    def __eq__(self, other):
        if not isinstance(other, HueHistogram):
            return NotImplemented
        return (
            self.valid_pixel_count == other.valid_pixel_count
            and np.array_equal(self.bins, other.bins)
        )


def hue_histogram(tile: "PixelTile", mask: np.ndarray) -> HueHistogram:
    """The hue histogram of the tile pixels selected by ``mask``.

    mask is a (h, w) boolean array in tile coordinates. The histogram
    owns copies of the selected pixels, one array per channel, never a
    view of the tile, and bins them when it is first read (``bin_hues``).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != tile.pixels.shape[:2]:
        raise ValueError("mask shape does not match tile")
    px = tile.pixels
    # One channel plane at a time: a 1-D gather per plane.
    return HueHistogram._of_pixels(*(px[:, :, c][mask] for c in range(3)))


def bin_hues(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(bins, valid_pixel_count) of the pixels whose uint8 channels are
    ``r``, ``g`` and ``b``. Gray pixels are skipped; if nothing remains
    the bins are all zeros."""
    # max/min as elementwise ufuncs instead of reductions over a 3-long axis.
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    colored = mx != mn
    if not colored.any():
        return np.zeros(HUE_BINS), 0
    r, g, b, mx = r[colored], g[colored], b[colored], mx[colored]
    chroma = (mx - mn[colored]).astype(np.float64)
    # First channel attaining the max decides the sector.
    is_r = r == mx
    is_g = ~is_r & (g == mx)
    r, g, b = (c.astype(np.int16) for c in (r, g, b))
    hue6 = np.where(is_r, g - b, np.where(is_g, b - r, r - g)) / chroma
    # Sector offsets 0, 2, 4. In the red sector hue6 is in [-1, 1], where
    # ``% 6.0`` (slow in numpy) is exactly ``+ 6.0`` on negatives.
    hue6 += np.where(is_r, np.where(hue6 < 0, 6.0, 0.0), np.where(is_g, 2.0, 4.0))
    hue_deg = hue6 * 60.0

    idx = np.floor(hue_deg / 360.0 * HUE_BINS).astype(int)
    np.clip(idx, 0, HUE_BINS - 1, out=idx)
    bins = np.bincount(idx, minlength=HUE_BINS).astype(np.float64)
    n = int(bins.sum())
    return bins / n, n


def greedy_pairs(scored):
    """One-to-one greedy pairing: from ``(distance, a, b, ...)`` tuples in
    ascending order, keep each whose ``a`` and ``b`` are both still free."""
    kept, used_a, used_b = [], set(), set()
    for t in scored:
        if t[1] not in used_a and t[2] not in used_b:
            kept.append(t)
            used_a.add(t[1])
            used_b.add(t[2])
    return kept


def match_identities(priors: dict[int, HueHistogram],
                     posteriors: dict[int, HueHistogram]
                     ) -> tuple[dict[int, int], list[tuple[float, int, int]]]:
    """Greedy one-to-one matching of fragments to remembered members.

    priors:     member object id -> pre-occlusion histogram
    posteriors: fragment id      -> post-split histogram

    ``greedy_pairs`` takes the pairs in ascending Euclidean distance; ties
    break on lower fragment id, then lower member id. Returns (fragment_id
    -> member_id, chosen (distance, fragment_id, member_id) triples).
    Fragments or members left over simply stay unmatched; the caller
    decides what those mean.
    """
    chosen = greedy_pairs(sorted(
        (post.distance(prior), frag_id, member_id)
        for frag_id, post in posteriors.items()
        for member_id, prior in priors.items()
    ))
    return {f: m for _, f, m in chosen}, chosen
