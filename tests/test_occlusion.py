"""Hue histograms and identity matching."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layouts import LAYOUTS, in_layout
from mbtrack import occlusion
from mbtrack.intra import PixelTile
from mbtrack.occlusion import (
    HUE_BINS,
    HueHistogram,
    hue_histogram,
    match_identities,
)


def tile_of(color, h=8, w=8):
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[:] = color
    return PixelTile((0, 0, w, h), px)


def hist_of(color, mask=None):
    t = tile_of(color)
    if mask is None:
        mask = np.ones((8, 8), dtype=bool)
    return hue_histogram(t, mask)


def one_hot(bin_index, count=10):
    bins = np.zeros(HUE_BINS)
    bins[bin_index] = 1.0
    return HueHistogram(bins, count)


class TestHueHistogram:
    def test_pure_red_lands_in_bin_zero(self):
        h = hist_of((255, 0, 0))
        assert h.bins[0] == 1.0 and h.bins.sum() == 1.0
        assert h.valid_pixel_count == 64

    def test_pure_green_lands_in_bin_21(self):
        h = hist_of((0, 255, 0))
        assert h.bins[21] == 1.0

    def test_pure_blue_lands_in_bin_42(self):
        h = hist_of((0, 0, 255))
        assert h.bins[42] == 1.0

    def test_shades_of_one_hue_share_a_bin(self):
        assert hist_of((200, 30, 30)) == hist_of((150, 20, 20))

    def test_gray_pixels_are_ignored(self):
        px = np.full((8, 8, 3), 128, dtype=np.uint8)
        px[:4] = (200, 30, 30)
        h = hue_histogram(PixelTile((0, 0, 8, 8), px), np.ones((8, 8), bool))
        assert h.valid_pixel_count == 32
        assert h.bins[0] == 1.0

    def test_all_gray_gives_empty_histogram(self):
        h = hist_of((77, 77, 77))
        assert h.valid_pixel_count == 0
        assert not h.bins.any()

    def test_mask_selects_pixels(self):
        px = np.zeros((8, 8, 3), dtype=np.uint8)
        px[:, :4] = (255, 0, 0)
        px[:, 4:] = (0, 255, 0)
        mask = np.zeros((8, 8), bool)
        mask[:, :4] = True
        h = hue_histogram(PixelTile((0, 0, 8, 8), px), mask)
        assert h.bins[0] == 1.0 and h.bins[21] == 0.0

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            hue_histogram(tile_of((1, 2, 3)), np.ones((4, 4), bool))

    def test_distance_is_euclidean(self):
        a, b = one_hot(0), one_hot(21)
        assert a.distance(b) == pytest.approx(np.sqrt(2.0))
        assert a.distance(a) == 0.0


def reference_hue_histogram(tile, mask):
    """The implementation ``hue_histogram`` replaced: an (n, 3) float64
    gather, reductions over the channel axis, the sector as the argmax of
    the first channel equal to the max, and ``% 6.0`` in the red sector."""
    mask = np.asarray(mask, dtype=bool)
    pix = tile.pixels[mask].astype(np.float64)
    if pix.size == 0:
        return HueHistogram(np.zeros(HUE_BINS), 0)

    mx = pix.max(axis=1)
    mn = pix.min(axis=1)
    chroma = mx - mn
    colored = chroma > 0
    pix = pix[colored]
    if pix.size == 0:
        return HueHistogram(np.zeros(HUE_BINS), 0)
    mx = mx[colored]
    chroma = chroma[colored]

    r, g, b = pix[:, 0], pix[:, 1], pix[:, 2]
    sector = np.argmax(pix == mx[:, None], axis=1)
    hue6 = np.empty(len(pix))
    is_r = sector == 0
    is_g = sector == 1
    is_b = sector == 2
    hue6[is_r] = ((g[is_r] - b[is_r]) / chroma[is_r]) % 6.0
    hue6[is_g] = (b[is_g] - r[is_g]) / chroma[is_g] + 2.0
    hue6[is_b] = (r[is_b] - g[is_b]) / chroma[is_b] + 4.0
    hue_deg = hue6 * 60.0

    idx = np.floor(hue_deg / 360.0 * HUE_BINS).astype(int)
    np.clip(idx, 0, HUE_BINS - 1, out=idx)
    bins = np.bincount(idx, minlength=HUE_BINS).astype(np.float64)
    n = int(bins.sum())
    return HueHistogram(bins / n, n)


@st.composite
def hue_cases(draw):
    """(tile, mask) with random pixels. Channel values come from a small
    palette or the full range; the palette makes gray pixels and channel
    ties (r = g = max, g = b = max, r = b = max) common. Some tiles are all
    gray and some masks are empty. The pixels come in a drawn memory
    layout."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.sampled_from([(0, 255), (0, 1, 254, 255), (7, 128, 200),
                                    tuple(range(256))]))
    pixels = rng.choice(np.array(palette, dtype=np.uint8), (h, w, 3))
    kind = draw(st.sampled_from(["mixed", "ties", "gray"]))
    if kind == "ties":  # force two channels to share the max
        a, b = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
        top = pixels.max(axis=2)
        pixels[:, :, a] = top
        pixels[:, :, b] = top
    elif kind == "gray":
        pixels[:] = pixels[:, :, :1]
    mask = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    return PixelTile((0, 0, w, h), in_layout(pixels, draw(st.sampled_from(LAYOUTS)))), mask


class TestHueAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(hue_cases())
    def test_histogram_matches_reference(self, case):
        tile, mask = case
        expected = reference_hue_histogram(PixelTile(tile.rect, tile.pixels.copy()), mask)
        hist = hue_histogram(tile, mask)
        tile.pixels[:] = 255 - tile.pixels  # the histogram owns its pixels
        with mock.patch.object(occlusion, "bin_hues", wraps=occlusion.bin_hues) as binning:
            assert hist.bins is hist.bins
            assert hist == expected
        assert binning.call_count == 1

    def test_every_red_sector_ratio_matches_reference(self):
        # Red is the max: hue6 = (g - b) / chroma, in [-1, 1], where the
        # reference takes % 6.0. One tile per chroma holds every g - b.
        for chroma in range(1, 256):
            diff = np.arange(-chroma, chroma + 1)
            px = np.zeros((1, len(diff), 3), dtype=np.uint8)
            px[0, :, 0] = chroma
            px[0, :, 1] = np.maximum(diff, 0)
            px[0, :, 2] = np.maximum(-diff, 0)
            tile, mask = PixelTile((0, 0, len(diff), 1), px), np.ones((1, len(diff)), bool)
            assert hue_histogram(tile, mask) == reference_hue_histogram(tile, mask)

    @pytest.mark.parametrize("color, bin_index", [
        ((200, 200, 10), 10),   # r = g = max: hue 60
        ((10, 200, 200), 32),   # g = b = max: hue 180
        ((200, 10, 200), 53),   # r = b = max: hue 300
    ])
    def test_channel_ties_sit_on_the_sector_boundary(self, color, bin_index):
        assert hist_of(color).bins[bin_index] == 1.0


class TestIdentityMatching:
    def test_clean_swap_recovered(self):
        priors = {1: one_hot(0), 2: one_hot(21)}
        posteriors = {7: one_hot(21), 8: one_hot(0)}
        assignment, chosen = match_identities(priors, posteriors)
        assert assignment == {7: 2, 8: 1}
        assert all(d == 0.0 for d, _, _ in chosen)

    def test_greedy_takes_globally_closest_first(self):
        priors = {1: one_hot(0), 2: one_hot(3)}
        mixed = np.zeros(HUE_BINS)
        mixed[0], mixed[3] = 0.6, 0.4
        posteriors = {7: HueHistogram(mixed, 10), 8: one_hot(3)}
        assignment, _ = match_identities(priors, posteriors)
        assert assignment == {8: 2, 7: 1}

    def test_ties_break_on_lower_fragment_then_member_id(self):
        priors = {1: one_hot(5), 2: one_hot(5)}
        posteriors = {7: one_hot(5), 8: one_hot(5)}
        assignment, _ = match_identities(priors, posteriors)
        assert assignment == {7: 1, 8: 2}

    def test_leftovers_stay_unmatched(self):
        priors = {1: one_hot(0)}
        posteriors = {7: one_hot(0), 8: one_hot(21)}
        assignment, _ = match_identities(priors, posteriors)
        assert assignment == {7: 1}
        assert 8 not in assignment

    def test_empty_sides_are_fine(self):
        assert match_identities({}, {7: one_hot(0)}) == ({}, [])
        assert match_identities({1: one_hot(0)}, {}) == ({}, [])
