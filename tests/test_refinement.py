"""Pixel-domain refinement: blob geometry, subtraction, interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from layouts import LAYOUTS, in_layout
from mbtrack import refinement
from mbtrack.filtering import BlockGroup
from mbtrack.intra import PixelTile
from mbtrack.refinement import (
    BlobFeature,
    RefineConfig,
    background_subtract,
    decode_rect_for,
    interpolate_blobs,
    predict_blob,
)


class TestBlobGeometry:
    def test_corner_rect(self):
        assert BlobFeature(16.0, 8.0, 16.0, 32.0).corner_rect() == (0.0, 0.0, 32.0, 16.0)

    def test_from_grid_region_scales_cells_to_pixels(self):
        region = lambda *cells: BlockGroup(0, cells, has_nonzero_coeff=True).keys
        b = BlobFeature.from_grid_region(region((0, 0)))
        assert (b.cx, b.cy, b.h, b.w) == (8.0, 8.0, 16.0, 16.0)
        b = BlobFeature.from_grid_region(region((0, 0), (1, 0)))
        assert (b.cx, b.cy, b.h, b.w) == (16.0, 8.0, 16.0, 32.0)
        b = BlobFeature.from_grid_region(region((3, 2), (2, 3)))
        assert (b.cx, b.cy, b.h, b.w) == (48.0, 48.0, 32.0, 32.0)

    def test_from_empty_region_rejected(self):
        with pytest.raises(ValueError):
            BlobFeature.from_grid_region(np.empty(0, dtype=np.int64))

    def test_iou_of_half_overlapping_squares_is_one_third(self):
        a = BlobFeature(5.0, 5.0, 10.0, 10.0)    # corners (0, 0, 10, 10)
        b = BlobFeature(10.0, 5.0, 10.0, 10.0)   # corners (5, 0, 10, 10)
        assert a.iou(b) == pytest.approx(1 / 3)
        assert a.iou(a) == 1.0
        assert a.iou(BlobFeature(100.0, 100.0, 10.0, 10.0)) == 0.0

    def test_int_rect_clips_to_frame(self):
        b = BlobFeature(4.0, 4.0, 16.0, 16.0)
        assert b.int_rect(64, 64) == (0, 0, 12, 12)
        assert b.int_rect(64, 64, border=4) == (0, 0, 16, 16)


class TestPrediction:
    def test_center_from_last_size_from_window_maximum(self):
        track = [BlobFeature(10, 10, 4, 4), BlobFeature(14, 10, 6, 2)]
        pred = predict_blob(track)
        assert (pred.cx, pred.cy, pred.h, pred.w) == (14, 10, 6, 4)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            predict_blob([])

    def test_decode_rect_adds_one_block_border(self):
        pred = BlobFeature(32.0, 32.0, 16.0, 16.0)
        assert decode_rect_for(pred, 256, 256) == (20, 20, 24, 24)


def tile_scene(rect=(0, 0, 32, 32), paint=((8, 24), (8, 24)), value=200):
    background = np.full((48, 48, 3), 50, dtype=np.uint8)
    x, y, w, h = rect
    pixels = background[y : y + h, x : x + w].copy()
    (r0, r1), (c0, c1) = paint
    pixels[r0:r1, c0:c1] = value
    return PixelTile(rect, pixels), background


class TestBackgroundSubtract:
    def test_recovers_exact_rectangle(self):
        tile, bg = tile_scene()
        mask, blob = background_subtract(tile, bg, RefineConfig())
        assert mask.sum() == 16 * 16
        assert (blob.cx, blob.cy, blob.h, blob.w) == (16.0, 16.0, 16.0, 16.0)

    def test_blob_reported_in_frame_coordinates(self):
        tile, bg = tile_scene(rect=(16, 8, 32, 32))
        _, blob = background_subtract(tile, bg, RefineConfig())
        assert (blob.cx, blob.cy) == (16 + 16.0, 8 + 16.0)

    def test_object_touching_tile_edge_is_not_eroded(self):
        tile, bg = tile_scene(paint=((0, 16), (0, 16)))
        mask, blob = background_subtract(tile, bg, RefineConfig())
        assert mask.sum() == 16 * 16
        assert (blob.cx, blob.cy, blob.h, blob.w) == (8.0, 8.0, 16.0, 16.0)

    def test_speckle_noise_removed_by_opening(self):
        tile, bg = tile_scene(paint=((0, 0), (0, 0)))
        px = tile.pixels.copy()
        for r, c in [(2, 2), (10, 20), (25, 5), (30, 30)]:
            px[r, c] = 255
        mask, blob = background_subtract(PixelTile(tile.rect, px), bg, RefineConfig())
        assert blob is None and not mask.any()

    def test_thin_strip_on_the_tile_edge_is_opened_away(self):
        # Two rows thick against a 3x3 element: the border beyond the tile
        # counts as background, so the opening removes the strip.
        tile, bg = tile_scene(paint=((0, 2), (0, 32)))
        mask, blob = background_subtract(tile, bg, RefineConfig(min_component_area=0))
        assert blob is None and not mask.any()

    def test_small_component_dropped_by_area_floor(self):
        tile, bg = tile_scene(paint=((8, 11), (8, 11)))  # 3x3 survives opening
        _, blob = background_subtract(tile, bg, RefineConfig())
        assert blob is None
        _, blob = background_subtract(tile, bg, RefineConfig(min_component_area=9))
        assert blob is not None

    def test_tight_rect_covers_all_surviving_components(self):
        tile, bg = tile_scene()
        px = tile.pixels.copy()
        px[24:30, 24:30] = 220  # second 6x6 component, area 36
        _, blob = background_subtract(PixelTile(tile.rect, px), bg, RefineConfig())
        assert (blob.h, blob.w) == (22.0, 22.0)  # spans rows/cols 8..29

    def test_quiet_tile_gives_no_blob(self):
        tile, bg = tile_scene(value=50)
        mask, blob = background_subtract(tile, bg, RefineConfig())
        assert blob is None and not mask.any()

    def test_epsilon_controls_sensitivity(self):
        tile, bg = tile_scene(value=70)  # difference of 20
        _, blob = background_subtract(tile, bg, RefineConfig(epsilon=25))
        assert blob is None
        _, blob = background_subtract(tile, bg, RefineConfig(epsilon=15))
        assert blob is not None

    def test_difference_of_exactly_epsilon_is_background(self):
        tile, bg = tile_scene(value=75)  # difference of 25
        cfg = RefineConfig(epsilon=25, morph_radius=0, min_component_area=0)
        mask, blob = background_subtract(tile, bg, cfg)
        assert blob is None and not mask.any()

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            RefineConfig(epsilon=-1)


def reference_background_subtract(tile, background, config):
    """The implementation ``background_subtract`` replaced: int16 channel
    differences reduced over the channel axis, and scipy's binary opening
    and closing on a zero-padded mask."""
    x, y, w, h = tile.rect
    bg = np.asarray(background)
    crop = bg[y : y + h, x : x + w].astype(np.int16)
    diff = np.abs(tile.pixels.astype(np.int16) - crop).max(axis=2)
    mask = diff > config.epsilon

    if config.morph_radius > 0 and mask.any():
        r = config.morph_radius
        se = np.ones((2 * r + 1,) * 2, dtype=bool)
        padded = np.pad(mask, r, mode="constant")
        padded = ndimage.binary_opening(padded, structure=se)
        padded = ndimage.binary_closing(padded, structure=se)
        mask = padded[r:-r, r:-r]

    if config.min_component_area > 0 and mask.any():
        labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        if count:
            areas = np.bincount(labels.ravel())
            small = areas < config.min_component_area
            small[0] = False
            mask[small[labels]] = False

    if not mask.any():
        return mask, None

    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    r0, r1 = np.argmax(rows), len(rows) - 1 - np.argmax(rows[::-1])
    c0, c1 = np.argmax(cols), len(cols) - 1 - np.argmax(cols[::-1])
    bh = float(r1 - r0 + 1)
    bw = float(c1 - c0 + 1)
    return mask, BlobFeature(cx=x + c0 + bw / 2.0, cy=y + r0 + bh / 2.0, h=bh, w=bw)


def paint_cases(draw, h, w, spot):
    """(tile, background, config): an h x w tile cut from a random
    background, with up to four rectangles painted over it where ``spot``
    puts them, optional salt noise, and the tile and the background each
    in a drawn memory layout."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 8, 256]))  # few levels: many exact ties
    background = rng.integers(0, levels, (h + 8, w + 8, 3), dtype=np.uint8)
    x, y = (int(v) for v in rng.integers(0, 9, 2))
    pixels = background[y : y + h, x : x + w].copy()
    for _ in range(draw(st.integers(0, 4))):
        (r0, r1), (c0, c1) = spot(draw, rng)
        pixels[r0:r1, c0:c1] = rng.integers(0, 256, 3)
    noise = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    pixels[noise] = rng.integers(0, 256, (int(noise.sum()), 3))
    config = RefineConfig(epsilon=draw(st.integers(0, 300)),
                          morph_radius=draw(st.integers(0, 3)),
                          min_component_area=draw(st.integers(0, 40)))
    tile = PixelTile((x, y, w, h), in_layout(pixels, draw(st.sampled_from(LAYOUTS))))
    return tile, in_layout(background, draw(st.sampled_from(LAYOUTS))), config


@st.composite
def subtraction_cases(draw):
    """``paint_cases`` on a tile 1-40 px a side, with rectangles anywhere
    (some touching the tile edge)."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))

    def anywhere(draw, rng):
        return np.sort(rng.integers(0, h + 1, 2)), np.sort(rng.integers(0, w + 1, 2))
    return paint_cases(draw, h, w, anywhere)


@st.composite
def small_object_cases(draw):
    """``paint_cases`` on a tile 40-128 px a side, with rectangles 1-16 px
    a side, small against the tile: each away from every edge or against
    one drawn edge, so the foreground box is a small part of the tile or
    touches its edge."""
    h, w = draw(st.integers(40, 128)), draw(st.integers(40, 128))

    def small(draw, rng):
        rh, rw = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        r0 = draw(st.integers(4, h - rh - 4))
        c0 = draw(st.integers(4, w - rw - 4))
        edge = draw(st.sampled_from(["none", "top", "bottom", "left", "right"]))
        r0 = {"top": 0, "bottom": h - rh}.get(edge, r0)
        c0 = {"left": 0, "right": w - rw}.get(edge, c0)
        return (r0, r0 + rh), (c0, c0 + rw)
    return paint_cases(draw, h, w, small)


def assert_matches_reference(case):
    tile, background, config = case
    mask, blob = background_subtract(tile, background, config)
    want_mask, want_blob = reference_background_subtract(tile, background, config)
    assert mask.dtype == bool and mask.shape == want_mask.shape
    assert np.array_equal(mask, want_mask)
    assert blob == want_blob


class TestSubtractionAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(subtraction_cases())
    def test_mask_and_blob_match_scipy_reference(self, case):
        assert_matches_reference(case)

    @settings(max_examples=200, deadline=None)
    @given(small_object_cases())
    def test_small_objects_in_large_tiles_match_scipy_reference(self, case):
        # Cleaning runs on the raw mask's bounding box only.
        assert_matches_reference(case)


def reference_square_filter(mask, r, erode):
    """The ``_square_filter`` it replaced: the second pass runs on the
    transpose, so each of its copies is a real transpose."""
    op = np.logical_and if erode else np.logical_or
    for _ in range(2):
        out = mask.copy()
        for k in range(1, r + 1):
            op(out[k:], mask[:-k], out=out[k:])
            op(out[:-k], mask[k:], out=out[:-k])
        if erode:
            out[:r] = False
            out[-r:] = False
        mask = out.T
    return mask


class TestSquareFilterAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from([0.1, 0.5, 0.9]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_transposing_reference(self, h, w, r, density, erode, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        got = refinement._square_filter(mask, r, erode)
        assert got.shape == mask.shape and got.dtype == bool
        assert np.array_equal(got, reference_square_filter(mask, r, erode))


class TestInterpolation:
    def test_endpoints_are_exact_identities(self):
        now = BlobFeature(100.0, 60.0, 44.0, 22.0)
        anchor = BlobFeature(80.0, 60.0, 40.0, 20.0)
        assert interpolate_blobs(now, anchor, 8, 0) == now
        assert interpolate_blobs(now, anchor, 8, 8) == anchor

    def test_midpoint_is_exact(self):
        now = BlobFeature(100.0, 60.0, 44.0, 22.0)
        anchor = BlobFeature(80.0, 60.0, 40.0, 20.0)
        mid = interpolate_blobs(now, anchor, 8, 4)
        assert (mid.cx, mid.cy, mid.h, mid.w) == (90.0, 60.0, 42.0, 21.0)

    def test_out_of_span_rejected(self):
        now = BlobFeature(0, 0, 1, 1)
        with pytest.raises(ValueError):
            interpolate_blobs(now, now, 8, 9)
        with pytest.raises(ValueError):
            interpolate_blobs(now, now, 0, 0)
