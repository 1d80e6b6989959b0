"""Lossless intra block codec: prediction rules, round-trips, partial decode."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbtrack import intra
from mbtrack.intra import (
    BLOCK,
    MODE_CONST,
    MODE_NEIGHBOR_DC,
    DecodeStats,
    IntraFormatError,
    IntraPayload,
    PixelTile,
    block_region,
    decode_full,
    decode_region_partial,
    decode_regions_partial,
    encode_iframe,
)


def uniform_image(h, w, value):
    return np.full((h, w, 3), value, dtype=np.uint8)


def positional_modes(nby, nbx):
    """The one legal mode map: mode 0 at each plane's block (0, 0), mode 1
    everywhere else."""
    modes = np.full((3, nby, nbx), MODE_NEIGHBOR_DC, dtype=np.uint8)
    modes[:, 0, 0] = MODE_CONST
    return modes


class TestPredictionRules:
    def test_first_block_uses_constant_128(self):
        pay = encode_iframe(uniform_image(8, 8, 10))
        # no causal neighbors at the top-left block: constant predictor
        assert pay.modes[0, 0, 0] == 0
        assert np.all(pay.residuals[:, 0, 0] == 10 - 128)

    def test_neighbor_blocks_use_dc_mean(self):
        pay = encode_iframe(uniform_image(8, 8, 10))
        for plane in range(3):
            for by, bx in [(0, 1), (1, 0), (1, 1)]:
                assert pay.modes[plane, by, bx] == 1
                assert np.all(pay.residuals[plane, by, bx] == 0)

    def test_dc_mean_rounds_half_up(self):
        img = uniform_image(4, 8, 10)
        img[2:4, 3] = 11     # right edge of block 0 becomes [10, 10, 11, 11]
        img[:, 4:] = 20      # block 1 content
        pay = encode_iframe(img)
        # left neighbors sum 42 over 4 pixels: prediction (42 + 2) // 4 = 11
        assert pay.modes[0, 0, 1] == 1
        assert np.all(pay.residuals[0, 0, 1] == 20 - 11)
        assert np.array_equal(decode_full(pay), img)

    def test_decode_clamps_and_predicts_from_clamped_pixels(self):
        modes = np.zeros((3, 1, 2), dtype=np.uint8)
        modes[:, 0, 1] = 1
        residuals = np.zeros((3, 1, 2, 4, 4), dtype=np.int16)
        residuals[:, 0, 0] = 200   # 128 + 200 clamps to 255
        residuals[:, 0, 1] = -5    # neighbors are the clamped 255s
        img = decode_full(IntraPayload(modes, residuals, 8, 4))
        assert np.all(img[:, :4] == 255)
        assert np.all(img[:, 4:] == 250)

    def test_decode_clamps_low(self):
        modes = np.zeros((3, 1, 1), dtype=np.uint8)
        residuals = np.full((3, 1, 1, 4, 4), -200, dtype=np.int16)
        img = decode_full(IntraPayload(modes, residuals, 4, 4))
        assert np.all(img == 0)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_images_code_losslessly(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        assert np.array_equal(decode_full(encode_iframe(img)), img)

    def test_payload_bytes_round_trip(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(16, 32, 3), dtype=np.uint8)
        pay = encode_iframe(img)
        data = pay.to_bytes()
        assert len(data) == IntraPayload.byte_size(32, 16)
        parsed = IntraPayload.from_bytes(data, 32, 16)
        assert parsed == pay
        # encoded and parsed payloads serialize as the buffer they view
        assert np.shares_memory(pay.wire(), pay.residuals)
        assert np.shares_memory(parsed.wire(), parsed.modes)
        assert parsed.wire().tobytes() == data
        rebuilt = IntraPayload(pay.modes.copy(), pay.residuals.copy(), 32, 16)
        assert rebuilt.to_bytes() == data
        # the parsed arrays are unaligned views of the packed blocks
        assert np.array_equal(decode_full(parsed), img)
        tile, _ = decode_region_partial(parsed, (5, 3, 20, 9), img)
        assert np.array_equal(tile.pixels, img[3:12, 5:25])


class TestPayloadValidation:
    def test_wrong_byte_length_rejected(self):
        with pytest.raises(IntraFormatError):
            IntraPayload.from_bytes(b"\x00" * 10, 32, 16)

    def test_unknown_mode_rejected(self):
        modes = np.full((3, 1, 1), 2, dtype=np.uint8)
        residuals = np.zeros((3, 1, 1, 4, 4), dtype=np.int16)
        with pytest.raises(IntraFormatError):
            IntraPayload(modes, residuals, 4, 4)

    def test_neighbor_mode_impossible_at_origin(self):
        modes = np.ones((3, 1, 1), dtype=np.uint8)
        residuals = np.zeros((3, 1, 1, 4, 4), dtype=np.int16)
        with pytest.raises(IntraFormatError):
            IntraPayload(modes, residuals, 4, 4)

    def test_constant_mode_rejected_off_the_origin(self):
        modes = positional_modes(2, 3)
        modes[1, 1, 2] = MODE_CONST
        residuals = np.zeros((3, 2, 3, 4, 4), dtype=np.int16)
        with pytest.raises(IntraFormatError, match="mode 0 is legal only at block"):
            IntraPayload(modes, residuals, 12, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_every_mode_map_but_the_positional_one_is_rejected(self, nby, nbx, data):
        want = positional_modes(nby, nbx)
        modes = want.copy()
        # A few blocks, often the origin, take any mode byte, or none do.
        for _ in range(data.draw(st.integers(0, 3))):
            p, y, x = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, nby - 1)),
                       data.draw(st.integers(0, nbx - 1)))
            if data.draw(st.booleans()):
                y = x = 0
            modes[p, y, x] = data.draw(st.sampled_from([0, 1, 2, 255]))
        residuals = np.zeros((3, nby, nbx, BLOCK, BLOCK), dtype=np.int16)
        width, height = nbx * BLOCK, nby * BLOCK
        if np.array_equal(modes, want):
            raw = IntraPayload(modes, residuals, width, height).to_bytes()
            assert IntraPayload.from_bytes(raw, width, height).to_bytes() == raw
            return
        with pytest.raises(IntraFormatError):
            IntraPayload(modes, residuals, width, height)
        wire = IntraPayload(want, residuals, width, height).wire().copy()
        wire[::33] = modes.reshape(-1)  # the mode byte of every block
        with pytest.raises(IntraFormatError):
            IntraPayload.from_bytes(wire.tobytes(), width, height)

    def test_tile_shape_must_match_rect(self):
        with pytest.raises(ValueError):
            PixelTile((0, 0, 8, 8), np.zeros((4, 8, 3), dtype=np.uint8))


class TestBlockGeometry:
    @pytest.mark.parametrize("rect,expected", [
        ((0, 0, 1, 1), (0, 0, 0, 0)),
        ((3, 3, 2, 2), (0, 1, 0, 1)),
        ((4, 4, 4, 4), (1, 1, 1, 1)),
        ((0, 0, 32, 16), (0, 7, 0, 3)),
    ])
    def test_inclusive_block_ranges(self, rect, expected):
        bx0, by0, nbx, nby = block_region(rect)
        assert (bx0, bx0 + nbx - 1, by0, by0 + nby - 1) == expected

    def test_stats_are_pure_geometry(self):
        assert DecodeStats(4, 64).ratio == pytest.approx(0.0625)


def composite_scene(seed=0):
    """Static background with one differently coloured rect at (8, 8, 8, 8)."""
    rng = np.random.default_rng(seed)
    background = rng.integers(0, 100, size=(32, 32, 3), dtype=np.uint8)
    frame = background.copy()
    frame[8:16, 8:16] = 200
    return background, frame


class TestPartialDecode:
    def test_full_rect_matches_full_decode(self):
        rng = np.random.default_rng(21)
        img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        pay = encode_iframe(img)
        bg = np.zeros_like(img)  # substitution source never consulted
        tile, stats = decode_region_partial(pay, (0, 0, 32, 32), bg)
        assert np.array_equal(tile.pixels, decode_full(pay))
        assert stats.blocks_decoded == stats.blocks_total == 64

    def test_background_interior_region_is_exact(self):
        background, frame = composite_scene()
        pay = encode_iframe(frame)
        # region and its causal halo sit entirely outside the painted rect
        tile, stats = decode_region_partial(pay, (20, 20, 8, 8), background)
        assert np.array_equal(tile.pixels, frame[20:28, 20:28])
        assert stats.blocks_decoded == 4
        assert stats.blocks_total == 64

    def test_substitution_across_an_object_boundary_diverges(self):
        # The region's top halo row lies inside the painted rect, so the
        # substituted prediction context is wrong and the error propagates.
        background, frame = composite_scene()
        pay = encode_iframe(frame)
        tile, _ = decode_region_partial(pay, (8, 16, 8, 8), background)
        assert not np.array_equal(tile.pixels, frame[16:24, 8:16])

    def test_rect_cropping_returns_exact_rect(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        pay = encode_iframe(img)
        tile, _ = decode_region_partial(pay, (0, 0, 32, 32), np.zeros_like(img))
        sub, _ = decode_region_partial(pay, (5, 7, 11, 9), img)
        assert sub.rect == (5, 7, 11, 9)
        assert sub.pixels.shape == (9, 11, 3)
        assert np.array_equal(sub.pixels, tile.pixels[7:16, 5:16])

    def test_degenerate_and_out_of_bounds_rects_rejected(self):
        pay = encode_iframe(uniform_image(16, 16, 77))
        bg = uniform_image(16, 16, 77)
        with pytest.raises(ValueError):
            decode_region_partial(pay, (0, 0, 0, 4), bg)
        with pytest.raises(ValueError):
            decode_region_partial(pay, (12, 0, 8, 4), bg)
        with pytest.raises(ValueError):
            decode_region_partial(pay, (0, 0, 4, 4), bg[:8])
        with pytest.raises(ValueError):
            decode_region_partial(pay, (4, 4, 4, 4), bg.astype(np.int32) + 200)


def reference_decode(payload, rect, background):
    """Block-at-a-time raster-order decoder, the codec's definition.

    Neighbors inside the rect's blocks come from this decode, neighbors
    outside them from ``background``. Returns (tile pixels, DecodeStats).
    """
    x, y, w, h = rect
    bx0, by0, nbx, nby = block_region(rect)
    region = np.zeros((nby * BLOCK, nbx * BLOCK, 3), dtype=np.int32)
    bg = background.astype(np.int32)
    for p in range(3):
        for by in range(by0, by0 + nby):
            ly, gy = (by - by0) * BLOCK, by * BLOCK
            for bx in range(bx0, bx0 + nbx):
                lx, gx = (bx - bx0) * BLOCK, bx * BLOCK
                pred = 128
                if payload.modes[p, by, bx] != MODE_CONST:
                    context = []
                    if by > 0:
                        src = region[ly - 1, lx : lx + BLOCK] if by > by0 else bg[gy - 1, gx : gx + BLOCK]
                        context.extend(src[:, p])
                    if bx > 0:
                        src = region[ly : ly + BLOCK, lx - 1] if bx > bx0 else bg[gy : gy + BLOCK, gx - 1]
                        context.extend(src[:, p])
                    if not context:
                        raise IntraFormatError(f"block ({by}, {bx}): mode 1 with no causal neighbors")
                    pred = (int(sum(context)) + len(context) // 2) // len(context)
                blk = payload.residuals[p, by, bx].astype(np.int32) + pred
                region[ly : ly + BLOCK, lx : lx + BLOCK, p] = np.clip(blk, 0, 255)
    oy, ox = y - by0 * BLOCK, x - bx0 * BLOCK
    tile = region[oy : oy + h, ox : ox + w].astype(np.uint8)
    return tile, DecodeStats(nbx * nby, payload.blocks_per_plane)


@st.composite
def coded_frames(draw):
    """(payload, rect, background) with random size and residuals, and the
    modes their positions fix.

    Residual magnitudes reach past 255, so reconstruction clips."""
    nby, nbx = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    limit = draw(st.sampled_from([0, 3, 60, 300, 32767]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = positional_modes(nby, nbx)
    residuals = rng.integers(-limit, limit, (3, nby, nbx, BLOCK, BLOCK), endpoint=True)
    height, width = nby * BLOCK, nbx * BLOCK
    payload = IntraPayload(modes, residuals.astype(np.int16), width, height)
    x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    rect = (x, y, draw(st.integers(1, width - x)), draw(st.integers(1, height - y)))
    background = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    return payload, rect, background


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(coded_frames())
    def test_partial_decode_matches_raster_reference(self, case):
        payload, rect, background = case
        tile, stats = decode_region_partial(payload, rect, background)
        ref_pixels, ref_stats = reference_decode(payload, rect, background)
        assert tile.rect == rect
        assert tile.pixels.dtype == np.uint8
        assert np.array_equal(tile.pixels, ref_pixels)
        assert stats == ref_stats

    @settings(max_examples=100, deadline=None)
    @given(coded_frames())
    def test_full_decode_matches_raster_reference(self, case):
        payload, _, background = case
        full_rect = (0, 0, payload.width_px, payload.height_px)
        ref_pixels, _ = reference_decode(payload, full_rect, background)
        assert np.array_equal(decode_full(payload), ref_pixels)

    @settings(max_examples=200, deadline=None)
    @given(coded_frames())
    def test_partial_is_exact_when_context_lies_on_background(self, case):
        payload, rect, background = case
        frame = decode_full(payload)
        # Put the row above and the column left of the rect's blocks on
        # background, then re-encode: the substituted context is now right.
        bx0, by0, nbx, nby = block_region(rect)
        x0, x1, y0, y1 = bx0 * BLOCK, (bx0 + nbx) * BLOCK, by0 * BLOCK, (by0 + nby) * BLOCK
        if y0 > 0:
            frame[y0 - 1, x0:x1] = background[y0 - 1, x0:x1]
        if x0 > 0:
            frame[y0:y1, x0 - 1] = background[y0:y1, x0 - 1]
        tile, _ = decode_region_partial(encode_iframe(frame), rect, background)
        x, y, w, h = rect
        assert np.array_equal(tile.pixels, frame[y : y + h, x : x + w])


@st.composite
def encoder_frames(draw):
    """(image, payload): a random image and its ``encode_iframe`` payload.

    Images mix noise, flat patches and the extremes 0 and 255."""
    nby, nbx = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = rng.integers(0, 256, (nby * BLOCK, nbx * BLOCK, 3), dtype=np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        y, x = rng.integers(0, nby * BLOCK), rng.integers(0, nbx * BLOCK)
        image[y : y + rng.integers(1, 12), x : x + rng.integers(1, 12)] = rng.choice([0, 255, 77])
    return image, encode_iframe(image)


def random_rect(draw, width, height):
    x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    return (x, y, draw(st.integers(1, width - x)), draw(st.integers(1, height - y)))


@contextlib.contextmanager
def clamped_wave_calls(forbid=False):
    """Records each decode that falls back to the clamped wave; with
    ``forbid`` set, makes it raise instead."""
    calls = []
    original = intra._decode_blocks_clamped

    def spy(*args):
        if forbid:
            raise AssertionError("decode reached the clamped wave")
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intra, "_decode_blocks_clamped", spy)
        yield calls


class TestPathChoice:
    """Encoder payloads take the predictor wave; clipping ones fall back."""

    @pytest.mark.parametrize("height,width", [(4, 4), (4, 640), (480, 4), (240, 320), (480, 640)])
    def test_encoder_full_frames_never_reach_the_clamped_wave(self, height, width):
        rng = np.random.default_rng(height * width)
        image = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        image[: height // 2, : width // 3] = 255
        image[height // 2 :, width // 3 :] = 0
        payload = encode_iframe(image)
        with clamped_wave_calls(forbid=True):
            assert np.array_equal(decode_full(payload), image)

    @settings(max_examples=150, deadline=None)
    @given(encoder_frames(), st.data())
    def test_encoder_payloads_never_reach_the_clamped_wave(self, frame, data):
        image, _ = frame
        height, width = image.shape[:2]
        rect = random_rect(data.draw, width, height)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        background = rng.integers(0, 256, image.shape, dtype=np.uint8)
        # Put the rect's context row and column on background, so the
        # substituted context is the coded one, and encode again.
        bx0, by0, nbx, nby = block_region(rect)
        x0, x1, y0, y1 = bx0 * BLOCK, (bx0 + nbx) * BLOCK, by0 * BLOCK, (by0 + nby) * BLOCK
        if y0 > 0:
            image[y0 - 1, x0:x1] = background[y0 - 1, x0:x1]
        if x0 > 0:
            image[y0:y1, x0 - 1] = background[y0:y1, x0 - 1]
        payload = encode_iframe(image)
        x, y, w, h = rect
        with clamped_wave_calls(forbid=True):
            assert np.array_equal(decode_full(payload), image)
            tile, _ = decode_region_partial(payload, rect, background)
        assert np.array_equal(tile.pixels, image[y : y + h, x : x + w])

    @settings(max_examples=150, deadline=None)
    @given(encoder_frames(), st.data())
    def test_clipping_only_in_the_last_block_matches_reference(self, frame, data):
        image, payload = frame
        height, width = image.shape[:2]
        plane = data.draw(st.integers(0, 2))
        r, s = data.draw(st.integers(0, BLOCK - 1)), data.draw(st.integers(0, BLOCK - 1))
        value = int(payload.residuals[plane, -1, -1, r, s])
        pixel = int(image[height - BLOCK + r, width - BLOCK + s, plane])
        # To 256 or -1 exactly, far past 255 or below 0, or as far as
        # int16 goes, where residual plus predictor wraps around.
        payload.residuals[plane, -1, -1, r, s] = data.draw(st.sampled_from(
            [value + 256 - pixel, value - 1 - pixel, value + 256, value - 256, 32767, -32768]))
        full_rect = (0, 0, width, height)
        # A rect that holds the last block.
        x, y = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        rect = (x, y, width - x, height - y)
        # With bands of 4 blocks the clip lies bands after the first, which
        # are already in the planes when it is found.
        rebuild_blocks = data.draw(st.sampled_from([intra._REBUILD_BLOCKS, 4]))
        with clamped_wave_calls() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(intra, "_REBUILD_BLOCKS", rebuild_blocks)
            full = decode_full(payload)
            tile, _ = decode_region_partial(payload, rect, image)
        assert len(calls) == 2
        assert np.array_equal(full, reference_decode(payload, full_rect, image)[0])
        assert np.array_equal(tile.pixels, reference_decode(payload, rect, image)[0])

    @settings(max_examples=100, deadline=None)
    @given(encoder_frames(), st.data())
    def test_corrupt_origin_block_matches_reference(self, frame, data):
        image, payload = frame
        height, width = image.shape[:2]
        plane = data.draw(st.integers(0, 2))
        r, s = data.draw(st.integers(0, BLOCK - 1)), data.draw(st.integers(0, BLOCK - 1))
        payload.residuals[plane, 0, 0, r, s] += 300  # the error cascades
        rect = random_rect(data.draw, width, height)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        background = rng.integers(0, 256, image.shape, dtype=np.uint8)
        full_rect = (0, 0, width, height)
        assert np.array_equal(decode_full(payload), reference_decode(payload, full_rect, image)[0])
        tile, _ = decode_region_partial(payload, rect, background)
        assert np.array_equal(tile.pixels, reference_decode(payload, rect, background)[0])


def reference_encode(image):
    """The encoder ``encode_iframe`` replaced: int32 plane copies, int64
    edge sums and a boolean mask over the blocks that have neighbours."""
    h, w = image.shape[:2]
    nby, nbx = h // BLOCK, w // BLOCK
    modes = np.empty((3, nby, nbx), dtype=np.uint8)
    residuals = np.empty((3, nby, nbx, BLOCK, BLOCK), dtype=np.int16)
    for p in range(3):
        src = image[:, :, p].astype(np.int32)
        top_sum = np.zeros((nby, nbx), dtype=np.int64)
        top_sum[1:] = src[BLOCK - 1 :: BLOCK][: nby - 1].reshape(nby - 1, nbx, BLOCK).sum(axis=2)
        left_sum = np.zeros((nby, nbx), dtype=np.int64)
        left_sum[:, 1:] = (
            src[:, BLOCK - 1 :: BLOCK][:, : nbx - 1].reshape(nby, BLOCK, nbx - 1).sum(axis=1)
        )
        counts = np.zeros((nby, nbx), dtype=np.int64)
        counts[1:] += BLOCK
        counts[:, 1:] += BLOCK
        pred = np.full((nby, nbx), 128, dtype=np.int64)
        has_nb = counts > 0
        pred[has_nb] = (top_sum[has_nb] + left_sum[has_nb] + counts[has_nb] // 2) // counts[has_nb]
        modes[p] = np.where(has_nb, MODE_NEIGHBOR_DC, MODE_CONST)
        blocks = src.reshape(nby, BLOCK, nbx, BLOCK).transpose(0, 2, 1, 3)
        residuals[p] = (blocks - pred[:, :, None, None]).astype(np.int16)
    return IntraPayload(modes, residuals, w, h)


class TestEncoderAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(encoder_frames())
    def test_payload_bytes_match_reference_encoder(self, frame):
        image, payload = frame
        want = reference_encode(image)
        assert payload.residuals.dtype == np.int16 and payload.modes.dtype == np.uint8
        assert payload.to_bytes() == want.to_bytes()

    @pytest.mark.parametrize("height,width", [(4, 4), (4, 640), (480, 4), (480, 640)])
    def test_extreme_frames_match_reference_encoder(self, height, width):
        for value in (0, 255):
            image = uniform_image(height, width, value)
            image[::3, ::5] = 255 - value
            assert encode_iframe(image).to_bytes() == reference_encode(image).to_bytes()


def edge_rects(draw, width, height):
    """1-8 rects: random ones, plus ones that touch the frame's top edge,
    its left edge, cover the origin, overlap or repeat another."""
    rects = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "top", "left", "origin", "repeat"]))
        x, y, w, h = random_rect(draw, width, height)
        if kind == "top":
            rects.append((x, 0, w, draw(st.integers(1, height))))
        elif kind == "left":
            rects.append((0, y, draw(st.integers(1, width)), h))
        elif kind == "origin":
            rects.append((0, 0, draw(st.integers(1, width)), draw(st.integers(1, height))))
        elif kind == "repeat" and rects:
            rects.append(draw(st.sampled_from(rects)))
        else:
            rects.append((x, y, w, h))
    return rects


class TestChannelPlanes:
    """Every decode path hands out (h, w, 3) views of channel planes."""

    def test_each_path_returns_a_view_of_contiguous_planes(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (24, 40, 3), dtype=np.uint8)
        payload = encode_iframe(image)
        with clamped_wave_calls(forbid=True):
            full = decode_full(payload)
            (clean,) = intra._decode_regions(payload, [(2, 1, 6, 4)], image)
        payload.residuals[0, 5, 9, 3, 3] += 300  # the last block clips
        with clamped_wave_calls() as calls:
            (clamped,) = intra._decode_regions(payload, [(5, 2, 5, 4)], image)
        assert len(calls) == 1
        for pixels, want in [(full, image), (clean, image[4:20, 8:32]),
                             (clamped, reference_decode(payload, (20, 8, 20, 16), image)[0])]:
            assert pixels.dtype == np.uint8 and pixels.shape == want.shape
            assert pixels.transpose(2, 0, 1).flags.c_contiguous
            assert np.array_equal(pixels, want)


class TestBatchDecode:
    """One wave over many rects gives each rect's own decode."""

    @settings(max_examples=200, deadline=None)
    @given(coded_frames(), st.data())
    def test_batch_matches_per_rect_reference(self, case, data):
        payload, _, background = case
        rects = edge_rects(data.draw, payload.width_px, payload.height_px)
        tiles, stats = decode_regions_partial(payload, rects, background)
        assert [t.rect for t in tiles] == rects
        total = 0
        for rect, tile in zip(rects, tiles):
            want, want_stats = reference_decode(payload, rect, background)
            assert np.array_equal(tile.pixels, want)
            total += want_stats.blocks_decoded
        assert stats == DecodeStats(total, payload.blocks_per_plane)

    @settings(max_examples=100, deadline=None)
    @given(encoder_frames(), st.data())
    def test_encoder_batches_never_reach_the_clamped_wave(self, frame, data):
        image, payload = frame
        height, width = image.shape[:2]
        rects = edge_rects(data.draw, width, height)
        # The rects' context is the coded frame itself, so every tile is exact.
        with clamped_wave_calls(forbid=True):
            tiles, _ = decode_regions_partial(payload, rects, image)
        for (x, y, w, h), tile in zip(rects, tiles):
            assert np.array_equal(tile.pixels, image[y : y + h, x : x + w])

    @pytest.mark.parametrize("fault", ["clip"])
    def test_only_the_bad_rect_reaches_the_clamped_wave(self, fault):
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, (64, 96, 3), dtype=np.uint8)
        payload = encode_iframe(image)
        bad = (44, 36, 20, 16)  # blocks (11, 9) to (15, 12)
        payload.residuals[1, 12, 15, 3, 3] += 300  # the fault: the last block clips
        rects = [(0, 0, 40, 24), bad, (8, 52, 40, 12), (0, 0, 40, 24), (68, 0, 28, 64)]
        with clamped_wave_calls() as calls:
            tiles, _ = decode_regions_partial(payload, rects, image)
        assert [c[1:5] for c in calls] == [(11, 9, 5, 4)]
        for rect, tile in zip(rects, tiles):
            assert np.array_equal(tile.pixels, reference_decode(payload, rect, image)[0])

    def test_a_mode0_block_inside_a_rect_is_rejected_when_read(self):
        # Mode 0 at a block that has neighbours, inside the bad rect of the
        # batch above: read whole, or by a band that holds the block, the
        # payload is rejected before any decode.
        image = np.random.default_rng(7).integers(0, 256, (64, 96, 3), dtype=np.uint8)
        wire = encode_iframe(image).wire().copy()
        at = ((2 * 16 + 10) * 24 + 13) * 33  # mode byte of block (13, 10), plane B
        wire[at] = MODE_CONST
        data = wire.tobytes()

        def read_into(offset, view):
            view[:] = data[offset : offset + len(view)]

        with pytest.raises(IntraFormatError, match="mode 0 is legal only at block"):
            IntraPayload.from_bytes(data, 96, 64)
        with pytest.raises(IntraFormatError, match="mode 0 is legal only at block"):
            IntraPayload.sparse(96, 64, [(11, 9, 5, 4)], read_into)
        # A band that does not hold the block never reads it.
        sparse = IntraPayload.sparse(96, 64, [(0, 0, 10, 6)], read_into)
        tiles, _ = decode_regions_partial(sparse, [(0, 0, 40, 24)], image)
        assert np.array_equal(tiles[0].pixels, image[:24, :40])

    def test_empty_batch_decodes_nothing(self):
        pay = encode_iframe(uniform_image(8, 8, 9))
        assert decode_regions_partial(pay, [], uniform_image(8, 8, 9)) == ([], DecodeStats(0, 4))

    def test_any_bad_rect_rejects_the_batch(self):
        pay = encode_iframe(uniform_image(16, 16, 77))
        bg = uniform_image(16, 16, 77)
        with pytest.raises(ValueError):
            decode_regions_partial(pay, [(0, 0, 4, 4), (12, 0, 8, 4)], bg)

    def test_small_rects_are_not_padded_to_a_large_rects_stack(self):
        """One 400x300 rect and six 48x48 ones: each size class runs its own
        wave, so the batch peaks near what each rect needs alone, its pixels
        and its own skewed stack, and not at seven large stacks (1.67 MB
        when every rect shared the 400x300 rect's stack; 0.71 MB here)."""
        image = np.random.default_rng(3).integers(0, 256, (480, 640, 3), dtype=np.uint8)
        payload = encode_iframe(image)
        rects = [(100, 100, 400, 300)] + [(16 + 96 * k, 420, 48, 48) for k in range(6)]

        def own_stack(rect):
            bx0, by0, nbx, nby = block_region(rect)
            rows, cols = nby - (by0 == 0), nbx - (bx0 == 0)
            return (rows + cols + 1) * (rows + 1) * 3 * 4

        pixels = [3 * w * h for *_, w, h in rects]
        tracemalloc.start()
        try:
            tiles, _ = decode_regions_partial(payload, rects, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Half the largest rect's pixels is room for its D slab (0.25x) or
        # one rebuild band's buffers (0.42x), which are never live together.
        assert peak < sum(pixels) + sum(map(own_stack, rects)) + max(pixels) // 2
        for rect, tile in zip(rects, tiles):
            x, y, w, h = rect
            assert np.array_equal(tile.pixels, image[y : y + h, x : x + w])


def row_major_decode_regions(payload, regions, background):
    """``intra._decode_regions`` as it was while its predictor stack was
    row-major: the reference that the skewed stack is checked against.

    The stack is (3K, R, C), and consecutive cells of one anti-diagonal sit
    C - 1 apart in it, so each step of the wave works on strided slices.
    The mode check on block (0, 0) is left out (inputs here are valid);
    ``_start_predictors``, ``_rebuild`` and ``_decode_blocks_clamped`` are
    the module's own. Every region shares the one stack, whatever its size.
    """
    out = [None] * len(regions)
    res = [payload.residuals_of(*region) for region in regions]
    fast = []
    for k, (bx0, by0, nbx, nby) in enumerate(regions):
        modes = payload.modes[:, by0 : by0 + nby, bx0 : bx0 + nbx]
        if np.count_nonzero(modes == MODE_CONST) == (3 if bx0 == by0 == 0 else 0):
            fast.append(k)
        else:
            out[k] = intra._decode_blocks_clamped(payload, *regions[k], background)
    if not fast:
        return out

    rows = max(regions[k][3] - (regions[k][1] == 0) for k in fast)
    cols = max(regions[k][2] - (regions[k][0] == 0) for k in fast)
    stack = np.zeros((3 * len(fast), rows + 1, cols + 1), dtype=np.int32)
    cores = []
    for j, k in enumerate(fast):
        bx0, by0, nbx, nby = regions[k]
        r, c = int(by0 > 0), int(bx0 > 0)
        core = stack[3 * j : 3 * j + 3, r : r + nby, c : c + nbx]
        core[...] = intra._start_predictors(res[k], bx0, by0, background)
        cores.append(core)

    row = cols + 1
    flat = stack.reshape(len(stack), -1)
    for d in range(rows + cols - 1 if rows and cols else 0):
        i0 = max(0, d - cols + 1)
        n = min(d, rows - 1) + 1 - i0
        c = (i0 + 1) * row + (d - i0 + 1)  # stack cell of (i0, d - i0)
        span = (n - 1) * cols + 1
        p = flat[:, c : c + span : cols]
        p += flat[:, c - row : c - row + span : cols]
        p += flat[:, c - 1 : c - 1 + span : cols]
        p >>= 1

    for k, core in zip(fast, cores):
        out[k] = intra._rebuild(res[k], core)
        if out[k] is None:
            out[k] = intra._decode_blocks_clamped(payload, *regions[k], background)
    return out


@st.composite
def wave_batches(draw):
    """(payload, background, regions): an encoded frame, at times one block
    row tall or one block column wide, and a batch of block regions. The
    batch holds a one-block-column region and a one-block-row region, so
    its tallest and its widest region differ, and up to four more. The
    background is the frame itself, so every region takes the wave, or
    noise, so that most clip and fall back."""
    shape = draw(st.sampled_from(["any", "one-row", "one-column"]))
    nby = 1 if shape == "one-row" else draw(st.integers(1, 12))
    nbx = 1 if shape == "one-column" else draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = rng.integers(0, 256, (nby * BLOCK, nbx * BLOCK, 3), dtype=np.uint8)
    background = image if draw(st.booleans()) else rng.integers(0, 256, image.shape, dtype=np.uint8)

    def region(most_wide, most_tall):
        bx0, by0 = draw(st.integers(0, nbx - 1)), draw(st.integers(0, nby - 1))
        return (bx0, by0, draw(st.integers(1, min(most_wide, nbx - bx0))),
                draw(st.integers(1, min(most_tall, nby - by0))))

    regions = [region(1, nby), region(nbx, 1)]
    regions += [region(nbx, nby) for _ in range(draw(st.integers(0, 4)))]
    return encode_iframe(image), background, draw(st.permutations(regions))


class TestSkewedWave:
    """The skewed predictor stack decodes what the row-major one did."""

    @settings(max_examples=300, deadline=None)
    @given(wave_batches())
    def test_batches_match_the_row_major_wave(self, batch):
        payload, background, regions = batch
        # The clamped wave would mend a wrong predictor, so on the coded
        # frame's own context every region must be the wave's work.
        full = (0, 0, payload.width_px // BLOCK, payload.height_px // BLOCK)
        with clamped_wave_calls(forbid=True):
            frame = decode_full(payload)
        with clamped_wave_calls(forbid=np.array_equal(background, frame)):
            got = intra._decode_regions(payload, regions, background)
        assert np.array_equal(frame, row_major_decode_regions(payload, [full], None)[0])
        want = row_major_decode_regions(payload, regions, background)
        for (bx0, by0, nbx, nby), pixels, ref in zip(regions, got, want):
            assert np.array_equal(pixels, ref)
            rect = (bx0 * BLOCK, by0 * BLOCK, nbx * BLOCK, nby * BLOCK)
            assert np.array_equal(pixels, reference_decode(payload, rect, background)[0])

    def test_full_decode_peak_memory_stays_near_the_image(self):
        # Peaks over the decoded pixels' bytes at 640x480: 1.63x for a full
        # decode and 1.65x for one 600x440 rect, with pixels rebuilt band by
        # band straight into their planes (2.66x and 2.60x when a rect-sized
        # block array was filled first). The bound leaves 0.1x, about one
        # band's int16 sums, so a rect-sized int16 predictor copy (0.125x)
        # or block array (1x) beside the planes exceeds it.
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, (480, 640, 3), dtype=np.uint8)
        payload = encode_iframe(image)
        x, y, w, h = rect = (20, 20, 600, 440)
        for decode, want in [(lambda: decode_full(payload), image),
                             (lambda: decode_region_partial(payload, rect, image)[0].pixels,
                              image[y : y + h, x : x + w])]:
            tracemalloc.start()
            try:
                decoded = decode()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(decoded, want)
            assert peak <= 1.75 * want.nbytes
