"""Binary stream container: round-trips, validation, failure modes."""

import io
import struct

import numpy as np
import pytest

from mbtrack.intra import IntraFormatError, IntraPayload, encode_iframe
from mbtrack.stream import (
    FLAG_HAS_BACKGROUND,
    MAGIC,
    BackgroundChunk,
    FrameFeatures,
    MacroblockGrid,
    MacroblockRecord,
    StreamFormatError,
    StreamHeader,
    StreamInvariantError,
    StreamTruncatedError,
    read_stream,
    stream_to_bytes,
    write_stream,
)

HEADER_SIZE = struct.calcsize("<4sHHHBBIH")


def make_grid(rows, cols, coded=()):
    """All-skip grid with selected cells coded. coded: {(my, mx): (mask, mvx, mvy)}"""
    g = MacroblockGrid.all_skip(rows, cols)
    for (my, mx), (mask, mvx, mvy) in dict(coded).items():
        g.skip[my, mx] = False
        g.coeff_mask[my, mx] = mask
        g.mv_qpel[my, mx] = (mvx, mvy)
    return g


def make_stream(width=32, height=32, gop_len=4, frame_count=6, seed=0,
                background=False):
    rng = np.random.default_rng(seed)
    rows, cols = height // 16, width // 16
    frames = []
    for i in range(frame_count):
        if i % gop_len == 0:
            img = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
            frames.append(FrameFeatures(i, "I", intra_payload=encode_iframe(img)))
        else:
            coded = {}
            for my in range(rows):
                for mx in range(cols):
                    if rng.random() < 0.4:
                        coded[(my, mx)] = (int(rng.integers(0, 0x10000)),
                                           int(rng.integers(-64, 65)),
                                           int(rng.integers(-64, 65)))
            frames.append(FrameFeatures(i, "P", mb_grid=make_grid(rows, cols, coded)))
    flags = FLAG_HAS_BACKGROUND if background else 0
    header = StreamHeader(version=1, width_px=width, height_px=height, fps=25,
                          gop_len=gop_len, frame_count=frame_count, flags=flags)
    bg = None
    if background:
        bg = BackgroundChunk(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))
    return header, bg, frames


def roundtrip(header, bg, frames):
    data = stream_to_bytes(header, bg, frames)
    h2, bg2, it = read_stream(io.BytesIO(data))
    return data, h2, bg2, list(it)


class TestHeader:
    def test_frame_kind_follows_gop_structure(self):
        h = StreamHeader(width_px=64, height_px=48, fps=25, gop_len=4, frame_count=12)
        kinds = [h.frame_kind(i) for i in range(12)]
        assert kinds == ["I", "P", "P", "P"] * 3

    def test_grid_dimensions(self):
        h = StreamHeader(width_px=320, height_px=240, fps=25, gop_len=8, frame_count=10)
        assert (h.mb_cols, h.mb_rows) == (20, 15)

    @pytest.mark.parametrize("kw", [
        {"width_px": 30}, {"width_px": 0}, {"height_px": 100},
        {"gop_len": 1}, {"gop_len": 11}, {"frame_count": 0},
    ])
    def test_rejects_bad_geometry(self, kw):
        args = dict(width_px=64, height_px=48, fps=25,
                    gop_len=4, frame_count=8, flags=0)
        args.update(kw)
        with pytest.raises(StreamFormatError):
            StreamHeader(**args).validate()


class TestMacroblockInvariants:
    def test_skip_record_must_be_empty(self):
        with pytest.raises(StreamInvariantError):
            MacroblockRecord(skip=True, coeff_mask=1)
        with pytest.raises(StreamInvariantError):
            MacroblockRecord(skip=True, mv_qpel=(1, 0))
        MacroblockRecord(skip=True)  # fine
        MacroblockRecord(skip=False, coeff_mask=0xFFFF, mv_qpel=(-4, 4))

    def test_grid_validate_catches_contradiction(self):
        g = MacroblockGrid.all_skip(2, 2)
        g.coeff_mask[1, 0] = 3  # skip cell claiming coefficients
        with pytest.raises(StreamInvariantError):
            g.validate()


class TestRoundTrip:
    def test_frames_survive_byte_for_byte(self):
        header, bg, frames = make_stream(seed=7)
        data, h2, bg2, got = roundtrip(header, bg, frames)
        assert h2 == header
        assert bg2 is None
        assert got == frames
        # re-serialising the parsed frames reproduces the exact bytes
        assert stream_to_bytes(h2, bg2, got) == data

    def test_background_chunk_round_trips(self):
        header, bg, frames = make_stream(seed=3, background=True)
        data, h2, bg2, got = roundtrip(header, bg, frames)
        assert bg2 is not None
        assert np.array_equal(bg2.rgb, bg.rgb)
        assert stream_to_bytes(h2, bg2, got) == data

    def test_skip_only_pframe_is_one_byte_per_block(self):
        header, bg, frames = make_stream(width=64, height=32, frame_count=2, gop_len=4)
        frames[1] = FrameFeatures(1, "P", mb_grid=MacroblockGrid.all_skip(2, 4))
        data = stream_to_bytes(header, bg, frames)
        iframe_size = 5 + IntraPayload.byte_size(64, 32)
        assert len(data) == HEADER_SIZE + iframe_size + 5 + 8


class TestWriterValidation:
    def test_out_of_order_frames_rejected(self):
        header, bg, frames = make_stream()
        frames[1], frames[2] = frames[2], frames[1]
        with pytest.raises(StreamInvariantError, match="out of order"):
            stream_to_bytes(header, bg, frames)

    def test_kind_must_match_gop_structure(self):
        header, bg, frames = make_stream()
        frames[1] = FrameFeatures(1, "I", intra_payload=frames[0].intra_payload)
        with pytest.raises(StreamInvariantError, match="GOP structure"):
            stream_to_bytes(header, bg, frames)

    def test_frame_count_must_match_header(self):
        header, bg, frames = make_stream()
        with pytest.raises(StreamInvariantError, match="promises"):
            stream_to_bytes(header, bg, frames[:-1])

    def test_background_flag_must_match_chunk(self):
        header, bg, frames = make_stream(background=True)
        with pytest.raises(StreamInvariantError):
            stream_to_bytes(header, None, frames)

    def test_grid_invariant_checked_at_write_time(self):
        header, bg, frames = make_stream(width=32, height=32, frame_count=2)
        g = MacroblockGrid.all_skip(2, 2)
        g.mv_qpel[0, 0] = (2, 0)  # motion on a skip block
        frames[1] = FrameFeatures(1, "P", mb_grid=g)
        with pytest.raises(StreamInvariantError):
            stream_to_bytes(header, bg, frames)


class TestReaderValidation:
    def test_bad_magic_rejected(self):
        header, bg, frames = make_stream()
        data = bytearray(stream_to_bytes(header, bg, frames))
        data[:4] = b"XXXX"
        with pytest.raises(StreamFormatError):
            read_stream(io.BytesIO(bytes(data)))

    def test_reserved_macroblock_flag_bits_rejected(self):
        header, bg, frames = make_stream(width=32, height=32, frame_count=2)
        frames[1] = FrameFeatures(1, "P", mb_grid=MacroblockGrid.all_skip(2, 2))
        data = bytearray(stream_to_bytes(header, bg, frames))
        first_mb_flag = HEADER_SIZE + (5 + IntraPayload.byte_size(32, 32)) + 5
        data[first_mb_flag] = 0x02
        _, _, it = read_stream(io.BytesIO(bytes(data)))
        with pytest.raises(StreamInvariantError, match="reserved"):
            list(it)

    def test_truncation_reports_frame_index(self):
        header, bg, frames = make_stream(frame_count=6)
        data = stream_to_bytes(header, bg, frames)
        _, _, it = read_stream(io.BytesIO(data[:-3]))
        with pytest.raises(StreamTruncatedError) as err:
            list(it)
        assert err.value.frame_index == 5

    def test_missing_header_is_truncation(self):
        with pytest.raises(StreamTruncatedError):
            read_stream(io.BytesIO(b"MB"))

    def test_validation_is_lazy_until_frames_are_consumed(self):
        header, bg, frames = make_stream(frame_count=6)
        data = stream_to_bytes(header, bg, frames)
        h2, _, it = read_stream(io.BytesIO(data[: HEADER_SIZE + 4]))
        assert h2 == header  # header parsed eagerly, frames untouched
        with pytest.raises(StreamTruncatedError):
            next(it)

    def test_frame_tag_mismatch_rejected(self):
        header, bg, frames = make_stream(width=32, height=32, frame_count=2)
        data = bytearray(stream_to_bytes(header, bg, frames))
        data[HEADER_SIZE] = ord("Q")  # first frame tag
        _, _, it = read_stream(io.BytesIO(bytes(data)))
        with pytest.raises(StreamFormatError):
            next(it)

    @pytest.mark.parametrize("mode,message", [
        (7, "unknown prediction mode"),
        (1, "mode 1 requires at least one causal neighbor"),
    ])
    def test_bad_intra_mode_is_a_typed_error_naming_the_frame(self, mode, message):
        header, bg, frames = make_stream(width=32, height=32, frame_count=2)
        data = bytearray(stream_to_bytes(header, bg, frames))
        data[HEADER_SIZE + 5] = mode  # mode byte of block (0, 0), plane R, frame 0
        _, _, it = read_stream(io.BytesIO(bytes(data)))
        with pytest.raises(StreamFormatError, match=f"frame 0: {message}") as err:
            next(it)
        assert isinstance(err.value.__cause__, IntraFormatError)
