"""Binary stream container: round-trips, validation, failure modes."""

import functools
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbtrack.filtering import cluster_blocks
from mbtrack.intra import IntraFormatError, IntraPayload, encode_iframe
from mbtrack.pipeline import run_tracker
from mbtrack.scene import SceneObject, SceneScript, Waypoint, synthesize
from mbtrack.stream import (
    _HEADER,
    _READ_CAP,
    _parse_pframe,
    _Reader,
    FLAG_HAS_BACKGROUND,
    MAGIC,
    BackgroundChunk,
    Demand,
    FrameFeatures,
    MacroblockGrid,
    StreamError,
    StreamFormatError,
    StreamHeader,
    StreamInvariantError,
    StreamTruncatedError,
    _serialize_pframe,
    read_stream,
    stream_to_bytes,
    write_stream,
)

from scenes import BLUE, RED

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
    header = StreamHeader(version=2, width_px=width, height_px=height, fps=25,
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

    @pytest.mark.parametrize("source", ["bytes", "file", "pipe"])
    def test_background_chunk_is_a_read_only_view_of_the_bytes_read(self, source, tmp_path):
        header, bg, frames = make_stream(seed=3, background=True)
        data = stream_to_bytes(header, bg, frames)
        path = tmp_path / "s.mbfs"
        path.write_bytes(data)
        with open(path, "rb") as f:
            src = {"bytes": data, "file": f, "pipe": Pipe(data)}[source]
            _, bg2, it = read_stream(src)
            assert list(it) == frames
        assert bg2 == bg
        assert not bg2.rgb.flags.writeable
        assert not bg2.rgb.flags.owndata

    def test_reading_the_background_chunk_holds_one_copy_of_it(self):
        # A 640x480 chunk is 921,600 bytes; copied out of the bytes read
        # for it, the read peaked at two.
        rgb = np.random.default_rng(1).integers(0, 256, (480, 640, 3), dtype=np.uint8)
        data = _HEADER.pack(MAGIC, 2, 640, 480, 25, 8, 1, FLAG_HAS_BACKGROUND) + b"B" + rgb.tobytes()
        tracemalloc.start()
        try:
            _, bg, _ = read_stream(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(bg.rgb, rgb)
        assert peak <= 1.1 * rgb.nbytes

    def test_skip_only_pframe_is_one_byte_per_block(self):
        header, bg, frames = make_stream(width=64, height=32, frame_count=2, gop_len=4)
        frames[1] = FrameFeatures(1, "P", mb_grid=MacroblockGrid.all_skip(2, 4))
        data = stream_to_bytes(header, bg, frames)
        iframe_size = 5 + IntraPayload.byte_size(64, 32)
        assert len(data) == HEADER_SIZE + iframe_size + 5 + 8


def read_with(data, at, patch):
    """Every frame of stream ``data`` with ``patch`` written over its bytes at ``at``."""
    buf = bytearray(data)
    buf[at : at + len(patch)] = patch
    return list(read_stream(bytes(buf))[2])


FRAME_1 = HEADER_SIZE + 5 + IntraPayload.byte_size(32, 32)  # frame 1's prefix in make_stream()


class TestWriterValidation:
    """The frame-sequence rule holds on both sides of the wire: the writer
    refuses such frames, and the reader refuses such bytes."""

    @pytest.mark.parametrize("side", ["writer", "reader"])
    def test_out_of_order_frames_rejected(self, side):
        header, bg, frames = make_stream()
        data = stream_to_bytes(header, bg, frames)
        frames[1], frames[2] = frames[2], frames[1]
        with pytest.raises(StreamInvariantError,
                           match=r"frame index 2 out of order \(expected 1\)"):
            if side == "writer":
                stream_to_bytes(header, bg, frames)
            else:
                read_with(data, FRAME_1 + 1, struct.pack("<I", 2))

    @pytest.mark.parametrize("side", ["writer", "reader"])
    def test_kind_must_match_gop_structure(self, side):
        header, bg, frames = make_stream()
        data = stream_to_bytes(header, bg, frames)
        frames[1] = FrameFeatures(1, "I", intra_payload=frames[0].intra_payload)
        with pytest.raises(StreamInvariantError,
                           match="frame 1 is 'I' but GOP structure requires 'P'"):
            if side == "writer":
                stream_to_bytes(header, bg, frames)
            else:
                read_with(data, FRAME_1, b"I")

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

    def test_a_version_1_stream_is_rejected(self):
        header, bg, frames = make_stream()
        data = bytearray(stream_to_bytes(header, bg, frames))
        data[4:6] = struct.pack("<H", 1)
        with pytest.raises(StreamFormatError, match="^unsupported version 1$"):
            read_stream(bytes(data))

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

    @pytest.mark.parametrize("wrap", [
        io.BytesIO,  # read whole
        lambda data: Demand(io.BytesIO(data), lambda: [(0, 0, 2, 1)]),  # a band at (0, 0)
    ], ids=["whole", "sparse"])
    @pytest.mark.parametrize("mode,message,block", [
        (7, "unknown prediction mode", 0),
        (1, "mode 1 requires at least one causal neighbor", 0),
        (0, "mode 0 is legal only at block \\(0, 0\\)", 1),
    ])
    def test_bad_intra_mode_is_a_typed_error_naming_the_frame(self, mode, message, block,
                                                              wrap):
        """One mode rule on both read paths."""
        header, bg, frames = make_stream(width=32, height=32, frame_count=2)
        data = bytearray(stream_to_bytes(header, bg, frames))
        # The mode byte of block (block, 0), plane R, frame 0.
        data[HEADER_SIZE + 5 + block * 33] = mode
        _, _, it = read_stream(wrap(bytes(data)))
        with pytest.raises(StreamFormatError, match=f"frame 0: {message}") as err:
            next(it)
        assert isinstance(err.value.__cause__, IntraFormatError)


class Trickle(io.RawIOBase):
    """A file object that returns at most 3 bytes per read."""

    def __init__(self, data):
        self._src = io.BytesIO(data)

    def readable(self):
        return True

    def read(self, n=-1):
        return self._src.read(min(n, 3) if n >= 0 else 3)

    def tell(self):
        return self._src.tell()


class Pipe(io.RawIOBase):
    """A raw stream that cannot seek, like a pipe or a FIFO."""

    def __init__(self, data):
        self._src = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._src.readinto(b)

    def tell(self):  # lets a BufferedReader over it report its position
        return self._src.tell()


class TestStreaming:
    def test_short_reads_give_the_same_frames(self):
        header, bg, frames = make_stream(seed=5, background=True)
        data = stream_to_bytes(header, bg, frames)
        h2, bg2, it = read_stream(Trickle(data))
        assert (h2, bg2) == (header, bg)
        assert list(it) == frames

    def test_unseekable_buffered_source_gives_the_same_frames(self):
        header, bg, frames = make_stream(frame_count=9, gop_len=4, seed=3, background=True)
        data = stream_to_bytes(header, bg, frames)
        with io.BufferedReader(Pipe(data), buffer_size=64) as f:
            assert not f.seekable()
            h2, bg2, it = read_stream(f)
            assert (h2, bg2) == (header, bg)
            assert list(it) == frames

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reader_never_reads_past_the_frame_it_yields(self, seed):
        header, bg, frames = make_stream(width=64, height=48, frame_count=8, gop_len=3,
                                         seed=seed)
        frames[1].mb_grid.skip[:] = False  # every record coded
        ends = []
        end = HEADER_SIZE
        for frame in frames:
            end += 5 + (len(_serialize_pframe(frame.mb_grid)) if frame.kind == "P"
                        else IntraPayload.byte_size(64, 48))
            ends.append(end)
        data = stream_to_bytes(header, bg, frames) + b"tail"
        # Read whole, and sparsely, which seeks to each I-frame payload's end.
        for demand in (None, lambda: [(1, 1, 2, 2)]):
            with io.BytesIO(data) as f:
                _, _, it = read_stream(f if demand is None else Demand(f, demand))
                for frame, end in zip(it, ends):
                    assert f.tell() == end, (demand, frame.frame_index)
                assert f.read() == b"tail"

    def test_kept_iframes_survive_the_reader_moving_on(self):
        header, bg, frames = make_stream(frame_count=9, gop_len=4, seed=2)
        with io.BytesIO(stream_to_bytes(header, bg, frames)) as f:
            _, _, it = read_stream(f)
            got = list(it)
        assert got == frames
        assert got[0].intra_payload == frames[0].intra_payload


class SpyFile(io.BytesIO):
    """A file object that records the size of every read asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.asked = []

    def read(self, n=-1):
        self.asked.append(n)
        return super().read(n)


class TestHugeDimensions:
    @pytest.mark.parametrize("flags, body", [
        (0, b"I\x00\x00\x00\x00" + bytes(100)),
        (FLAG_HAS_BACKGROUND, b"B" + bytes(100)),
    ], ids=["iframe", "background"])
    def test_a_header_claiming_huge_frames_fails_fast(self, flags, body):
        data = _HEADER.pack(MAGIC, 2, 65520, 65520, 25, 8, 10, flags) + body
        spy = SpyFile(data)
        for source in (data, spy):
            with pytest.raises(StreamTruncatedError):
                _, _, frames = read_stream(source)
                list(frames)
        assert max(spy.asked) <= _READ_CAP

    def test_a_payload_above_the_cap_is_read_in_capped_pieces(self, monkeypatch):
        header, bg, frames = make_stream(frame_count=3, gop_len=2, seed=4)
        data = stream_to_bytes(header, bg, frames)
        monkeypatch.setattr("mbtrack.stream._READ_CAP", 100)
        spy = SpyFile(data)
        _, _, it = read_stream(spy)
        assert list(it) == frames
        assert max(spy.asked) == 100


@functools.lru_cache(maxsize=None)
def fuzz_stream():
    """A 24-frame, 320x240 stream of two crossing checkers, and the offsets
    of its structural bytes: header, background tag, frame prefixes and
    P-frame flag bytes."""
    a = SceneObject(id=1, w=48, h=48, fill=RED, path=[Waypoint(0, 30, 40), Waypoint(23, 290, 40)])
    b = SceneObject(id=2, w=48, h=48, fill=BLUE, path=[Waypoint(0, 290, 200), Waypoint(23, 30, 200)])
    data, _ = synthesize(SceneScript(width=320, height=240, frame_count=24, gop_len=8,
                                     objects=[a, b]))
    structural = list(range(HEADER_SIZE + 1))
    at = HEADER_SIZE + 1 + 320 * 240 * 3
    _, _, frames = read_stream(data)
    for frame in frames:
        structural += range(at, at + 5)
        at += 5
        if frame.kind == "I":
            at += IntraPayload.byte_size(320, 240)
        else:
            structural += [at + off for off in flag_offsets(frame.mb_grid)]
            at += len(_serialize_pframe(frame.mb_grid))
    assert at == len(data)
    return data, tuple(structural)


class TestWholeStreamFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_only_stream_errors_escape_the_tracker(self, data):
        clean, structural = fuzz_stream()
        offsets = st.sampled_from(structural) | st.integers(0, len(clean) - 1)
        flips = data.draw(st.lists(st.tuples(offsets, st.integers(0, 7)), max_size=4))
        cut = data.draw(st.none() | offsets)
        assume(flips or cut is not None)
        buf = bytearray(clean)
        for at, bit in flips:
            buf[at] ^= 1 << bit
        buf = bytes(buf[:cut])
        for source in (buf, io.BytesIO(buf)):
            try:
                run_tracker(source)
            except StreamError:
                pass


# -- the byte-by-byte P-frame codec, kept as the reference ----------------------

_MB_PAYLOAD = struct.Struct("<Hhh")


def reference_serialize_pframe(grid):
    """The skip map, one flag byte per macroblock, then a record per coded one."""
    out = bytearray()
    for my in range(grid.shape[0]):
        for mx in range(grid.shape[1]):
            out += b"\x01" if grid.skip[my, mx] else b"\x00"
    for my in range(grid.shape[0]):
        for mx in range(grid.shape[1]):
            if not grid.skip[my, mx]:
                out += _MB_PAYLOAD.pack(int(grid.coeff_mask[my, mx]),
                                        int(grid.mv_qpel[my, mx, 0]),
                                        int(grid.mv_qpel[my, mx, 1]))
    return bytes(out)


def _reference_read_exact(src, n, what, frame_index):
    data = src.read(n)
    if len(data) != n:
        raise StreamTruncatedError(
            f"stream ended inside {what}"
            + (f" of frame {frame_index}" if frame_index is not None else ""),
            frame_index=frame_index,
        )
    return data


def reference_parse_pframe(src, rows, cols, frame_index):
    """The flags one byte at a time, then one 6-byte record per coded flag."""
    skip = np.empty((rows, cols), dtype=bool)
    mask = np.zeros((rows, cols), dtype=np.uint16)
    mv = np.zeros((rows, cols, 2), dtype=np.int16)
    for my in range(rows):
        for mx in range(cols):
            flags = _reference_read_exact(src, 1, "macroblock record", frame_index)[0]
            if flags & ~0x01:
                raise StreamInvariantError(
                    f"frame {frame_index}: macroblock ({mx}, {my}) has reserved"
                    f" flag bits {flags:#04x}"
                )
            skip[my, mx] = bool(flags & 0x01)
    for my in range(rows):
        for mx in range(cols):
            if not skip[my, mx]:
                m, vx, vy = _MB_PAYLOAD.unpack(
                    _reference_read_exact(src, 6, "macroblock record", frame_index))
                mask[my, mx] = m
                mv[my, mx, 0] = vx
                mv[my, mx, 1] = vy
    return MacroblockGrid(skip, mask, mv)


@st.composite
def random_grids(draw, max_rows=6, max_cols=6, shape=None,
                 densities=(0.0, 0.1, 0.5, 0.9, 1.0)):
    rows, cols = shape or (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coded = rng.random((rows, cols)) < draw(st.sampled_from(densities))
    grid = MacroblockGrid(
        ~coded,
        np.where(coded, rng.integers(0, 0x10000, (rows, cols)), 0),
        np.where(coded[..., None], rng.integers(-32768, 32768, (rows, cols, 2)), 0),
    )
    # Payload bytes 0x00 and 0x01 look like flags, as a reader that lost
    # its place would see them; make them common.
    if draw(st.booleans()):
        grid.coeff_mask[coded] &= 0x0101
        grid.mv_qpel[coded] &= 0x0101
    return grid


def pframe_stream(grid):
    """A two-frame stream [I, P] whose P-frame is ``grid``. Returns the
    stream bytes and the offset of the P-frame's first flag byte."""
    rows, cols = grid.shape
    header = StreamHeader(width_px=cols * 16, height_px=rows * 16, fps=25, gop_len=2,
                          frame_count=2)
    iframe = encode_iframe(np.zeros((rows * 16, cols * 16, 3), np.uint8))
    frames = [FrameFeatures(0, "I", intra_payload=iframe), FrameFeatures(1, "P", mb_grid=grid)]
    data = stream_to_bytes(header, None, frames)
    return data, HEADER_SIZE + 5 + IntraPayload.byte_size(cols * 16, rows * 16) + 5


def outcome(parse):
    """(grid, None) on success, else (None, (type, message, frame_index))."""
    try:
        return parse(), None
    except (StreamInvariantError, StreamTruncatedError) as err:
        return None, (type(err), str(err), getattr(err, "frame_index", None))


def new_parse(data, as_file):
    def parse():
        _, _, it = read_stream(io.BytesIO(data) if as_file else data)
        return list(it)[1].mb_grid
    return parse


def reference_parse(body, shape):
    return lambda: reference_parse_pframe(io.BytesIO(body), *shape, 1)


def flag_offsets(grid):
    """Byte offset of each macroblock's flag inside the P-frame body: flag k
    sits at offset k."""
    return list(range(grid.skip.size))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(random_grids(), st.booleans())
    def test_parser_and_writer_match_the_record_loop(self, grid, as_file):
        body = reference_serialize_pframe(grid)
        assert _serialize_pframe(grid) == body
        data, at = pframe_stream(grid)
        assert data[at:] == body
        got, err = outcome(new_parse(data, as_file))
        assert err is None
        assert got == reference_parse_pframe(io.BytesIO(body), *grid.shape, 1) == grid

    @settings(max_examples=40, deadline=None)
    @given(random_grids(), st.booleans())
    def test_every_truncation_raises_like_the_record_loop(self, grid, as_file):
        data, at = pframe_stream(grid)
        body = data[at:]
        for cut in range(len(body)):
            got = outcome(new_parse(data[: at + cut], as_file))
            assert got == outcome(reference_parse(body[:cut], grid.shape)), cut

    @settings(max_examples=40, deadline=None)
    @given(random_grids(), st.data())
    def test_every_reserved_flag_byte_raises_like_the_record_loop(self, grid, data):
        stream, at = pframe_stream(grid)
        offsets = flag_offsets(grid)
        where = data.draw(st.sampled_from(offsets))
        for value in range(0x02, 0x100):
            bad = bytearray(stream)
            bad[at + where] = value
            got = outcome(new_parse(bytes(bad), as_file=False))
            assert got == outcome(reference_parse(bytes(bad[at:]), grid.shape)), value
            assert "reserved" in got[1][1]

    def test_synthesized_pframe_fails_like_the_record_loop_everywhere(self):
        obj = SceneObject(id=1, w=48, h=32, fill={"type": "solid", "color": [200, 30, 30]},
                          path=[Waypoint(0, 24, 24), Waypoint(2, 40, 40)])
        script = SceneScript(width=64, height=64, frame_count=3, gop_len=2, objects=[obj])
        data, _ = synthesize(script)
        _, _, it = read_stream(data)
        grid = list(it)[1].mb_grid
        assert 0 < np.count_nonzero(~grid.skip) < grid.skip.size
        body = _serialize_pframe(grid)
        at = data.index(b"P\x01\x00\x00\x00") + 5
        assert data[at : at + len(body)] == body
        for cut in range(len(body)):
            for as_file in (False, True):
                got = outcome(new_parse(data[: at + cut], as_file))
                assert got == outcome(reference_parse(body[:cut], grid.shape)), cut
        for where in flag_offsets(grid):
            for value in range(0x02, 0x100):
                bad = bytearray(data)
                bad[at + where] = value
                got = outcome(new_parse(bytes(bad), as_file=False))
                want = outcome(reference_parse(bytes(bad[at : at + len(body)]), grid.shape))
                assert got == want, (where, value)

    @settings(max_examples=200, deadline=None)
    @given(random_grids(), st.data())
    def test_bad_flag_against_truncation_raises_like_the_record_loop(self, grid, data):
        stream, at = pframe_stream(grid)
        body = bytearray(stream[at:])
        for where in data.draw(st.lists(st.sampled_from(flag_offsets(grid)), max_size=3)):
            body[where] = data.draw(st.integers(0x02, 0xFF))
        cut = data.draw(st.integers(0, len(body)))
        got = outcome(new_parse(stream[:at] + bytes(body[:cut]), data.draw(st.booleans())))
        assert got == outcome(reference_parse(bytes(body[:cut]), grid.shape))


# -- the parse at frame scale: whole grids, back to back, short reads ----------

SOURCES = {
    "bytes": lambda data: data,
    "file": io.BytesIO,
    "trickle": Trickle,
    "pipe": lambda data: io.BufferedReader(Pipe(data), buffer_size=64),
}
FRAME_SCALE_DENSITIES = (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0)


def frame_scale_grids(shape=None):
    return random_grids(30, 40, shape=shape, densities=FRAME_SCALE_DENSITIES)


def scan_frames(data, shape, count, kind):
    """Parse ``count`` P-frames laid back to back in ``data`` with one
    ``_Reader`` over a source of ``kind``: each frame's grid, or the first
    error, and the source's position after each frame (None for bytes)."""
    source = SOURCES[kind](data)
    reader = _Reader(source)
    got, tells = [], []
    for k in range(count):
        got.append(outcome(lambda: _parse_pframe(reader, *shape, k + 1)))
        if got[-1][1] is not None:
            break
        tells.append(None if kind == "bytes" else source.tell())
    return got, tells


def reference_frames(data, shape, count):
    """``scan_frames`` with the byte-by-byte reference reader."""
    source = io.BytesIO(data)
    got, tells = [], []
    for k in range(count):
        got.append(outcome(lambda: reference_parse_pframe(source, *shape, k + 1)))
        if got[-1][1] is not None:
            break
        tells.append(source.tell())
    return got, tells


def assert_scans_like_the_reference(data, shape, count, kinds=tuple(SOURCES)):
    want, want_tells = reference_frames(data, shape, count)
    for kind in kinds:
        got, tells = scan_frames(data, shape, count, kind)
        assert got == want, kind
        if kind != "bytes":
            assert tells == want_tells, kind


class TestScanAtFrameScale:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 40), st.data())
    def test_back_to_back_frames_match_the_record_loop(self, rows, cols, data):
        grids = [data.draw(frame_scale_grids((rows, cols))) for _ in range(3)]
        stream = b"".join(map(reference_serialize_pframe, grids)) + b"tail"
        got, tells = scan_frames(stream, (rows, cols), 3, "file")
        assert [grid for grid, _ in got] == grids
        assert tells[-1] == len(stream) - 4
        assert_scans_like_the_reference(stream, (rows, cols), 3)

    @pytest.mark.parametrize("shape, density, seed", [
        ((30, 40), 0.02, 2), ((30, 40), 0.3, 1), ((12, 16), 0.9, 2), ((1, 40), 1.0, 3),
    ])
    def test_every_cut_raises_like_the_record_loop(self, shape, density, seed):
        rng = np.random.default_rng(seed)
        coded = rng.random(shape) < density
        grid = MacroblockGrid(~coded, np.where(coded, rng.integers(0, 3, shape), 0),
                              np.where(coded[..., None], rng.integers(-1, 2, (*shape, 2)), 0))
        body = reference_serialize_pframe(grid)
        for cut in range(len(body) + 1):
            assert_scans_like_the_reference(body[:cut], shape, 1, ("bytes", "trickle"))
        assert_scans_like_the_reference(body, shape, 1)


# -- a parsed P-frame holds what the wire holds ----------------------------------

def group_tuples(frame):
    return [(g.keys.tolist(), g.size, g.has_nonzero_coeff) for g in cluster_blocks(frame)]


# 1-row and 1-column grids beside square-ish ones; ``random_grids``' densities
# include all skip and all coded.
GRID_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                        st.tuples(st.integers(1, 12), st.just(1)),
                        st.tuples(st.integers(2, 8), st.integers(2, 8)))


class TestParsedGrid:
    def test_parsed_skip_is_read_only_and_a_built_grid_stays_writable(self):
        header, bg, frames = make_stream(seed=5)
        _, _, _, got = roundtrip(header, bg, frames)
        grid = got[1].mb_grid
        for array in (grid.skip, grid.coeff_mask, grid.mv_qpel):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        assert got == frames
        built = frames[1].mb_grid
        built.skip[0, 0] = False
        built.coeff_mask[0, 0] = 7
        built.mv_qpel[0, 0] = (1, -1)
        assert built.coded()[1][0] == 7

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_written_grids_read_back_and_cluster_alike(self, data):
        grid = data.draw(random_grids(shape=data.draw(GRID_SHAPES)))
        stream, _ = pframe_stream(grid)
        parsed = list(read_stream(stream)[2])[1]
        assert np.array_equal(parsed.mb_grid.skip, grid.skip)
        assert np.array_equal(parsed.mb_grid.coeff_mask, grid.coeff_mask)
        assert np.array_equal(parsed.mb_grid.mv_qpel, grid.mv_qpel)
        assert group_tuples(parsed) == group_tuples(FrameFeatures(1, "P", mb_grid=grid))

    def test_parsing_a_1080p_pframe_makes_no_dense_grids(self):
        # 8,160 macroblocks, six coded. Dense mask and motion grids alone
        # would take 6 bytes per macroblock, and a copy of the flag bytes 1
        # more; the parse holds the flag bytes as read, one bool temporary
        # to find the coded ones, and the records.
        rows, cols = 68, 120
        coded = {(3, 5): (0x0101, 1, -1), (3, 6): (0, 0, 0), (40, 100): (0x8000, 4, 4),
                 (67, 119): (1, -8, 0), (0, 0): (0xFFFF, 0, 2), (20, 60): (2, 3, 3)}
        grid = make_grid(rows, cols, coded)
        body = _serialize_pframe(grid)
        reader = _Reader(body)
        tracemalloc.start()
        try:
            parsed = _parse_pframe(reader, rows, cols, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == grid
        assert peak < 3 * rows * cols
