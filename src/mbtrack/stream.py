"""MBFS container: macroblock features for P-frames, coded pixels for I-frames.

Byte layout (all integers little-endian):

    header   [magic "MBFS"][version u16][width u16][height u16]
             [fps u8][gop_len u8][frame_count u32][flags u16]
    flags bit 0 set -> a background chunk follows the header:
             [tag 'B'][raw RGB24, width*height*3 bytes]
    frames, in display order, each starting with
             [tag 'P' or 'I'][frame_index u32]

    P-frame  a skip map, then the coded records, both in raster order:
             [flags u8] per macroblock           bit 0 = skip
             [coeff_mask u16][mv_x i16][mv_y i16] per 0x00 flag
    I-frame  an intra payload (see intra.py): planes R, G, B, each
             (W/4)*(H/4) blocks of [mode u8][16 x residual i16]

Structural rules: width and height are positive multiples of 16, gop_len
is 2..10, frame i is an I-frame exactly when i % gop_len == 0, and
frame_index values are contiguous from 0. A skip macroblock carries no
coefficients and no motion, which the wire format makes unrepresentable;
the writer checks it of an in-memory grid (``MacroblockGrid.validate``).

A parsed P-frame is as sparse as its records: its grid keeps the flag
bytes as a read-only ``skip`` and the coded macroblocks' raster indices
and payloads, and makes the dense ``coeff_mask`` and ``mv_qpel`` only
when something reads them.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .intra import IntraFormatError, IntraPayload

MAGIC = b"MBFS"
FORMAT_VERSION = 2
FLAG_HAS_BACKGROUND = 0x0001
MB = 16  # macroblock edge in pixels

_HEADER = struct.Struct("<4sHHHBBIH")
_FRAME_PREFIX = struct.Struct("<cI")
# A coded macroblock's record: [coeff_mask u16][mv_x i16][mv_y i16].
_MB_PAYLOAD = np.dtype([("coeff_mask", "<u2"), ("mv", "<i2", (2,))])
# The most a reader asks of a file object at once. Above the largest
# I-frame payload of common sizes (12.9 MB at 1920x1088), so a payload is
# one read; a header claiming huge dimensions cannot make one huge request.
_READ_CAP = 16 << 20


class StreamError(Exception):
    """Base class for MBFS container errors."""


class StreamFormatError(StreamError):
    """Bad magic, bad version, a header field outside its legal range, or
    an I-frame payload the intra codec rejects."""


class StreamTruncatedError(StreamError):
    """The byte source ended mid-structure."""

    def __init__(self, message: str, frame_index: int | None = None):
        super().__init__(message)
        self.frame_index = frame_index


class StreamInvariantError(StreamError):
    """Structurally well-formed bytes that violate a stream rule."""


@dataclass(frozen=True)
class StreamHeader:
    width_px: int
    height_px: int
    fps: int
    gop_len: int
    frame_count: int
    flags: int = 0
    version: int = FORMAT_VERSION

    @property
    def mb_cols(self) -> int:
        return self.width_px // MB

    @property
    def mb_rows(self) -> int:
        return self.height_px // MB

    @property
    def has_background(self) -> bool:
        return bool(self.flags & FLAG_HAS_BACKGROUND)

    def frame_kind(self, index: int) -> str:
        return "I" if index % self.gop_len == 0 else "P"

    def check_frame(self, index: int, kind: str, expected: int) -> None:
        """The frame-sequence rule, for writer and reader alike: frame
        ``index`` of ``kind`` comes where frame ``expected`` is due, and
        its kind follows the GOP structure."""
        if index != expected:
            raise StreamInvariantError(f"frame index {index} out of order (expected {expected})")
        want = self.frame_kind(index)
        if kind != want:
            raise StreamInvariantError(
                f"frame {index} is {kind!r} but GOP structure requires {want!r}")

    def validate(self) -> None:
        if self.version != FORMAT_VERSION:
            raise StreamFormatError(f"unsupported version {self.version}")
        w, h = self.width_px, self.height_px
        if w <= 0 or w % MB or h <= 0 or h % MB:
            raise StreamFormatError(f"canvas {w}x{h} must be positive multiples of {MB}")
        if not (0 < self.fps <= 255):
            raise StreamFormatError(f"fps {self.fps} out of range")
        if not (2 <= self.gop_len <= 10):
            raise StreamFormatError(f"gop_len {self.gop_len} must be in 2..10")
        if self.frame_count < 1:
            raise StreamFormatError("frame_count must be at least 1")


@dataclass(frozen=True)
class BackgroundChunk:
    """Reference background image shipped ahead of the frames.

    ``read_stream`` gives ``rgb`` as a view of the bytes it read for the
    chunk, read-only as an I-frame payload's blocks are: one frame-sized
    buffer, not a copy beside it. Code that must write a reference takes
    its own copy.
    """

    rgb: np.ndarray  # (H, W, 3) uint8

    def __eq__(self, other):
        if not isinstance(other, BackgroundChunk):
            return NotImplemented
        return np.array_equal(self.rgb, other.rgb)


class MacroblockGrid:
    """The (rows, cols) macroblock features of one P-frame.

    skip:       bool
    coeff_mask: uint16
    mv_qpel:    int16, shape (rows, cols, 2), quarter-pel units

    A grid built from dense arrays (the encoder, the noise injector,
    tests) holds them as given, and its callers may write them. A grid
    that ``read_stream`` parsed holds what the wire holds: ``skip`` as a
    read-only view of the parsed flag bytes, and the coded macroblocks'
    raster indices and payload records. Its ``coeff_mask`` and
    ``mv_qpel`` are made dense, read-only, when first read; the tracker
    reads neither, only ``coded()``.
    """

    def __init__(self, skip, coeff_mask, mv_qpel):
        self.skip = np.asarray(skip, dtype=bool)
        self._mask = np.asarray(coeff_mask, dtype=np.uint16)
        self._mv = np.asarray(mv_qpel, dtype=np.int16)
        self._coded = None  # a parsed grid's (raster indices, payload records)
        rows, cols = self.skip.shape
        if self._mask.shape != (rows, cols) or self._mv.shape != (rows, cols, 2):
            raise ValueError("macroblock feature arrays disagree on grid shape")

    @classmethod
    def _parsed(cls, skip, index, payload) -> "MacroblockGrid":
        """A parsed grid: read-only ``skip``, and the coded macroblocks'
        raster indices with their ``_MB_PAYLOAD`` records."""
        grid = cls.__new__(cls)
        grid.skip, grid._mask, grid._mv, grid._coded = skip, None, None, (index, payload)
        return grid

    def _dense(self, name: str) -> np.ndarray:
        """Payload field ``name`` as a read-only dense grid, zero at skip cells."""
        index, payload = self._coded
        values = payload[name]
        out = np.zeros((self.skip.size, *values.shape[1:]), dtype=values.dtype)
        out[index] = values
        out.flags.writeable = False
        return out.reshape(*self.skip.shape, *values.shape[1:])

    @property
    def coeff_mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = self._dense("coeff_mask")
        return self._mask

    @property
    def mv_qpel(self) -> np.ndarray:
        if self._mv is None:
            self._mv = self._dense("mv")
        return self._mv

    def coded(self) -> tuple[np.ndarray, np.ndarray]:
        """The raster indices of the coded (non-skip) macroblocks, in raster
        order, and their coefficient masks. A parsed grid answers from what
        it parsed; a dense one from its arrays as they are now."""
        if self._coded is not None:
            index, payload = self._coded
            return index, payload["coeff_mask"]
        index = (~self.skip).ravel().nonzero()[0]
        return index, self._mask.ravel()[index]

    @property
    def shape(self) -> tuple[int, int]:
        return self.skip.shape

    @classmethod
    def all_skip(cls, rows: int, cols: int) -> "MacroblockGrid":
        return cls(
            np.ones((rows, cols), dtype=bool),
            np.zeros((rows, cols), dtype=np.uint16),
            np.zeros((rows, cols, 2), dtype=np.int16),
        )

    def validate(self) -> None:
        bad = self.skip & ((self.coeff_mask != 0) | np.any(self.mv_qpel != 0, axis=2))
        if np.any(bad):
            my, mx = np.argwhere(bad)[0]
            raise StreamInvariantError(
                f"skip macroblock ({int(mx)}, {int(my)}) with coefficients or motion"
            )

    def __eq__(self, other):
        if not isinstance(other, MacroblockGrid):
            return NotImplemented
        return (
            np.array_equal(self.skip, other.skip)
            and np.array_equal(self.coeff_mask, other.coeff_mask)
            and np.array_equal(self.mv_qpel, other.mv_qpel)
        )


@dataclass
class FrameFeatures:
    """One frame of the stream: features for P, coded pixels for I."""

    frame_index: int
    kind: str  # "I" or "P"
    mb_grid: MacroblockGrid | None = None
    intra_payload: IntraPayload | None = None

    def validate(self) -> None:
        if self.kind == "P":
            if self.mb_grid is None or self.intra_payload is not None:
                raise StreamInvariantError(f"frame {self.frame_index}: P-frame payload mismatch")
        elif self.kind == "I":
            if self.intra_payload is None or self.mb_grid is not None:
                raise StreamInvariantError(f"frame {self.frame_index}: I-frame payload mismatch")
        else:
            raise StreamInvariantError(f"frame {self.frame_index}: unknown kind {self.kind!r}")

    def __eq__(self, other):
        if not isinstance(other, FrameFeatures):
            return NotImplemented
        return (
            self.frame_index == other.frame_index
            and self.kind == other.kind
            and self.mb_grid == other.mb_grid
            and self.intra_payload == other.intra_payload
        )


def _serialize_pframe(grid: MacroblockGrid) -> bytes:
    skip = grid.skip.ravel()
    coded = np.flatnonzero(~skip)
    payload = np.empty(coded.size, dtype=_MB_PAYLOAD)
    payload["coeff_mask"] = grid.coeff_mask.ravel()[coded]
    payload["mv"] = grid.mv_qpel.reshape(-1, 2)[coded]
    return skip.astype(np.uint8).tobytes() + payload.tobytes()


def write_stream(header: StreamHeader, background: BackgroundChunk | None,
                 frames: Iterable[FrameFeatures], sink: BinaryIO) -> int:
    """Serialize a stream. Returns the number of bytes written.

    Frames are validated against the header as they are consumed: indices
    must run 0..frame_count-1 and each frame's kind must agree with the
    GOP structure. Each frame is written before the next is asked for, so
    a generator of frames is streamed. A P-frame is written as its skip
    map, one flag byte per macroblock, then one record per coded
    macroblock, so a reader learns the records' length from the flags.
    The background and I-frame payloads in the wire layout (see
    ``IntraPayload.wire``) are written as they are, without a copy.
    """
    header.validate()
    if header.has_background != (background is not None):
        raise StreamInvariantError("background flag does not match background presence")

    written = 0

    def put(b):  # bytes or a flat uint8 array
        nonlocal written
        sink.write(b)
        written += len(b)

    put(_HEADER.pack(MAGIC, header.version, header.width_px, header.height_px,
                     header.fps, header.gop_len, header.frame_count, header.flags))

    if background is not None:
        bg = np.asarray(background.rgb)
        if bg.shape != (header.height_px, header.width_px, 3) or bg.dtype != np.uint8:
            raise StreamInvariantError("background chunk does not match frame dimensions")
        put(b"B")
        put(bg.reshape(-1))

    expected = 0
    for frame in frames:
        header.check_frame(frame.frame_index, frame.kind, expected)
        frame.validate()
        put(_FRAME_PREFIX.pack(frame.kind.encode(), frame.frame_index))
        if frame.kind == "P":
            if frame.mb_grid.shape != (header.mb_rows, header.mb_cols):
                raise StreamInvariantError(
                    f"frame {frame.frame_index}: grid shape {frame.mb_grid.shape}"
                    f" does not match header"
                )
            frame.mb_grid.validate()
            put(_serialize_pframe(frame.mb_grid))
        else:
            pl = frame.intra_payload
            if (pl.width_px, pl.height_px) != (header.width_px, header.height_px):
                raise StreamInvariantError(
                    f"frame {frame.frame_index}: intra payload size mismatch"
                )
            put(pl.wire())
        expected += 1

    if expected != header.frame_count:
        raise StreamInvariantError(
            f"header promises {header.frame_count} frames, got {expected}"
        )
    return written


def stream_to_bytes(header: StreamHeader, background: BackgroundChunk | None,
                    frames: Iterable[FrameFeatures]) -> bytes:
    buf = io.BytesIO()
    write_stream(header, background, frames, buf)
    return buf.getvalue()


@dataclass(frozen=True)
class Demand:
    """A byte source (bytes or a binary file object), and what of each
    I-frame its reader's caller will decode.

    ``regions()`` returns the (bx0, by0, nbx, nby) block regions of the
    next I-frame that will be decoded, or None for the whole frame. The
    reader calls it as it reaches each I-frame payload, so it may answer
    from state that the frames before have built. A source that cannot
    seek is read whole, and ``regions`` is never called.
    """

    file: object
    regions: Callable[[], list[tuple[int, int, int, int]] | None]


def _truncated(what: str, frame_index: int | None) -> StreamTruncatedError:
    return StreamTruncatedError(
        f"stream ended inside {what}"
        + (f" of frame {frame_index}" if frame_index is not None else ""),
        frame_index=frame_index,
    )


class _Reader:
    """Forward-only reader over bytes or a binary file object.

    Bytes are read through ``io.BytesIO``, so both take one path. The
    reader holds no bytes of its own: ``pull(n)`` asks the source for n
    bytes at most, and every structure's length is known before it is
    pulled (a P-frame's records from its flag bytes). So the reader never
    reads past the frame being parsed, and nothing is left over when a
    frame ends. A whole I-frame payload is one ``read`` from the source
    into a bytes object of its own, with no copy; ``sparse`` reads only
    some of its blocks from a seekable source and seeks over the rest.
    Whether the source can seek is asked once, when the reader is made.
    """

    def __init__(self, source):
        if isinstance(source, (bytes, bytearray)):
            source = io.BytesIO(source)
        self._src = source
        self.seekable = getattr(source, "seekable", lambda: False)()
        self._size = None  # the seekable source's length, once ``sparse`` needs it

    def pull(self, n: int) -> bytes:
        """Up to n bytes from the source; fewer only at its end.
        Each read asks for at most ``_READ_CAP`` bytes."""
        parts = []
        while n > 0:
            data = self._src.read(min(n, _READ_CAP))
            if not data:
                break
            parts.append(data)
            n -= len(data)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read(self, n: int, what: str, frame_index: int | None) -> bytes:
        """Exactly the next n bytes, as a bytes object of their own."""
        data = self.pull(n)
        if len(data) != n:
            raise _truncated(what, frame_index)
        return data

    def sparse(self, width: int, height: int, regions, frame_index: int) -> IntraPayload:
        """The next I-frame payload, holding only the blocks of ``regions``
        (see ``IntraPayload.sparse``), then a seek to the payload's end.

        The source must be seekable; since the reader holds no bytes, it
        stands at the payload. A payload that the source's length, taken
        once per stream, cannot hold is truncation before anything is
        allocated or read, wherever in the payload the source ends. Each
        read loops on short reads and asks for at most ``_READ_CAP`` bytes.
        """
        src = self._src
        start = src.tell()
        if self._size is None:
            self._size = src.seek(0, io.SEEK_END)
        end = start + IntraPayload.byte_size(width, height)
        if end > self._size:
            raise _truncated("intra payload", frame_index)

        def read_into(offset: int, view: memoryview) -> None:
            src.seek(start + offset)
            while view:
                got = src.readinto(view[:_READ_CAP])
                if not got:
                    raise _truncated("intra payload", frame_index)
                view = view[got:]

        payload = IntraPayload.sparse(width, height, regions, read_into)
        src.seek(end)
        return payload


def _parse_pframe(reader: _Reader, rows: int, cols: int, frame_index: int) -> MacroblockGrid:
    """Parse one P-frame in two reads whose lengths are known before they
    are made: the n flag bytes, then one 6-byte record per coded flag.

    One ``translate`` checks the flags. Among the flag bytes present, the
    first with a reserved bit is an error naming its macroblock, which
    beats truncation; a frame that ends anywhere in its flags or records
    is truncation. The reader never pulls past the frame.

    The grid holds what the wire holds (``MacroblockGrid._parsed``): the
    flag bytes, read-only, as ``skip``, and the coded records' raster
    indices and payloads, a view of the bytes read for them. No dense
    mask or motion grid is made here.
    """
    n = rows * cols
    flags = reader.pull(n)
    bad = flags.translate(None, b"\x00\x01")  # reserved bits on a flag byte
    if bad:
        my, mx = divmod(flags.index(bad[0]), cols)
        raise StreamInvariantError(
            f"frame {frame_index}: macroblock ({mx}, {my}) has reserved"
            f" flag bits {bad[0]:#04x}"
        )
    if len(flags) < n:
        raise _truncated("macroblock record", frame_index)

    skip = np.frombuffer(flags, dtype=bool)
    skip.flags.writeable = False
    index = (~skip).nonzero()[0]
    index.flags.writeable = False
    records = reader.read(_MB_PAYLOAD.itemsize * index.size, "macroblock record", frame_index)
    payload = np.frombuffer(records, dtype=_MB_PAYLOAD)
    return MacroblockGrid._parsed(skip.reshape(rows, cols), index, payload)


def read_stream(source) -> tuple[StreamHeader, BackgroundChunk | None, Iterator[FrameFeatures]]:
    """Parse an MBFS byte source (bytes, a binary file object, or a
    ``Demand`` over either).

    Returns (header, background or None, frame iterator). Frames are
    parsed and validated lazily as the iterator is consumed; errors are
    raised from the iterator at the offending frame. A parse failure
    never yields a partial frame.

    A file object is streamed, never read whole, and never read past the
    frame being parsed: the reader pulls each structure exactly and holds
    no bytes between frames, so besides the frames it has yielded it
    holds at most the P-frame (up to 7 bytes per macroblock) or I-frame
    payload being parsed, however long the stream is. Each I-frame
    payload owns its blocks, so frames stay valid after the iterator
    moves on, and the iterator keeps none it has yielded: an I-frame its
    caller drops is freed before the next one is read. The background
    chunk's ``rgb`` is a read-only view of the bytes read for it, as a
    whole I-frame payload's blocks are of theirs.

    Without a ``Demand``, over a source that cannot seek, or when its
    ``regions()`` is None, an I-frame payload is read whole and every
    mode byte in it is checked; ``regions()`` is called only for a
    seekable source, once per I-frame as the reader reaches it. Otherwise
    it holds, and allocates, only the bands of block rows that cover the
    demanded regions (``_Reader.sparse``): a block outside them is never
    read, so its mode is never checked, while truncation anywhere in the
    payload is still caught at that I-frame. Such a payload is the
    demanding caller's to release once decoded
    (``IntraPayload.release``), as ``run_tracker``'s tracker does.
    """
    demand = source if isinstance(source, Demand) else None
    reader = _Reader(source.file if demand else source)
    if not reader.seekable:
        demand = None  # read whole: a sparse read seeks over the blocks it skips

    raw = reader.read(_HEADER.size, "header", None)
    magic, version, width, height, fps, gop_len, frame_count, flags = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    header = StreamHeader(width_px=width, height_px=height, fps=fps, gop_len=gop_len,
                          frame_count=frame_count, flags=flags, version=version)
    header.validate()

    background = None
    if header.has_background:
        tag = reader.read(1, "background chunk tag", None)
        if tag != b"B":
            raise StreamFormatError(f"expected background chunk, found tag {tag!r}")
        raw = reader.read(width * height * 3, "background chunk", None)
        background = BackgroundChunk(np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3))

    intra_size = IntraPayload.byte_size(width, height)

    def intra_payload(frame_index: int) -> IntraPayload:
        regions = demand.regions() if demand else None
        try:
            if regions is None:
                return IntraPayload.from_bytes(
                    reader.read(intra_size, "intra payload", frame_index), width, height)
            return reader.sparse(width, height, regions, frame_index)
        except IntraFormatError as err:
            raise StreamFormatError(f"frame {frame_index}: {err}") from err

    def frames() -> Iterator[FrameFeatures]:
        # No local holds a frame's data across a yield: a frame the caller
        # has dropped is freed before the next one is read.
        for expected in range(frame_count):
            prefix = reader.read(_FRAME_PREFIX.size, "frame prefix", expected)
            tag, frame_index = _FRAME_PREFIX.unpack(prefix)
            kind = tag.decode("ascii", errors="replace")
            if kind not in ("I", "P"):
                raise StreamFormatError(f"frame {expected}: unknown frame tag {tag!r}")
            header.check_frame(frame_index, kind, expected)
            if kind == "P":
                yield FrameFeatures(frame_index, "P", mb_grid=_parse_pframe(
                    reader, header.mb_rows, header.mb_cols, frame_index))
            else:
                yield FrameFeatures(frame_index, "I", intra_payload=intra_payload(frame_index))

    return header, background, frames()


def open_source(source):
    """A context manager giving a readable source: a path is opened (and
    closed on exit); bytes and file objects pass through untouched."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    return contextlib.nullcontext(source)
