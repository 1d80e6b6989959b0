"""Sparse I-frame reads: ``run_tracker`` on a seekable source reads only
the block rows it will decode, and the stream contract holds for what it
reads.

Behaviour new with the sparse read, which the parent read path does not
have: a bad mode byte in a block that no rect covers goes unread and
unchecked, the bytes read per I-frame follow the tracked rects, and a
sparse payload refuses to decode a region it did not read.
"""

import functools
import io
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbtrack import pipeline
from mbtrack.intra import (
    BLOCK,
    IntraPayload,
    ReleasedPayloadError,
    block_region,
    decode_full,
    decode_regions_partial,
    encode_iframe,
)
from mbtrack.cli import main
from mbtrack.pipeline import Tracker, TrackerConfig, run_tracker
from mbtrack.scene import synthesize
from mbtrack.stream import (
    Demand,
    StreamFormatError,
    StreamTruncatedError,
    _serialize_pframe,
    read_stream,
)

from scenes import NOISE_SEED, crossing_scene, lanes_script, single_object_scene
from test_stream import HEADER_SIZE, Pipe

FRAME = 16  # an I-frame at which the single object is tracked


@functools.lru_cache(maxsize=None)
def single_object_stream() -> bytes:
    """One 48x48 checker crossing a 320x160 frame at y = 80, 40 frames."""
    return synthesize(single_object_scene(frame_count=40))[0]


def iframe_offsets(data: bytes) -> dict[int, int]:
    """The stream offset of each I-frame's payload."""
    header, _, frames = read_stream(data)
    at = HEADER_SIZE + (1 + header.width_px * header.height_px * 3
                        if header.has_background else 0)
    out = {}
    for frame in frames:
        at += 5
        if frame.kind == "I":
            out[frame.frame_index] = at
            at += IntraPayload.byte_size(header.width_px, header.height_px)
        else:
            at += len(_serialize_pframe(frame.mb_grid))
    return out


def demanded(data: bytes, monkeypatch) -> dict[int, list]:
    """The block regions the tracker demands at each I-frame of ``data``."""
    asked = []
    real = Tracker.iframe_regions

    def spy(self):
        asked.append(real(self))
        return asked[-1]

    monkeypatch.setattr(Tracker, "iframe_regions", spy)
    run_tracker(data)
    monkeypatch.undo()
    return dict(zip(iframe_offsets(data), asked))


def block_offset(data: bytes, frame: int, plane: int, row: int, col: int) -> int:
    """The stream offset of a block's mode byte in I-frame ``frame``."""
    header = read_stream(data)[0]
    nbx, nby = header.width_px // BLOCK, header.height_px // BLOCK
    return iframe_offsets(data)[frame] + ((plane * nby + row) * nbx + col) * 33


def rows_of(regions) -> set[int]:
    return {r for _, by0, _, nby in regions for r in range(by0, by0 + nby)}


def as_json(result) -> tuple[list, list]:
    return ([json.dumps(r.to_json_dict(), sort_keys=True) for r in result.records],
            [json.dumps(e.to_json_dict(), sort_keys=True) for e in result.events])


def with_byte(data: bytes, at: int, value: int) -> bytes:
    buf = bytearray(data)
    buf[at] = value
    return bytes(buf)


def source(kind: str, data: bytes, tmp_path):
    """``data`` as a path, a file object or bytes."""
    if kind == "path":
        path = tmp_path / "s.mbfs"
        path.write_bytes(data)
        return path
    return io.BytesIO(data) if kind == "file" else data


class RangeSpy(io.BytesIO):
    """A file object that records the stream range of every read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.ranges = []

    def read(self, n=-1):
        at = self.tell()
        out = super().read(n)
        self.ranges.append((at, at + len(out)))
        return out

    def readinto(self, b):
        at = self.tell()
        got = super().readinto(b)
        self.ranges.append((at, at + got))
        return got


class TestTrackerDemand:
    def test_the_tracker_demands_the_rects_it_decodes(self, monkeypatch):
        data = single_object_stream()
        regions = demanded(data, monkeypatch)
        assert regions[0] == []  # a background chunk ships: nothing is tracked yet
        assert rows_of(regions[FRAME]) and max(rows_of(regions[FRAME])) < 35

    @pytest.mark.parametrize("kind", ["path", "file", "bytes"])
    def test_truncation_inside_a_skipped_block_names_the_iframe(self, kind, tmp_path,
                                                               monkeypatch):
        data = single_object_stream()
        cut = block_offset(data, FRAME, 2, 39, 40)  # plane B, bottom row: never read
        assert 39 not in rows_of(demanded(data, monkeypatch)[FRAME])
        with pytest.raises(StreamTruncatedError, match="intra payload") as err:
            run_tracker(source(kind, data[:cut], tmp_path))
        assert err.value.frame_index == FRAME

    def test_bad_mode_inside_a_decoded_rect_raises(self, monkeypatch):
        data = single_object_stream()
        (bx0, by0, _, _), = demanded(data, monkeypatch)[FRAME]
        bad = with_byte(data, block_offset(data, FRAME, 1, by0 + 2, bx0 + 3), 7)
        with pytest.raises(StreamFormatError, match=f"frame {FRAME}: unknown prediction mode"):
            run_tracker(bad)

    @pytest.mark.parametrize("frame, plane, row, col, mode", [
        (FRAME, 0, 35, 0, 7),  # below the only rect
        (FRAME, 2, 36, 5, 0),  # mode 0 off the origin, below the only rect
        (0, 0, 0, 0, 1),  # frame 0 demands nothing: block (0, 0) is never read
    ], ids=["below-the-rect", "mode-0-below-the-rect", "origin-of-frame-0"])
    def test_bad_mode_outside_every_rect_leaves_the_records_unchanged(
            self, frame, plane, row, col, mode, monkeypatch):
        data = single_object_stream()
        assert row not in rows_of(demanded(data, monkeypatch)[frame])
        bad = with_byte(data, block_offset(data, frame, plane, row, col), mode)
        assert as_json(run_tracker(bad)) == as_json(run_tracker(data))

    def test_each_iframe_is_planned_once(self, monkeypatch):
        data = single_object_stream()
        calls = []
        real = Tracker._plan

        def spy(self):
            calls.append(self.last_index)
            return real(self)

        monkeypatch.setattr(Tracker, "_plan", spy)
        plain = run_tracker(data)
        assert len(calls) == len(iframe_offsets(data))
        monkeypatch.undo()
        assert as_json(plain) == as_json(run_tracker(data))

    def test_read_stream_without_a_demand_still_rejects_both(self):
        data = single_object_stream()
        truncated = data[:block_offset(data, FRAME, 2, 39, 40)]
        bad_mode = with_byte(data, block_offset(data, FRAME, 0, 35, 0), 7)
        with pytest.raises(StreamTruncatedError) as err:
            list(read_stream(truncated)[2])
        assert err.value.frame_index == FRAME
        with pytest.raises(StreamFormatError, match=f"frame {FRAME}: unknown prediction mode"):
            list(read_stream(bad_mode)[2])

    def test_an_unseekable_source_gives_what_a_file_gives(self):
        """The pipe is read whole, the file sparsely: the same records and events."""
        data, _ = synthesize(crossing_scene())
        with io.BufferedReader(Pipe(data), buffer_size=4096) as pipe:
            assert not pipe.seekable()
            piped = run_tracker(pipe)
        spy = RangeSpy(data)
        assert as_json(piped) == as_json(run_tracker(spy))
        assert sum(b - a for a, b in spy.ranges) < len(data)

    def test_a_demand_over_an_unseekable_source_reads_it_whole(self):
        """The reader never asks a pipe for regions: it reads every
        I-frame whole, as from the bare pipe."""
        data = single_object_stream()

        def regions():
            raise AssertionError("regions asked of an unseekable source")

        with io.BufferedReader(Pipe(data)) as pipe:
            demanded = list(read_stream(Demand(pipe, regions))[2])
        with io.BufferedReader(Pipe(data)) as pipe:
            assert demanded == list(read_stream(pipe)[2])
        iframes = [f.intra_payload for f in demanded if f.kind == "I"]
        assert iframes and all(payload.mask is None for payload in iframes)


@pytest.mark.parametrize("regions", [None, [(0, 0, 4, 4)]], ids=["whole", "sparse"])
def test_a_dropped_iframe_is_freed_before_the_next_is_read(regions):
    """The reader keeps no I-frame it has yielded: once the caller drops
    one, its payload is gone by the time the next I-frame is read."""
    payloads = []  # a weakref to the payload of each I-frame yielded so far

    def demand():
        assert [ref() for ref in payloads] == [None] * len(payloads)
        return regions

    for frame in read_stream(Demand(io.BytesIO(single_object_stream()), demand))[2]:
        if frame.kind == "I":
            payloads.append(weakref.ref(frame.intra_payload))
    assert len(payloads) == 5


@pytest.mark.parametrize("read", ["sparse", "full-decode", "pipe"])
def test_a_demanded_payload_is_freed_before_refinement(monkeypatch, read):
    """``run_tracker`` frees the I-frame payload it demanded once the batch
    is decoded, so refinement runs without it; a payload read whole, under
    full decode or from a pipe, is never touched."""
    blocks, alive = [], []
    decode, refine = pipeline.decode_region_partial, pipeline.refine_object

    def spy_decode(payload, rects, background):
        blocks.append(weakref.ref(payload._blocks))
        return decode(payload, rects, background)

    def spy_refine(*args):
        alive.append(blocks[-1]() is not None)
        return refine(*args)

    monkeypatch.setattr(pipeline, "decode_region_partial", spy_decode)
    monkeypatch.setattr(pipeline, "refine_object", spy_refine)
    data = single_object_stream()
    if read == "pipe":
        with io.BufferedReader(Pipe(data)) as pipe:
            run_tracker(pipe)
    else:
        run_tracker(data, TrackerConfig(full_decode=read == "full-decode"))
    assert len(alive) == 3
    assert alive == [read != "sparse"] * 3


def test_a_noise_only_scene_reads_under_a_tenth_of_its_iframe_bytes():
    """The benchmark's noise-only scene, 640x480 with lane noise and no
    objects: a few noise clusters get tracked, so some I-frame bytes are
    read, few of them."""
    data, _ = synthesize(lanes_script(NOISE_SEED, objects=False))
    spy = RangeSpy(data)
    result = run_tracker(spy)
    assert result.metrics["blocks_decoded_ratio"] > 0
    size = IntraPayload.byte_size(640, 480)
    payloads = [(at, at + size) for at in iframe_offsets(data).values()]
    read = sum(max(0, min(b, q) - max(a, p)) for a, b in spy.ranges for p, q in payloads)
    assert 0 < read < 0.1 * size * len(payloads)


# -- the sparse payload ------------------------------------------------------------


def sparse_payload(whole: IntraPayload, regions) -> IntraPayload:
    wire = whole.wire()

    def read_into(offset, view):
        view[:] = wire[offset : offset + len(view)]

    return IntraPayload.sparse(whole.width_px, whole.height_px, regions, read_into)


def reference_mask(regions, nbx, nby) -> np.ndarray:
    """The blocks a sparse read holds, row by row: each run of demanded
    rows is one raster run, from its first row's leftmost demanded block
    to its last row's rightmost one."""
    lo, hi = [nbx] * nby, [0] * nby
    for bx0, by0, w, h in regions:
        for r in range(by0, by0 + h):
            lo[r], hi[r] = min(lo[r], bx0), max(hi[r], bx0 + w)
    mask = np.zeros(nby * nbx, dtype=bool)
    r = 0
    while r < nby:
        if hi[r]:
            first = r * nbx + lo[r]
            while r + 1 < nby and hi[r + 1]:
                r += 1
            mask[first : r * nbx + hi[r]] = True
        r += 1
    return mask.reshape(nby, nbx)


@st.composite
def block_regions(draw, nbx=16, nby=12):
    bx0, by0 = draw(st.integers(0, nbx - 1)), draw(st.integers(0, nby - 1))
    return (bx0, by0, draw(st.integers(1, nbx - bx0)), draw(st.integers(1, nby - by0)))


class TestSparsePayload:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_regions(), max_size=4), st.integers(0, 2**32 - 1))
    def test_a_region_it_read_decodes_as_from_the_whole_payload(self, regions, seed):
        rng = np.random.default_rng(seed)
        whole = encode_iframe(rng.integers(0, 256, (48, 64, 3), dtype=np.uint8))
        background = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
        sparse = sparse_payload(whole, regions)
        assert np.array_equal(sparse.mask, reference_mask(regions, 16, 12))
        rects = [(4 * bx0, 4 * by0, 4 * nbx, 4 * nby) for bx0, by0, nbx, nby in regions]
        got = decode_regions_partial(sparse, rects, background)
        assert got == decode_regions_partial(whole, rects, background)

    def test_a_region_it_did_not_read_raises(self):
        whole = encode_iframe(np.full((48, 64, 3), 90, dtype=np.uint8))
        sparse = sparse_payload(whole, [(2, 3, 4, 2)])  # block rows 3-4, columns 2-5
        background = np.zeros((48, 64, 3), dtype=np.uint8)
        band = np.zeros(12 * 16, dtype=bool)
        band[3 * 16 + 2 : 4 * 16 + 6] = True  # one raster run from (2, 3) to (5, 4)
        assert np.array_equal(sparse.mask, band.reshape(12, 16))
        with pytest.raises(ValueError, match="not all in the sparse payload"):
            decode_regions_partial(sparse, [(8, 20, 16, 8)], background)  # rows 5-6
        with pytest.raises(ValueError, match="not all in the sparse payload"):
            decode_full(sparse)
        with pytest.raises(ValueError, match="sparse"):
            sparse.wire()
        with pytest.raises(ValueError, match="sparse"):
            sparse == whole  # noqa: B015

    def test_a_1080p_payload_for_one_rect_allocates_only_its_band(self):
        """One 64x64 rect of a 1920x1088 frame: the payload allocates its 16
        block rows, whole in every plane (760,320 B), not the frame's
        12.9 MB of blocks."""
        image = np.random.default_rng(2).integers(0, 256, (1088, 1920, 3), dtype=np.uint8)
        whole = encode_iframe(image)
        rect = (800, 500, 64, 64)
        region = block_region(rect)
        tracemalloc.start()
        try:
            sparse = sparse_payload(whole, [region])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = 3 * region[3] * (1920 // BLOCK) * 33
        assert peak < 1.25 * band
        background = np.zeros_like(image)
        got = decode_regions_partial(sparse, [rect], background)
        assert got == decode_regions_partial(whole, [rect], background)

    def test_a_released_payload_raises_a_typed_error(self):
        whole = encode_iframe(np.full((48, 64, 3), 90, dtype=np.uint8))
        background = np.zeros((48, 64, 3), dtype=np.uint8)
        for payload in (sparse_payload(whole, [(2, 3, 4, 2)]), whole):
            rects = [(8, 12, 16, 8)]
            decode_regions_partial(payload, rects, background)
            payload.release()
            with pytest.raises(ReleasedPayloadError, match="released"):
                decode_regions_partial(payload, rects, background)
            with pytest.raises(ReleasedPayloadError, match="released"):
                decode_full(payload)
            with pytest.raises(ReleasedPayloadError, match="released"):
                payload.mask  # noqa: B018
        with pytest.raises(ReleasedPayloadError, match="released"):
            whole.wire()


class TestCliOverlay:
    def test_a_bad_block_only_the_overlay_reads_is_a_usage_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        """Tracking reads only the tracked rects, the overlay every block:
        a bad mode below the only rect fails before any output is written."""
        data = single_object_stream()
        assert 35 not in rows_of(demanded(data, monkeypatch)[FRAME])
        stream = tmp_path / "s.mbfs"
        stream.write_bytes(with_byte(data, block_offset(data, FRAME, 0, 35, 0), 7))
        outputs = [tmp_path / name for name in ("traj.jsonl", "events.jsonl", "m.json", "ov")]
        argv = ["track", "--input", str(stream)]
        for flag, path in zip(["--out", "--events", "--metrics", "--overlay"], outputs):
            argv += [flag, str(path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (f"mbtrack: error: {stream}: frame {FRAME}:"
                                        " unknown prediction mode in payload")
        assert not any(path.exists() for path in outputs)
