"""Lossless DC-predicted intra codec for 4x4 blocks.

Each plane (R, G, B) is split into 4x4 blocks, whose mode is fixed by
position, as H.264's Intra_4x4_DC falls back to 128 where no neighbour is:

    mode 0: block (0, 0), which has no causal neighbours: predictor 128
    mode 1: every other block: predictor is the rounded mean of up to 8
            causal neighbour pixels: the 4 pixels directly above the
            block's top row and the 4 directly left of its left column,
            whichever exist

Residuals are stored as int16, so reconstruction is exact. Serialized
block layout is [mode u8][16 x residual i16 LE] with blocks in raster
order, and planes follow each other in R, G, B order. Mode bytes are
checked where a payload is made (``_check_modes``); the decoder never
reads them.

Decoded pixels are clamped to 0..255, and later blocks predict from the
clamped pixels. ``encode_iframe`` codes uint8 frames losslessly, so its
payloads never clip; only a corrupt payload, or a partial decode whose
substituted context differs from the coded frame, makes a pixel clip.

The decoder reconstructs blocks one anti-diagonal (by + bx = d) at a
time, all three planes together: the "2D-wave" order of parallel H.264
decoding. A block's predictor reads only the block above it and the
block to its left, both on the previous diagonal, so this order gives
every block the same context, and the same pixels, as raster order.

The wave carries predictors, not pixels. While no pixel clips, a block
is its residuals plus its predictor p, so the sum of the edge a
neighbour shows a block is that edge's residual sum R plus 4 * p. With
D = (R_up + R_left + n // 2) >> 2, fixed by the residuals alone, a mode-1
predictor of n = 8 neighbours is (D + p_up + p_left) >> 1 and one of
n = 4 neighbours is D + p_nb: exact integer identities, since nested
floor divisions by powers of two collapse into one. So the wave moves
one int32 per block and plane, and the pixels are rebuilt once, after
it, a band of block rows at a time straight into the rect's planes, so
that beside them no integer copy of the whole rect's residuals or
predictors, nor a block-layout copy of its pixels, raises peak memory. A
rebuilt pixel outside 0..255 means the payload clips; that rect alone is
then decoded again by the clamped wave, which carries pixels and clamps
every block as it goes.

Decoded pixels land in channel planes, one (h, w) array per colour, as
the payload keeps them and as H.264 keeps each colour component in its
own sample array. A block row of 4 uint8 pixels is one uint32 word in
the block layout and in the plane layout alike, so one copy of words
moves blocks into planes: each rebuilt band as it passes the 0..255
check, or the clamped wave's whole rect. Every decode entry point returns
the (h, w, 3) view of the planes, ``planes.transpose(1, 2, 0)``: the
same shape and values as an interleaved image, whose per-channel reads
(``pixels[:, :, c]``) are contiguous rows.

The point of the scheme is partial decoding: any rectangular region can
be reconstructed without touching the rest of the frame by substituting
a background image for neighbor pixels that fall outside the region. The
result is exact only when the block-aligned border of the region sits on
background pixels. A payload need not even hold the rest of the frame:
one read sparsely (``IntraPayload.sparse``) allocates and holds only the
bands of block rows its ``mask`` marks, and decodes any region inside
them, whose residuals are a plain slice of one band.
``decode_regions_partial`` decodes many regions in one call, one wave
per size class of region (``_decode_regions``): in a wave each region
keeps its own predictor planes in one zero-padded stack, aligned so that
every region's wave starts at the same cell, and the wave takes as many
steps as the largest region of its class needs. The stack is skewed, one
anti-diagonal per leading index and the planes innermost, so that each
step reads and writes one contiguous slice. Padding lies below and right
of every region, and the recurrence reads only above and left, so no
region reads it (see ``_wave``). A full decode is the one-region case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 4
MODE_CONST = 0  # flat 128 predictor
MODE_NEIGHBOR_DC = 1  # mean of available causal neighbors

# Packed wire layout for one coded block: mode byte + 16 residuals.
_BLOCK_DTYPE = np.dtype([("mode", "u1"), ("residuals", "<i2", (16,))])
assert _BLOCK_DTYPE.itemsize == 33

# Blocks per plane whose pixels are rebuilt in one step after the predictor wave.
_REBUILD_BLOCKS = 1024


class IntraFormatError(ValueError):
    """Malformed intra payload (bad mode, impossible predictor, bad size)."""


class ReleasedPayloadError(ValueError):
    """A decode, or a read of blocks, on a payload whose blocks were released."""


@dataclass(frozen=True)
class DecodeStats:
    """Work counter for one partial decode: block positions touched vs total."""

    blocks_decoded: int
    blocks_total: int

    @property
    def ratio(self) -> float:
        return self.blocks_decoded / self.blocks_total


@dataclass(frozen=True)
class PixelTile:
    """Decoded pixels for one rect. rect is (x, y, w, h) in frame pixels.

    ``pixels`` is (h, w, 3) uint8 in any memory layout. The decoder hands
    out views of channel planes, ``planes.transpose(1, 2, 0)`` cropped to
    the rect: the same shape and values as an interleaved image.
    """

    rect: tuple[int, int, int, int]
    pixels: np.ndarray  # (h, w, 3) uint8

    def __post_init__(self):
        x, y, w, h = self.rect
        if self.pixels.shape != (h, w, 3):
            raise ValueError(
                f"tile pixels shape {self.pixels.shape} does not match rect {self.rect}"
            )

    def __eq__(self, other):
        if not isinstance(other, PixelTile):
            return NotImplemented
        return self.rect == other.rect and np.array_equal(self.pixels, other.pixels)


class IntraPayload:
    """Coded representation of one RGB frame, or of bands of its block rows.

    modes:     (3, H/4, W/4) uint8, plane order R, G, B: 0 at block
               (0, 0), 1 elsewhere
    residuals: (3, H/4, W/4, 4, 4) int16

    A payload that holds the whole frame keeps its blocks in the wire
    layout, and ``modes`` and ``residuals`` are views of them, so ``wire``
    serializes it without a copy. ``encode_iframe`` writes that layout and
    ``from_bytes`` views the bytes it parses; ``__init__``, for payloads
    made by hand, copies its arrays into it once.

    ``mask`` is None for a payload that holds the whole frame. A payload
    read by ``sparse`` holds only the bands of block rows that cover its
    regions, and allocates nothing else; its (H/4, W/4) ``mask`` marks
    the blocks it read. It decodes only regions inside the mask, and has
    no ``modes``, ``residuals``, wire form nor equality.

    Every decode reads a region's residuals as a plain slice of the one
    band that holds it (``residuals_of``); a whole payload is one band.
    ``release`` drops the blocks: a decode, or any read of them, then
    raises ``ReleasedPayloadError``.
    """

    def __init__(self, modes, residuals, width_px: int, height_px: int):
        if width_px % BLOCK or height_px % BLOCK or width_px <= 0 or height_px <= 0:
            raise IntraFormatError(f"bad frame size {width_px}x{height_px}")
        nbx = width_px // BLOCK
        nby = height_px // BLOCK
        modes = np.asarray(modes, dtype=np.uint8)
        residuals = np.asarray(residuals, dtype=np.int16)
        if modes.shape != (3, nby, nbx):
            raise IntraFormatError(f"modes shape {modes.shape} != {(3, nby, nbx)}")
        if residuals.shape != (3, nby, nbx, BLOCK, BLOCK):
            raise IntraFormatError(f"residuals shape {residuals.shape} is wrong")
        blocks = np.empty(3 * nby * nbx, dtype=_BLOCK_DTYPE)
        blocks["mode"] = modes.reshape(-1)
        blocks["residuals"] = residuals.reshape(-1, BLOCK * BLOCK)
        self._hold(blocks, width_px, height_px)

    def _hold(self, blocks: np.ndarray, width_px: int, height_px: int,
              bands: list | None = None) -> "IntraPayload":
        """Make this payload hold ``blocks`` and return it. With no
        ``bands``, ``blocks`` is the whole frame's (3n,) wire layout, whose
        modes are checked here; a sparse read passes the bands it read,
        each checked as it was read. A band is (first, end, residuals):
        the raster run [first, end) of blocks it read, and the
        (3, rows, W/4, 4, 4) residuals of its whole block rows."""
        nbx, nby = width_px // BLOCK, height_px // BLOCK
        self._sparse = bands is not None
        if bands is None:
            _check_modes(blocks["mode"].reshape(3, nbx * nby), origin=True)
            bands = [(0, nbx * nby, blocks["residuals"].reshape(3, nby, nbx, BLOCK, BLOCK))]
        self.width_px = width_px
        self.height_px = height_px
        self._blocks = blocks
        self._bands = bands
        return self

    @property
    def blocks_per_plane(self) -> int:
        return (self.width_px // BLOCK) * (self.height_px // BLOCK)

    def _held(self) -> list:
        if self._bands is None:
            raise ReleasedPayloadError("the intra payload was released")
        return self._bands

    def _whole(self) -> np.ndarray:
        """The whole frame's blocks in the wire layout."""
        self._held()
        if self._sparse:
            raise ValueError("a sparse intra payload does not hold the whole frame")
        return self._blocks

    @property
    def modes(self) -> np.ndarray:
        return self._whole()["mode"].reshape(3, self.height_px // BLOCK, -1)

    @property
    def residuals(self) -> np.ndarray:
        return self._whole()["residuals"].reshape(
            3, self.height_px // BLOCK, -1, BLOCK, BLOCK)

    @property
    def mask(self) -> np.ndarray | None:
        """The (H/4, W/4) blocks a sparse payload read, or None when it
        holds the whole frame."""
        bands = self._held()
        if not self._sparse:
            return None
        mask = np.zeros(self.blocks_per_plane, dtype=bool)
        for first, end, _ in bands:
            mask[first:end] = True
        return mask.reshape(self.height_px // BLOCK, -1)

    def residuals_of(self, bx0: int, by0: int, nbx: int, nby: int) -> np.ndarray:
        """The (3, nby, nbx, 4, 4) int16 residuals of a block region, a
        view of the band that holds it. A region that is not all in one
        band of a sparse payload is a ``ValueError``."""
        row = self.width_px // BLOCK
        first, last = by0 * row + bx0, (by0 + nby - 1) * row + bx0 + nbx
        for start, end, residuals in self._held():
            if start <= first and last <= end:
                r = by0 - start // row
                return residuals[:, r : r + nby, bx0 : bx0 + nbx]
        raise ValueError(f"block region {(bx0, by0, nbx, nby)} is not all in the "
                         f"sparse payload")

    def release(self) -> None:
        """Drop the blocks. A caller that has decoded what it needs frees
        them at once, whoever still holds the payload."""
        self._blocks = self._bands = None

    def __eq__(self, other):
        if not isinstance(other, IntraPayload):
            return NotImplemented
        return (
            self.width_px == other.width_px
            and self.height_px == other.height_px
            and np.array_equal(self._whole(), other._whole())
        )

    @staticmethod
    def byte_size(width_px: int, height_px: int) -> int:
        return 3 * (width_px // BLOCK) * (height_px // BLOCK) * _BLOCK_DTYPE.itemsize

    def wire(self) -> np.ndarray:
        """The serialized payload as a flat uint8 array: a view of the
        payload's wire layout."""
        return self._whole().view(np.uint8)

    def to_bytes(self) -> bytes:
        return self.wire().tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, width_px: int, height_px: int) -> "IntraPayload":
        """Parse a serialized payload.

        ``modes`` and ``residuals`` are views of ``data`` (read-only when
        ``data`` is ``bytes``), not copies: a stream parses one payload per
        I-frame, 1.9 MB at 640x480, and the allocator tends to map a fresh
        copy of that size and page-fault it in again on every frame.
        """
        n = 3 * (width_px // BLOCK) * (height_px // BLOCK)
        expected = n * _BLOCK_DTYPE.itemsize
        if len(data) != expected:
            raise IntraFormatError(
                f"intra payload is {len(data)} bytes, expected {expected}"
            )
        blocks = np.frombuffer(data, dtype=_BLOCK_DTYPE, count=n)
        return cls.__new__(cls)._hold(blocks, width_px, height_px)

    @classmethod
    def sparse(cls, width_px: int, height_px: int, regions, read_into) -> "IntraPayload":
        """A payload holding only the blocks under ``regions``, a list of
        (bx0, by0, nbx, nby) block regions, read with one call of
        ``read_into(offset, view)`` per plane and band. That call fills
        the writable ``view`` with the wire bytes at ``offset`` of the
        payload.

        Regions whose block rows overlap or touch form one band of
        consecutive rows. A band is read as one contiguous run of blocks
        in raster order, from its first row at that row's leftmost
        demanded column to its last row at that row's rightmost one, so
        the rows between are read whole. The modes of each band are
        checked as it is read, while its bytes are in cache, by the rule
        a whole payload's are checked by, block (0, 0) included when a
        band holds it; blocks outside the bands are never read nor
        checked. Only the bands' whole block rows are allocated, one
        array for all of them, uninitialised: a region is then a plain
        slice of its band, and the 12.9 MB of a 1920x1088 frame are never
        allocated for one small rect.
        """
        nbx, nby = width_px // BLOCK, height_px // BLOCK
        # A band runs from the first block of its regions in raster order to
        # the last: a region on a later row starts later and, ending on a
        # later row, ends later, whatever its columns.
        spans = []  # [first, end) block index of each band, in raster order
        for by0, bx0, w, h in sorted((by0, bx0, w, h) for bx0, by0, w, h in regions):
            if w <= 0 or h <= 0 or bx0 < 0 or by0 < 0 or bx0 + w > nbx or by0 + h > nby:
                raise ValueError(f"block region {(bx0, by0, w, h)} is outside the "
                                 f"{nbx}x{nby}-block frame")
            end = (by0 + h - 1) * nbx + bx0 + w
            if spans and by0 <= (spans[-1][1] - 1) // nbx + 1:  # on or next to the band
                spans[-1][1] = max(spans[-1][1], end)
            else:
                spans.append([by0 * nbx + bx0, end])

        # Each band holds its whole block rows, in every plane: (first, end,
        # at, n) is its raster run, the first of its rows among the rows
        # held and their number. A region is then a plain slice of a band.
        layout, rows = [], 0
        for first, end in spans:
            n = (end - 1) // nbx + 1 - first // nbx
            layout.append((first, end, rows, n))
            rows += n
        size = _BLOCK_DTYPE.itemsize
        blocks = np.empty(3 * rows * nbx, dtype=_BLOCK_DTYPE)
        wire = memoryview(blocks.view(np.uint8))
        modes = blocks["mode"].reshape(3, rows * nbx)
        for plane in range(3):
            for first, end, at, _ in layout:
                lo = at * nbx + first % nbx
                held = (plane * rows * nbx + lo) * size
                read_into((plane * nbx * nby + first) * size,
                          wire[held : held + (end - first) * size])
                _check_modes(modes[plane, lo : lo + end - first], origin=first == 0)
        residuals = blocks["residuals"].reshape(3, rows, nbx, BLOCK, BLOCK)
        bands = [(first, end, residuals[:, at : at + n]) for first, end, at, n in layout]
        return cls.__new__(cls)._hold(blocks, width_px, height_px, bands)


def _check_modes(modes: np.ndarray, origin: bool) -> None:
    """The mode rule on runs of blocks in raster order, along the last
    axis of ``modes``: every block is mode 1 but the first of each run
    where ``origin`` says it is block (0, 0), which is mode 0. A valid run
    costs a max and a min, which copy nothing; only a bad one is read
    again, to name its fault."""
    one = MODE_NEIGHBOR_DC
    rest = modes[..., 1:] if origin else modes
    if (rest.max(initial=one) != one or rest.min(initial=one) != one
            or origin and modes[..., 0].any()):
        if modes.max() > MODE_NEIGHBOR_DC:
            raise IntraFormatError("unknown prediction mode in payload")
        if origin and np.any(modes[..., 0] == MODE_NEIGHBOR_DC):
            raise IntraFormatError("mode 1 requires at least one causal neighbor")
        raise IntraFormatError("mode 0 is legal only at block (0, 0)")


def _check_image(image) -> np.ndarray:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("expected (H, W, 3) uint8 image")
    h, w = image.shape[:2]
    if h % BLOCK or w % BLOCK or h == 0 or w == 0:
        raise ValueError(f"image size {w}x{h} is not a positive multiple of {BLOCK}")
    return image


def _edge_sum(edge: np.ndarray) -> np.ndarray:
    """Sum over the last axis (4 long) of an integer edge view, as int32.

    Four adds: on the unaligned strided views of a parsed payload they
    cost a tenth of a ``sum`` reduction over the same axis.
    """
    s = edge[..., 0].astype(np.int32)
    for k in range(1, BLOCK):
        s += edge[..., k]
    return s


def encode_iframe(image) -> IntraPayload:
    """Encode an RGB frame losslessly.

    Because coding is lossless, reconstructed neighbor pixels equal source
    pixels, so the predictors for every block can be computed from the
    source image directly and the whole frame encodes vectorized. The
    neighbour count n is fixed by position: 8 inside the frame, 4 on its
    first block row and column, none at the origin, which is mode 0.
    """
    image = _check_image(image)
    h, w = image.shape[:2]
    nby, nbx = h // BLOCK, w // BLOCK
    planes = image.transpose(2, 0, 1)  # (3, h, w) view

    # Sums of the 4 pixels above each block below the first block row, and
    # of the 4 pixels left of each block right of the first block column.
    top = _edge_sum(planes[:, BLOCK - 1 : h - 1 : BLOCK].reshape(3, nby - 1, nbx, BLOCK))
    left = _edge_sum(
        planes[:, :, BLOCK - 1 : w - 1 : BLOCK].reshape(3, nby, BLOCK, nbx - 1).transpose(0, 1, 3, 2)
    )
    pred = np.empty((3, nby, nbx), dtype=np.int16)
    pred[:, 0, 0] = 128
    pred[:, 0, 1:] = (left[:, 0] + BLOCK // 2) >> 2
    pred[:, 1:, 0] = (top[:, :, 0] + BLOCK // 2) >> 2
    pred[:, 1:, 1:] = (top[:, :, 1:] + left[:, 1:] + BLOCK) >> 3

    # Modes and residuals are written straight into the wire layout, one
    # pixel offset (r, s) of every block at a time: 16 strided subtracts,
    # which numpy runs far faster than one whose innermost axes are a
    # block's 4x4 pixels.
    wire = np.empty(3 * nby * nbx, dtype=_BLOCK_DTYPE)
    modes = wire["mode"].reshape(3, nby, nbx)
    modes[:] = MODE_NEIGHBOR_DC
    modes[:, 0, 0] = MODE_CONST
    residuals = wire["residuals"].reshape(3, nby, nbx, BLOCK, BLOCK)
    blocks = planes.reshape(3, nby, BLOCK, nbx, BLOCK)
    for r in range(BLOCK):
        for s in range(BLOCK):
            np.subtract(blocks[:, :, r, :, s], pred, out=residuals[..., r, s])
    return IntraPayload.__new__(IntraPayload)._hold(wire, w, h)


def _start_predictors(res: np.ndarray, bx0: int, by0: int,
                      background: np.ndarray | None) -> np.ndarray:
    """D of the rect at block (bx0, by0) whose (3, nby, nbx, 4, 4)
    residuals are ``res``, as a new contiguous (3, nby, nbx) int32 slab.

    D holds the residual sums of the neighbouring edges inside the rect,
    the ``background`` pixel sums of the edges just above and just left of
    the rect (their predictor is the padding's 0), and nothing beyond the
    frame's top or left edge, where n is 4. Block (0, 0) of the frame,
    mode 0, gets 128 with no neighbours. On the frame's top row and left
    column p = D + p_nb is a running sum, so those blocks leave here with
    their final predictors.
    """
    nby, nbx = res.shape[1:3]
    core = np.zeros((3, nby, nbx), dtype=np.int32)
    h, w = nby * BLOCK, nbx * BLOCK
    x0, y0 = bx0 * BLOCK, by0 * BLOCK
    core[:, 1:] = _edge_sum(res[:, :-1, :, -1])  # bottom rows of the blocks above
    core[:, :, 1:] += _edge_sum(res[:, :, :-1, :, -1])  # right columns of those left
    core += BLOCK  # n // 2 for n = 8
    if by0 > 0:
        core[:, 0] += _edge_sum(background[y0 - 1, x0 : x0 + w].T.reshape(3, nbx, BLOCK))
    else:
        core[:, 0] -= BLOCK // 2
    if bx0 > 0:
        core[:, :, 0] += _edge_sum(background[y0 : y0 + h, x0 - 1].T.reshape(3, nby, BLOCK))
    else:
        core[:, :, 0] -= BLOCK // 2
    core >>= 2
    if bx0 == 0 and by0 == 0:
        core[:, 0, 0] = 128
    if by0 == 0:
        np.cumsum(core[:, 0], axis=-1, out=core[:, 0])
    if bx0 == 0:
        np.cumsum(core[:, :, 0], axis=-1, out=core[:, :, 0])
    return core


def _plane_words(planes: np.ndarray) -> np.ndarray:
    """The uint32 words of (3, h, w) uint8 channel ``planes``, as a
    (3, h/4, w/4, 4) view indexed like the words of (3, h/4, w/4, 4, 4)
    uint8 blocks, ``blocks.view(np.uint32)[..., 0]``.

    A block row of 4 uint8 pixels is one uint32 word in the block layout
    and in the plane layout alike, so one copy of words moves every pixel:
    word (plane, block row, pixel row, block column) of the planes is word
    (plane, block row, block column, pixel row) of the blocks.
    """
    _, h, w = planes.shape
    return planes.view(np.uint32).reshape(3, h // BLOCK, BLOCK, w // BLOCK).transpose(0, 1, 3, 2)


def _as_planes(blocks: np.ndarray) -> np.ndarray:
    """The (h, w, 3) image of (3, nby, nbx, 4, 4) uint8 ``blocks``, as a
    view of new (3, h, w) channel planes. ``blocks`` may be a view whose
    last axis is contiguous."""
    _, nby, nbx = blocks.shape[:3]
    planes = np.empty((3, nby * BLOCK, nbx * BLOCK), dtype=np.uint8)
    _plane_words(planes)[...] = blocks.view(np.uint32)[..., 0]
    return planes.transpose(1, 2, 0)


def _rebuild(res: np.ndarray, core: np.ndarray) -> np.ndarray | None:
    """Pixels of one rect from its residuals ``res`` and its final
    predictors ``core`` (3, nby, nbx).

    The rect's channel planes are allocated first. The pixels are then
    residual plus predictor, ``_REBUILD_BLOCKS`` blocks per plane at a
    time, and each band, once its pixels pass the 0..255 check, is cast
    to uint8 and moved into the planes by one copy of uint32 block rows
    (``_plane_words``). So beside the planes only one band's int16 sums
    and predictors and uint8 pixels are ever held, never a rect-sized
    block array or predictor copy. Returns the (h, w, 3) view of the
    planes, or None when a pixel leaves 0..255.
    """
    nby, nbx = core.shape[1:]
    planes = np.empty((3, nby * BLOCK, nbx * BLOCK), dtype=np.uint8)
    words = _plane_words(planes)
    # int16 sums: the first block in wave order with a pixel outside
    # 0..255 has the codec's predictor, in 0..255, so its sum wraps, if at
    # all, only past 32767 to a negative value, and as uint16 that pixel
    # is > 255. Predictors after it may be wrong and wrap anywhere; the
    # rect is decoded again then anyway. Every band reuses one band's
    # buffers: no band pays for new arrays, and no band's sums are made
    # while the last band's are still held.
    step = min(nby, max(1, _REBUILD_BLOCKS // nbx))
    pred = np.empty((3, step, nbx, 1, 1), dtype=np.int16)
    sums = np.empty((3, step, nbx, BLOCK, BLOCK), dtype=np.int16)
    pixels = np.empty(sums.shape, dtype=np.uint8)
    for i in range(0, nby, step):
        n = min(step, nby - i)
        p, s, px = pred[:, :n], sums[:, :n], pixels[:, :n]
        p[..., 0, 0] = core[:, i : i + n]
        np.add(res[:, i : i + n], p, out=s)
        if s.view(np.uint16).max() > 255:
            return None
        np.copyto(px, s, casting="unsafe")
        words[:, i : i + n] = px.view(np.uint32)[..., 0]
    return planes.transpose(1, 2, 0)


def _decode_regions(payload: IntraPayload, regions: list[tuple[int, int, int, int]],
                    background: np.ndarray | None) -> list[np.ndarray]:
    """Reconstruct each (bx0, by0, nbx, nby) block region, one wave per
    size class of region.

    A region's size is nbx + nby, the steps its wave takes. Largest
    first, each region joins the last wave when it is at least half the
    size of that wave's first region, and starts a new wave otherwise: no
    region is padded to the stack of one more than twice its size, and
    the waves' stacks are made and freed one after the other (``_wave``),
    while regions of near sizes still share one wave's steps. Regions
    decode independently, so the grouping changes no pixel. Each
    region's residuals are a plain slice of its payload band
    (``IntraPayload.residuals_of``), taken once here.

    Returns one (4*nby, 4*nbx, 3) uint8 image per region, in order, each
    a view of its own (3, 4*nby, 4*nbx) channel planes.
    """
    res = [payload.residuals_of(*region) for region in regions]
    size = [nbx + nby for _, _, nbx, nby in regions]
    waves: list[list[int]] = []  # region indices, largest first
    for k in sorted(range(len(regions)), key=lambda k: -size[k]):
        if waves and 2 * size[k] >= size[waves[-1][0]]:
            waves[-1].append(k)
        else:
            waves.append([k])
    out = [None] * len(regions)
    for ks in waves:
        for k, pixels in zip(ks, _wave(payload, [regions[k] for k in ks],
                                       [res[k] for k in ks], background)):
            out[k] = pixels
    return out


def _wave(payload: IntraPayload, regions: list[tuple[int, int, int, int]],
          residuals: list[np.ndarray], background: np.ndarray | None) -> list[np.ndarray]:
    """Reconstruct each block region of ``payload``, whose residuals are
    ``residuals``, all in one wave.

    Runs the predictor recurrence of the module docstring for every
    region at once. Each region gets its own three planes in one
    zero-padded int32 stack, started as D by ``_start_predictors``. A
    region sits with its first block at (1, 1), under one padding row and
    left of one padding column that stay 0, except that a region on the
    frame's top (left) edge sits one row (one column) higher (further
    left): its finished running-sum row (column) then lies in the
    padding, and every region's wave starts at (1, 1). The wave decodes
    one anti-diagonal ``i + j = e`` of the whole stack at a time, in
    place: p = (D + p_up + p_left) >> 1, so it runs as many steps as the
    largest region needs, not their sum. The stack is laid out skewed:
    cell (i, j) of plane q is ``skew[i + j, i, q]``, so diagonal e is the
    contiguous slice ``skew[e, lo:hi]``, the cells above it are
    ``skew[e - 1, lo - 1:hi - 1]`` and the cells left of it
    ``skew[e - 1, lo:hi]``: each step is three operations on contiguous
    slices, over every plane of every region. A region's planes are a
    strided (3, nby, nbx) view of the stack. Stack cells outside a region
    lie below or right of all of it, and a cell reads only the cells
    above and left of it, so no region's block ever reads them, nor
    another region's planes.

    ``_decode_blocks_clamped`` decodes a region again when a rebuilt
    pixel of it leaves 0..255. Every pixel is checked, so the result is
    exact: if no rebuilt pixel leaves 0..255, then by induction in wave
    order no pixel clipped and every predictor was the codec's; if one
    does, the first such pixel in wave order was rebuilt from the codec's
    predictor, so the check sees it whatever the predictors after it hold.
    """
    # Rows and columns each region's wave covers, below and right of (0, 0).
    rows = max(nby - (by0 == 0) for _, by0, _, nby in regions)
    cols = max(nbx - (bx0 == 0) for bx0, _, nbx, _ in regions)
    skew = np.zeros((rows + cols + 1, rows + 1, 3 * len(regions)), dtype=np.int32)
    s0, s1, s2 = skew.strides
    cores = []
    for j, ((bx0, by0, nbx, nby), res) in enumerate(zip(regions, residuals)):
        r, c = int(by0 > 0), int(bx0 > 0)
        core = np.ndarray((3, nby, nbx), np.int32, skew, (r + c) * s0 + r * s1 + 3 * j * s2,
                          (s2, s0 + s1, s0))
        # D is made in a contiguous slab and copied in one assignment: made
        # op by op through the strided view it costs twice as much. The
        # slab is freed with the statement, so none adds to later peaks.
        core[...] = _start_predictors(res, bx0, by0, background)
        cores.append(core)

    for e in range(2, rows + cols + 1 if rows and cols else 2):
        lo, hi = max(1, e - cols), min(e - 1, rows) + 1
        p = skew[e, lo:hi]
        p += skew[e - 1, lo - 1 : hi - 1]
        p += skew[e - 1, lo:hi]
        p >>= 1

    out = []
    for region, res, core in zip(regions, residuals, cores):
        pixels = _rebuild(res, core)
        out.append(_decode_blocks_clamped(payload, *region, background)
                   if pixels is None else pixels)
    return out


def _decode_blocks_clamped(payload: IntraPayload, bx0: int, by0: int, nbx: int, nby: int,
                           background: np.ndarray | None) -> np.ndarray:
    """One region of ``_wave`` whose rebuilt pixels left 0..255: the wave
    carries pixels and clamps every block as it goes, so it is exact where
    pixels clip.

    The work array holds the rect's blocks padded by one block row above
    and one block column to the left. The padding blocks' last pixel row
    and column hold the ``background`` pixels just above and just left of
    the rect, so a block on the rect's edge reads its context like any
    other block. At the frame's top or left edge the padding stays zero
    and the neighbour count leaves it out, as the codec defines; block
    (0, 0) of the frame, which has no neighbours, is the one block whose
    predictor is 128.

    Blocks are decoded one anti-diagonal ``i + j = d`` at a time (see the
    module docstring). In a row-major array of row width r, consecutive
    blocks of one anti-diagonal sit r - 1 apart, so a diagonal and the
    blocks above and left of it are plain strided slices; the diagonal's
    residuals are gathered by row and column from the region's own
    (``IntraPayload.residuals_of``).

    Returns the decoded rect as a (4*nby, 4*nbx, 3) uint8 image, a view
    of its channel planes as ``_rebuild`` returns.
    """
    res = payload.residuals_of(bx0, by0, nbx, nby)
    h, w = nby * BLOCK, nbx * BLOCK
    x0, y0 = bx0 * BLOCK, by0 * BLOCK
    row = nbx + 1
    work = np.zeros((3, nby + 1, row, BLOCK, BLOCK), dtype=np.uint8)
    count = np.full((nby + 1, row), 2 * BLOCK, dtype=np.int32)
    if by0 > 0:
        work[:, 0, 1:, -1] = background[y0 - 1, x0 : x0 + w].T.reshape(3, nbx, BLOCK)
    else:
        count[1] -= BLOCK
    if bx0 > 0:
        work[:, 1:, 0, :, -1] = background[y0 : y0 + h, x0 - 1].T.reshape(3, nby, BLOCK)
    else:
        count[:, 1] -= BLOCK
    # count is 0 only at block (0, 0) of the frame, whose predictor is set below.
    count = np.maximum(count, 1).reshape(-1)
    work_flat = work.reshape(3, -1, BLOCK, BLOCK)

    for d in range(nby + nbx - 1):
        i0 = max(0, d - nbx + 1)
        k = min(d, nby - 1) + 1 - i0
        c = (i0 + 1) * row + (d - i0 + 1)  # padded block (i0 + 1, d - i0 + 1)
        span = (k - 1) * nbx + 1
        cur = slice(c, c + span, nbx)
        up = slice(c - row, c - row + span, nbx)
        left = slice(c - 1, c - 1 + span, nbx)
        t = np.arange(i0, i0 + k)  # the diagonal's rows in the rect

        s = (work_flat[:, up, -1].sum(axis=-1, dtype=np.int32)
             + work_flat[:, left, :, -1].sum(axis=-1, dtype=np.int32))
        n = count[cur]
        pred = (s + n // 2) // n
        if d == 0 and bx0 == by0 == 0:
            pred[:] = 128
        blk = res[:, t, d - t].astype(np.int32)
        blk += pred[:, :, None, None]
        # In-place bounds, not np.clip, whose Python wrapper costs more
        # than the clamp on these small arrays.
        np.maximum(blk, 0, out=blk)
        np.minimum(blk, 255, out=blk)
        work_flat[:, cur] = blk
    return _as_planes(work[:, 1:, 1:])


def decode_full(payload: IntraPayload) -> np.ndarray:
    """Reconstruct the whole frame. Returns (H, W, 3) uint8, a view of
    channel planes."""
    nbx, nby = payload.width_px // BLOCK, payload.height_px // BLOCK
    return _decode_regions(payload, [(0, 0, nbx, nby)], None)[0]


def block_region(rect: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The (bx0, by0, nbx, nby) block region covering a pixel rect."""
    x, y, w, h = rect
    bx0, by0 = x // BLOCK, y // BLOCK
    return bx0, by0, (x + w - 1) // BLOCK - bx0 + 1, (y + h - 1) // BLOCK - by0 + 1


def decode_regions_partial(payload: IntraPayload, rects: list[tuple[int, int, int, int]],
                           background: np.ndarray) -> tuple[list[PixelTile], DecodeStats]:
    """Reconstruct only the blocks intersecting each of ``rects``, in one wave.

    Each rect is decoded on its own, as if alone: a block's causal
    neighbors come from blocks decoded for this same rect when those
    blocks also intersect it, and from ``background`` (a full-frame
    (H, W, 3) uint8 image) otherwise. Rects may overlap or repeat. All of
    them advance through one predictor wave together (see
    ``_decode_regions``), which gives the same pixels as raster order. Each
    returned tile is cropped to exactly its rect; its pixels are a view of
    the channel planes decoded for it, which nothing else holds, so no
    copy is made.

    The decode cost is a pure function of the rect geometry:
    blocks_decoded sums, over the rects, the block positions each touches,
    regardless of payload content or how many neighbors were substituted.
    """
    background = np.asarray(background)
    if background.shape != (payload.height_px, payload.width_px, 3) or background.dtype != np.uint8:
        raise ValueError("background must be a full-frame (H, W, 3) uint8 image")
    regions = []
    for x, y, w, h in rects:
        if w <= 0 or h <= 0:
            raise ValueError(f"rect {(x, y, w, h)} has non-positive size")
        if x < 0 or y < 0 or x + w > payload.width_px or y + h > payload.height_px:
            raise ValueError(f"rect {(x, y, w, h)} is outside the "
                             f"{payload.width_px}x{payload.height_px} frame")
        regions.append(block_region((x, y, w, h)))

    tiles = []
    for (x, y, w, h), (bx0, by0, _, _), region in zip(
            rects, regions, _decode_regions(payload, regions, background)):
        oy, ox = y - by0 * BLOCK, x - bx0 * BLOCK
        tiles.append(PixelTile((x, y, w, h), region[oy : oy + h, ox : ox + w]))
    stats = DecodeStats(
        blocks_decoded=sum(nbx * nby for _, _, nbx, nby in regions),
        blocks_total=payload.blocks_per_plane,
    )
    return tiles, stats


def decode_region_partial(payload: IntraPayload, rect: tuple[int, int, int, int],
                          background: np.ndarray) -> tuple[PixelTile, DecodeStats]:
    """``decode_regions_partial`` for one rect: its tile and its stats."""
    (tile,), stats = decode_regions_partial(payload, [rect], background)
    return tile, stats
