"""Pixel-domain blob refinement at I-frames.

Macroblock-level tracking gives coarse 16px-aligned blobs. Once per GOP,
at the I-frame, each object's blob is re-measured from partially decoded
pixels: predict where the object is from its recent motion, decode that
region plus a one-block border, subtract the reference background, clean
the difference mask morphologically inside its bounding box, and fit the
tightest rectangle.
The refined I-frame blob then rewrites the preceding P-frame blobs by
linear interpolation against the previous anchor.

Blobs are (cx, cy, h, w) with float centers and sizes in pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .filtering import _EIGHT_CONNECTED, CELL_BITS, CELL_MASK
from .intra import BLOCK, PixelTile
from .stream import MB


@dataclass(frozen=True)
class BlobFeature:
    """Axis-aligned blob: center (cx, cy), height h, width w, all in pixels."""

    cx: float
    cy: float
    h: float
    w: float

    def corner_rect(self) -> tuple[float, float, float, float]:
        """(x0, y0, w, h) with x0, y0 the top-left corner."""
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0, self.w, self.h)

    def int_rect(self, frame_w: int, frame_h: int,
                 border: int = 0) -> tuple[int, int, int, int]:
        """Integer pixel rect grown by ``border`` on each side, clipped."""
        x0 = int(np.floor(self.cx - self.w / 2.0)) - border
        y0 = int(np.floor(self.cy - self.h / 2.0)) - border
        x1 = int(np.ceil(self.cx + self.w / 2.0)) + border
        y1 = int(np.ceil(self.cy + self.h / 2.0)) + border
        x0 = max(0, x0)
        y0 = max(0, y0)
        x1 = min(frame_w, max(x1, x0 + 1))
        y1 = min(frame_h, max(y1, y0 + 1))
        return (x0, y0, x1 - x0, y1 - y0)

    @classmethod
    def from_grid_region(cls, keys: np.ndarray) -> "BlobFeature":
        """Bounding blob, in pixels, of a region of cell keys (``filtering``)."""
        if not len(keys):
            raise ValueError("cannot take the blob of an empty region")
        cells = keys.tolist()
        xs = [c & CELL_MASK for c in cells]
        x0, x1 = min(xs) * MB, (max(xs) + 1) * MB
        y0, y1 = (min(cells) >> CELL_BITS) * MB, ((max(cells) >> CELL_BITS) + 1) * MB
        return cls(cx=(x0 + x1) / 2.0, cy=(y0 + y1) / 2.0,
                   h=float(y1 - y0), w=float(x1 - x0))

    def iou(self, other: "BlobFeature") -> float:
        ax0, ay0, aw, ah = self.corner_rect()
        bx0, by0, bw, bh = other.corner_rect()
        ix = max(0.0, min(ax0 + aw, bx0 + bw) - max(ax0, bx0))
        iy = max(0.0, min(ay0 + ah, by0 + bh) - max(ay0, by0))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
        return inter / union if union > 0 else 0.0


@dataclass
class RefineConfig:
    epsilon: int = 25  # per-pixel max-channel difference threshold
    min_component_area: int = 16  # drop smaller 8-connected mask components
    morph_radius: int = 1  # square structuring element half-width; 0 disables

    def __post_init__(self):
        if self.epsilon < 0 or self.min_component_area < 0 or self.morph_radius < 0:
            raise ValueError("refinement parameters must be non-negative")


def predict_blob(track: list[BlobFeature]) -> BlobFeature:
    """Where to look for the object at the next I-frame.

    Center of the most recent blob; height and width are the maxima over
    the whole window, so growth during the GOP stays covered.
    """
    if not track:
        raise ValueError("prediction needs at least one blob")
    last = track[-1]
    return BlobFeature(
        cx=last.cx,
        cy=last.cy,
        h=max(b.h for b in track),
        w=max(b.w for b in track),
    )


def decode_rect_for(pred: BlobFeature, frame_w: int, frame_h: int) -> tuple[int, int, int, int]:
    """Predicted blob grown by one 4x4 block on each side, clipped to the frame."""
    return pred.int_rect(frame_w, frame_h, border=BLOCK)


def _square_filter(mask: np.ndarray, r: int, erode: bool) -> np.ndarray:
    """Binary erosion (AND) or dilation (OR) of a 2-D mask by the (2r+1)
    square, r >= 1.

    The square is separable: one pass over r shifted row slices each way,
    then one over r shifted column slices, so no pass copies a transpose.
    Everything outside the array counts as background, as in
    ``scipy.ndimage`` with ``border_value=0``: erosion clears the r cells
    next to each edge, and dilation reads only what is inside.
    """
    op = np.logical_and if erode else np.logical_or
    rows = mask.copy()
    for k in range(1, r + 1):
        op(rows[k:], mask[:-k], out=rows[k:])
        op(rows[:-k], mask[k:], out=rows[:-k])
    if erode:
        rows[:r] = False
        rows[-r:] = False
    out = rows.copy()
    for k in range(1, r + 1):
        op(out[:, k:], rows[:, :-k], out=out[:, k:])
        op(out[:, :-k], rows[:, k:], out=out[:, :-k])
    if erode:
        out[:, :r] = False
        out[:, -r:] = False
    return out


def _bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """(r0, r1, c0, c1): the rows r0:r1 and columns c0:c1 of the smallest
    box holding every pixel of a 2-D mask, or None when it is empty."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not len(rows):
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


def background_subtract(tile: PixelTile, background: np.ndarray,
                        config: RefineConfig) -> tuple[np.ndarray, BlobFeature | None]:
    """Foreground mask and tight blob for one decoded tile.

    A pixel is foreground when some channel differs from the reference
    background by more than epsilon. The mask is cleaned by a binary
    opening then closing with a (2r+1) square element, small 8-connected
    components are discarded, and the tightest rectangle around what
    survives becomes the blob. Returns (mask in tile coordinates, blob in
    frame coordinates or None when nothing survives).

    The background crop is copied into the tile's own memory layout (the
    decoder's tiles are views of channel planes, a stored background is
    interleaved), so that every ufunc below reads operands of one layout:
    numpy's buffered iterator makes a ufunc that mixes the two layouts
    many times slower.

    Cleaning runs only on the bounding box of the raw mask, which is about
    half the tile at lanes scale, and is exact there: an opening never
    adds a pixel, so it stays inside the box; a closing with a square
    never leaves the bounding box of its input; and every component lies
    inside the box, so labelling it finds the same areas.
    """
    x, y, w, h = tile.rect
    pix = tile.pixels
    crop = np.empty_like(pix)
    crop[...] = np.asarray(background)[y : y + h, x : x + w]
    # |pix - crop| into the crop, without a signed copy: max minus min
    # stays in range. Only the min is a second tile-sized buffer.
    lo = np.minimum(pix, crop)
    np.maximum(pix, crop, out=crop)
    crop -= lo
    del lo
    mask = crop[:, :, 0] > config.epsilon
    mask |= crop[:, :, 1] > config.epsilon
    mask |= crop[:, :, 2] > config.epsilon
    bounds = _bbox(mask)
    if bounds is None:
        return mask, None

    # Everything outside the box is background and stays so; ``box`` is a
    # view, so cleaning it cleans ``mask``.
    r0, r1, c0, c1 = bounds
    box = mask[r0:r1, c0:c1]
    if config.morph_radius > 0:
        r = config.morph_radius
        # No pad for the opening: the border already counts as background,
        # and an opening never reaches into the ring a pad would add.
        opened = _square_filter(_square_filter(box, r, erode=True), r, erode=False)
        # Pad so closing's erosion sees the dilated ring instead of the
        # array border; otherwise blobs touching the box edge lose a row.
        padded = np.zeros((r1 - r0 + 2 * r, c1 - c0 + 2 * r), dtype=bool)
        padded[r:-r, r:-r] = opened
        closed = _square_filter(_square_filter(padded, r, erode=False), r, erode=True)
        box[...] = closed[r:-r, r:-r]

    if config.min_component_area > 0 and box.any():
        labels, count = ndimage.label(box, structure=_EIGHT_CONNECTED)
        if count == 1:
            # The usual case: the area is the mask's, with no count per label.
            if np.count_nonzero(box) < config.min_component_area:
                box[...] = False
        else:
            areas = np.bincount(labels.ravel())
            small = areas < config.min_component_area
            small[0] = False
            if small.any():
                box[small[labels]] = False

    bounds = _bbox(box)
    if bounds is None:
        return mask, None
    br0, br1, bc0, bc1 = bounds
    bh = float(br1 - br0)
    bw = float(bc1 - bc0)
    blob = BlobFeature(cx=x + c0 + bc0 + bw / 2.0, cy=y + r0 + br0 + bh / 2.0, h=bh, w=bw)
    return mask, blob


def interpolate_blobs(blob_now: BlobFeature, blob_anchor: BlobFeature,
                      span: int, k: int) -> BlobFeature:
    """Blob k frames before ``blob_now``, linearly blended toward the anchor
    ``span`` frames back. k=0 returns blob_now, k=span returns the anchor."""
    if span <= 0 or not (0 <= k <= span):
        raise ValueError(f"k={k} outside interpolation span {span}")
    t = k / span
    return BlobFeature(
        cx=blob_now.cx + t * (blob_anchor.cx - blob_now.cx),
        cy=blob_now.cy + t * (blob_anchor.cy - blob_now.cy),
        h=blob_now.h + t * (blob_anchor.h - blob_now.h),
        w=blob_now.w + t * (blob_anchor.w - blob_now.w),
    )


@dataclass
class RefineResult:
    """What refining one object at one I-frame computed; the caller already
    holds its id, its tile and its anchor."""

    blob: BlobFeature  # refined, or carried forward when subtraction found nothing
    refined: bool
    mask: np.ndarray | None  # foreground in tile coordinates, when refined
    rewrites: dict[int, BlobFeature]  # frame index -> interpolated blob


def refine_rect(gop_blobs: list[tuple[int, BlobFeature]],
                anchor: tuple[int, BlobFeature, bool],
                frame_w: int, frame_h: int) -> tuple[int, int, int, int]:
    """The rect to decode for one object at an I-frame: its predicted blob
    (from the GOP's blobs, else the anchor's) grown by one block."""
    pred = predict_blob([b for _, b in gop_blobs]) if gop_blobs else anchor[1]
    return decode_rect_for(pred, frame_w, frame_h)


def refine_object(tile: PixelTile, background: np.ndarray, config: RefineConfig,
                  gop_blobs: list[tuple[int, BlobFeature]],
                  anchor: tuple[int, BlobFeature, bool],
                  iframe_index: int) -> RefineResult:
    """Refine one object at one I-frame.

    tile: this I-frame's pixels at ``refine_rect(gop_blobs, anchor, ...)``.
    gop_blobs: (frame, blob) pairs for the P-frames since the last anchor.
    anchor: (frame, blob, was_refined) to interpolate against.

    When subtraction finds nothing, the last macroblock blob (else the
    anchor's) is carried forward, with no mask, and no P-frame is
    rewritten.
    """
    mask, blob = background_subtract(tile, background, config)
    anchor_frame, anchor_blob, _ = anchor
    if blob is None:
        carried = gop_blobs[-1][1] if gop_blobs else anchor_blob
        return RefineResult(blob=carried, refined=False, mask=None, rewrites={})
    span = iframe_index - anchor_frame
    return RefineResult(
        blob=blob,
        refined=True,
        mask=mask,
        rewrites={f: interpolate_blobs(blob, anchor_blob, span, iframe_index - f)
                  for f, _ in gop_blobs if anchor_frame < f < iframe_index},
    )
