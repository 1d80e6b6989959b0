"""Render tracked blobs over decoded frames as PPM images.

I-frames are fully decoded; P-frames carry no pixels, so they are drawn
over the reference background. Each record gets a 1px rectangle in a
per-id color and the object id stamped at the top-left corner with a
tiny 3x5 digit font. Output files are binary PPM (P6), one per frame.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from .intra import decode_full
from .stream import open_source, read_stream

_PALETTE = np.array([
    [230, 60, 60],
    [60, 200, 80],
    [70, 110, 240],
    [230, 180, 40],
    [200, 70, 220],
    [50, 200, 200],
    [240, 130, 50],
    [150, 220, 60],
], dtype=np.uint8)

# 3x5 digits, rows top to bottom, 3 bits each.
_DIGITS = {
    "0": [0b111, 0b101, 0b101, 0b101, 0b111],
    "1": [0b010, 0b110, 0b010, 0b010, 0b111],
    "2": [0b111, 0b001, 0b111, 0b100, 0b111],
    "3": [0b111, 0b001, 0b111, 0b001, 0b111],
    "4": [0b101, 0b101, 0b111, 0b001, 0b001],
    "5": [0b111, 0b100, 0b111, 0b001, 0b111],
    "6": [0b111, 0b100, 0b111, 0b101, 0b111],
    "7": [0b111, 0b001, 0b010, 0b010, 0b010],
    "8": [0b111, 0b101, 0b111, 0b101, 0b111],
    "9": [0b111, 0b101, 0b111, 0b001, 0b111],
}


def color_for(object_id: int) -> np.ndarray:
    return _PALETTE[object_id % len(_PALETTE)]


def write_ppm(path, image: np.ndarray) -> None:
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def draw_rect(image: np.ndarray, x0: int, y0: int, x1: int, y1: int,
              color: np.ndarray) -> None:
    """1px rectangle outline, clipped to the image."""
    h, w = image.shape[:2]
    x0c, x1c = max(0, x0), min(w, x1)
    y0c, y1c = max(0, y0), min(h, y1)
    if x0c >= x1c or y0c >= y1c:
        return
    if 0 <= y0 < h:
        image[y0, x0c:x1c] = color
    if 0 <= y1 - 1 < h:
        image[y1 - 1, x0c:x1c] = color
    if 0 <= x0 < w:
        image[y0c:y1c, x0] = color
    if 0 <= x1 - 1 < w:
        image[y0c:y1c, x1 - 1] = color


def draw_label(image: np.ndarray, x: int, y: int, text: str,
               color: np.ndarray, scale: int = 2) -> None:
    h, w = image.shape[:2]
    cx = x
    for ch in text:
        rows = _DIGITS.get(ch)
        if rows is None:
            cx += 4 * scale
            continue
        for ry, bits in enumerate(rows):
            for rx in range(3):
                if bits & (1 << (2 - rx)):
                    py0, px0 = y + ry * scale, cx + rx * scale
                    py1, px1 = py0 + scale, px0 + scale
                    if px0 >= w or py0 >= h or px1 <= 0 or py1 <= 0:
                        continue
                    image[max(0, py0) : min(h, py1), max(0, px0) : min(w, px1)] = color
        cx += 4 * scale


def render_overlays(source, records, out_dir) -> list[str]:
    """Write one annotated PPM per frame. Returns the file paths.

    source: bytes, a path, or a binary file object; a path or file object
    is streamed, never read whole.
    """
    with open_source(source) as source:
        _, background_chunk, frames = read_stream(source)

        by_frame = defaultdict(list)
        for r in records:
            by_frame[r.frame_index].append(r)

        os.makedirs(out_dir, exist_ok=True)
        background = background_chunk.rgb if background_chunk is not None else None
        paths = []
        for frame in frames:
            if frame.kind == "I":
                image = decode_full(frame.intra_payload)
                if background is None:
                    # A copy: the boxes drawn on this frame must not show
                    # on the P-frames drawn over it.
                    background = image.copy()
            else:  # frame 0 is an I-frame, so background is set by now
                image = background.copy()

            for rec in sorted(by_frame.get(frame.frame_index, []),
                              key=lambda r: r.object_id):
                color = color_for(rec.object_id)
                x0 = int(round(rec.cx - rec.w / 2))
                y0 = int(round(rec.cy - rec.h / 2))
                x1 = x0 + int(round(rec.w))
                y1 = y0 + int(round(rec.h))
                draw_rect(image, x0, y0, x1, y1, color)
                draw_label(image, x0 + 2, y0 + 2, str(rec.object_id), color)

            path = os.path.join(out_dir, f"frame_{frame.frame_index:06d}.ppm")
            write_ppm(path, image)
            paths.append(path)
        return paths
