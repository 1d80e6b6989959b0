"""Memory layouts an (h, w, 3) uint8 image can come in, for tests that
pixel code gives the same results whatever the layout."""

import numpy as np

# "interleaved": a C-contiguous (h, w, 3) array, as a stored background
# or a synthesized frame is. "planes": the (h, w, 3) view of its own
# (3, h, w) channel planes, as ``decode_full`` returns. "cropped planes":
# a view cut from larger planes, as a partially decoded tile is.
LAYOUTS = ("interleaved", "planes", "cropped planes")


def in_layout(image: np.ndarray, layout: str) -> np.ndarray:
    """A new array with the values of ``image`` in ``layout``."""
    if layout == "interleaved":
        return image.copy()
    h, w = image.shape[:2]
    pad = 0 if layout == "planes" else 3
    planes = np.zeros((3, h + 2 * pad, w + 2 * pad), dtype=np.uint8)
    planes[:, pad : pad + h, pad : pad + w] = image.transpose(2, 0, 1)
    return planes.transpose(1, 2, 0)[pad : pad + h, pad : pad + w]
