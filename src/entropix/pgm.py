"""ASCII (P2) Netpbm grayscale output for entropy maps."""

from typing import Tuple

import numpy as np

from entropix import textio


def entropy_to_pixels(entropy_map: np.ndarray, vocab: int) -> np.ndarray:
    """Scale entropies in [0, ln V] onto [0, 255]."""
    scale = 255.0 / np.log(vocab)
    pix = np.rint(np.asarray(entropy_map) * scale).astype(int)
    return np.clip(pix, 0, 255)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write pixels, each in [0, 255], as an ASCII (P2) file; refuse any
    other value with a ValueError before the file is opened."""
    pix = np.asarray(pixels).astype(np.int64)
    h, w = pix.shape
    if pix.size and not (pix.min() >= 0 and pix.max() <= 255):
        raise ValueError("pixel out of range")
    with open(path, "wb") as f:
        f.write(f"P2\n{w} {h}\n255\n".encode())
        textio.write_rows(f, pix, " ")


def read_pgm(path) -> np.ndarray:
    """Minimal reference parser for P2 files (comments allowed)."""
    with open(path) as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "P2":  # the header: P2 w h maxval
        raise ValueError("not an ASCII PGM file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array([int(t) for t in tokens[4:]])
    if data.size != w * h:
        raise ValueError("pixel count does not match header")
    if np.any(data < 0) or np.any(data > maxval):
        raise ValueError("pixel out of range")
    return data.reshape(h, w)
