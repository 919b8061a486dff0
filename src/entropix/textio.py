"""Decimal text of numeric arrays, written by array operations: each float
exactly as ``f"{v:.17g}"`` prints it, and each integer as ``str(v)``.

Python formats a float through its correctly rounded dtoa, with big-integer
arithmetic, at about a microsecond a value: most of what writing a
128 x 128 entropy map costs. Here, 17 significant digits come from a
double-double product instead. For |v| in [1e-284, 1e300) with decimal
exponent E (the estimate floor(log10 |v|)), y = |v| 10^s with s = 16 - E
lies in [1e16, 1e17), so its nearest integer D holds the 17 digits:
- 10^s is held as two doubles, hi = 10^s rounded and lo = (10^s - hi)
  rounded, both correctly rounded from exact integers, so hi + lo is 10^s
  within 2^-106 of it.
- |v| hi is split exactly into ph + pe (Dekker's product, by Veltkamp's
  halves), and pl = pe + |v| lo is rounded twice. So ph + pl is y within
  2^-104 y < 2^-47. Where floor(y) >= 1e16, ph exceeds 2^53 and is an
  integer, so ph + floor(pl) is floor(y), and rounding pl's fraction gives
  D.
- Where pl's fraction lies within 2^-45 of one half, that rounding is not
  certain (an exact tie rounds half to even), and where floor(y) or D falls
  outside [1e16, 1e17) the exponent estimate is off by one (a value at a
  power of ten, or one that rounds up to one).
Such values, and those outside the table's range (zero, subnormals,
infinities and NaN among them), are printed by ``f"{v:.17g}"`` itself.
Every other value is written from D and E in the "g" layout: fixed notation
for -4 <= E < 17 and exponent notation otherwise, trailing zeros and a bare
point dropped, the exponent with a sign and at least two digits.

A value's characters are laid out in one row of fixed columns that holds
every character any layout uses (``_FLOAT_ROW``), and a mask keeps the
ones its layout prints, in order. Apart from the sign, the mask depends
only on the layout and the count of significant digits, so it is read from
a table of those. The kept characters of all rows, in order, are the text.
Both forms work ``_CHUNK`` values at a time, so their working memory stays
near one of the hash kernel's scratch buffers whatever the input size. The
tables are built on first use, not at import.
"""

import functools

import numpy as np

from entropix._kernels_py import _BLOCK_ELEMS

_DIGITS = 17
_E_LO, _E_HI = -284, 299  # the decimal exponents the table covers
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant for 26-bit halves
_TIE_MARGIN = 2.0 ** -45
_D_LO, _D_HI = 10 ** (_DIGITS - 1), 10 ** _DIGITS
# the columns of one float: sign, "0.000" (fixed notation below 1),
# 17 digits each followed by a point, "e", the exponent's sign and 3 digits,
# the separator
_FLOAT_ROW = np.frombuffer(b"-0.000" + b"0." * _DIGITS + b"e+000,",
                           dtype=np.uint8)
_LEAD, _DIGIT0, _EXP = 1, 6, 6 + 2 * _DIGITS
# layouts: fixed notation at E = -4 ... 16, then exponent notation with a
# two-digit and with a three-digit exponent
_FIXED_LO, _SCI2, _SCI3 = -4, _DIGITS + 4, _DIGITS + 5
# values encoded at once: their rows of characters take about 190 KB,
# within one of the hash kernel's 256 KiB scratch buffers
_CHUNK = _BLOCK_ELEMS // 8
_INT_POWERS = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)


def write_rows(f, values, sep: str = ",") -> None:
    """Write the rows of a 2-D array to the binary file f, each row's
    values joined by the one character ``sep`` and ended by a newline: a
    float array's values as ``f"{v:.17g}"`` prints them, an integer
    array's (taken as int64) as ``str`` does."""
    a = np.asarray(values)
    width = a.shape[1]
    if width == 0:
        f.write(b"\n" * a.shape[0])
        return
    flat = a.reshape(-1)
    encode = _floats if a.dtype.kind == "f" else _ints
    for lo in range(0, flat.size, _CHUNK):
        block = flat[lo:lo + _CHUNK]
        # the separator after each value: the newline ends a row
        ends = np.full(block.size, ord(sep), dtype=np.uint8)
        ends[(width - 1 - lo) % width::width] = ord("\n")
        f.write(encode(block, ends))


def _split(a):
    """Veltkamp's split of a into two doubles of at most 26 significant
    bits each, summing to a exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _powers():
    """(hi, lo), each an array indexed by E - _E_LO, for 10^s with
    s = 16 - E: hi is 10^s rounded, lo the rest rounded. Both are correctly
    rounded quotients of exact integers."""
    hi, lo = [], []
    for e in range(_E_LO, _E_HI + 1):
        s = _DIGITS - 1 - e
        if s >= 0:
            n = 10 ** s
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            d = 10 ** -s
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every call
    return hi, lo


@functools.cache
def _exponents():
    """The exponent's sign and three digits, for each E the table covers."""
    text = "".join(f"{e:+04d}" for e in range(_E_LO, _E_HI + 1))
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, 4)


@functools.cache
def _float_masks():
    """The kept columns of ``_FLOAT_ROW`` but the sign for each layout and
    count of significant digits (1 to 17), indexed as in ``_floats``."""
    layout, nd = (a.ravel() for a in np.meshgrid(
        np.arange(_SCI3 + 1), np.arange(1, _DIGITS + 1), indexing="ij"))
    e = layout + _FIXED_LO  # the exponent, for fixed notation
    fixed = layout < _SCI2
    below = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    keep = np.zeros((layout.size, _FLOAT_ROW.size), dtype=bool)
    keep[:, _LEAD] = keep[:, _LEAD + 1] = below
    for z in range(3):
        keep[:, _LEAD + 2 + z] = below & (e < -1 - z)
    places = np.arange(_DIGITS)
    # fixed notation at E >= 0 keeps its integer digits, zeros or not
    shown = np.where(fixed & (e >= 0), np.maximum(e + 1, nd), nd)
    keep[:, _DIGIT0:_EXP:2] = places < shown[:, None]
    point = np.where(fixed, np.where((e >= 0) & (nd > e + 1), e, -1),
                     np.where(nd > 1, 0, -1))
    keep[:, _DIGIT0 + 1:_EXP:2] = places == point[:, None]
    keep[:, _EXP:_EXP + 5] = ~fixed[:, None]
    keep[:, _EXP + 2] &= layout == _SCI3
    keep[:, -1] = True
    keep.flags.writeable = False  # shared by every call
    return keep


def _decimal(ax: np.ndarray):
    """(D, E, sure) for the magnitudes ax: the 17-digit integer D and the
    exponent E of each value, and whether the product certifies them (where
    it does not, D = 10^16 holds the place)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    inside = (e >= _E_LO) & (e <= _E_HI) & (ax < 1e300)
    e = np.where(inside, e, 0.0).astype(np.int64)
    ax = np.where(inside, ax, 1.0)
    hi, lo = (t.take(e - _E_LO) for t in _powers())
    (xh, xl), (hh, hl) = _split(ax), _split(hi)
    ph = ax * hi
    pl = ((xh * hh - ph) + xh * hl + xl * hh) + xl * hl + ax * lo
    whole = np.floor(pl)
    frac = pl - whole
    d = ph.astype(np.int64) + whole.astype(np.int64)  # floor(y)
    sure = inside & (np.abs(frac - 0.5) > _TIE_MARGIN) & (d >= _D_LO)
    d = np.where(frac > 0.5, d + 1, d)
    sure &= d < _D_HI
    d[~sure] = _D_LO
    return d, e, sure


def _floats(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The text of the float values x, each followed by its byte of
    ``ends``, as bytes in an array."""
    x = x.astype(np.float64, copy=False)
    d, e, sure = _decimal(np.abs(x))

    # D's digits, last first, counting the trailing zeros as they come
    digits = np.empty((_DIGITS, x.size), dtype=np.uint8)
    zeros = np.zeros(x.size, dtype=np.int64)
    trailing = np.ones(x.size, dtype=np.int64)
    for k in range(_DIGITS - 1, -1, -1):
        q = d // 10
        digit = d - q * 10
        digits[k] = digit + ord("0")
        trailing = np.where(digit == 0, trailing, 0)
        zeros += trailing
        d = q
    row = np.empty((x.size, _FLOAT_ROW.size), dtype=np.uint8)
    row[:] = _FLOAT_ROW
    row[:, _DIGIT0:_EXP:2] = digits.T
    row[:, _EXP + 1:_EXP + 5] = _exponents().take(e - _E_LO, axis=0)
    row[:, -1] = ends

    fixed = (e >= _FIXED_LO) & (e < _DIGITS)
    layout = np.where(fixed, e - _FIXED_LO,
                      np.where(np.abs(e) >= 100, _SCI3, _SCI2))
    keep = _float_masks().take(layout * _DIGITS + _DIGITS - 1 - zeros,
                               axis=0)
    keep[:, 0] = x < 0
    for i in np.flatnonzero(~sure).tolist():
        text = f"{float(x[i]):.17g}".encode()
        row[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :-1] = False
        keep[i, :len(text)] = True
    return np.compress(keep.reshape(-1), row.reshape(-1))


def _ints(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The text of the integer values x (as int64), each followed by its
    byte of ``ends``, as bytes in an array."""
    x = x.astype(np.int64, copy=False)
    neg = x < 0
    mag = np.abs(x).astype(np.uint64)  # -2^63 too: abs wraps to itself
    nd = np.searchsorted(_INT_POWERS, mag, side="right") + 1
    width = int(nd.max(initial=1))
    row = np.empty((x.size, width + 2), dtype=np.uint8)
    row[:, 0] = ord("-")
    for k in range(width, 0, -1):
        q = mag // 10
        row[:, k] = mag - q * 10 + ord("0")
        mag = q
    row[:, -1] = ends
    keep = np.empty(row.shape, dtype=bool)
    keep[:, 0] = neg
    keep[:, 1:-1] = np.arange(width) >= (width - nd)[:, None]
    keep[:, -1] = True
    return np.compress(keep.reshape(-1), row.reshape(-1))
