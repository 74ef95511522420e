"""The CSV lines of a float table, each cell as ``'%.12g' % v`` prints it, by numpy arithmetic.

For a cell v take an exponent x in -4 .. 11 (from log10|v|), k = 11 - x,
s = |v| * 10**k as one double product and m = rint(s).  When s >= 1e11,
m < 1e12 and |s - m| < 0.499, m is printed with the point after x + 1 of its 12
digits (after "0." and -x - 1 zeros when x < 0), trailing zeros and a bare
point dropped.  That is exact: 10**k is an exact double for k <= 15, and
s < 2**40 is within 2**-14 of |v| 10**k, so m is the correctly rounded 12-digit
significand, with no tie; the bounds on s and m make x the exponent %g sees
after rounding (s = 1e11 from a |v| just under 10**x rounds to 10**x at either
exponent), and for it %g prints fixed notation.  Every other cell is printed by
``'%.12g' % v`` itself: zeros, infinities, exponent notation, cells within 0.001
of a rounding tie or past a carry to 1e12, and any cell whose x was wrong; NaN
is the empty cell.

This code is kept apart from ``cli``: with no bytecode cache, a process compiles
``cli`` at import, and compiling it with this code inside raised the peak RSS
of short CLI runs by about 0.5 MB (perfbench's ``peak_rss_mb``, every workload).
"""
import functools
import itertools

import numpy as np

#: 10**(11 - x), exact, at e = x + 4 for the fixed-notation exponents x = -4 .. 11.
_SCALE = np.array([float(10**k) for k in range(15, -1, -1)])
#: The sign and the "0." .. "0.000" of x < 0, right-aligned in 8 bytes, at 16*(v < 0) + e.
_PREFIX = np.frombuffer(b"".join(
    (b"-" * neg + (b"0." + b"0" * (3 - e) if e < 4 else b"")).rjust(8, b"\0")
    for neg in (0, 1) for e in range(16)), "<u8")
#: 13 p at e, where p = max(x + 1, 0) of m's 12 digits come before the point.
_POINT_ROW = np.array([13 * max(e - 3, 0) for e in range(16)])

# The digit tables are built on first use, from Python bytes: a process writing no
# float table never needs them, and building them runs no numpy code that float_lines
# does not run itself (which would add to a process's peak RSS).


@functools.cache
def _group_tables():
    """The 4-digit groups 0000 .. 9999 (their ASCII digits read as a little-endian word,
    and their trailing zeros), and m's significant digits q at 25 z_lo + 5 z_mid + z_hi,
    the trailing zeros of its groups."""
    digits = bytes(itertools.chain.from_iterable(itertools.product(b"0123456789", repeat=4)))
    # a 1 at each multiple of 10**i, for i = 1 .. 4
    zeros = sum(np.frombuffer((b"\1" + bytes(10**i - 1)) * 10**(4 - i), np.uint8)
                for i in range(1, 5))
    significant = bytes(12 - (lo if lo < 4 else 4 + (mid if mid < 4 else 4 + hi))
                        for lo in range(5) for mid in range(5) for hi in range(5))
    return (np.frombuffer(digits, "<u4").astype(np.uint64), zeros,
            np.frombuffer(significant, np.uint8))


@functools.cache
def _digit_masks():
    """The (kept, moved, point) byte masks of a 16-byte digit area, as a (3, 2, 169)
    array of "<u8" words at 13 p + q.

    m's 12 digits lie from byte 0; p of them come before the point and q are
    significant.  When a fraction follows (q > p >= 1) the digits [0, p) are
    kept, the point is byte p and the digits [p, q) move one byte up; otherwise
    the digits [0, max(p, q)) are kept.
    """
    rows = []
    for p in range(13):
        for q in range(13):
            if q > p >= 1:
                masks = b"\xff" * p, bytes(p + 1) + b"\xff" * (q - p), bytes(p) + b"."
            else:
                masks = b"\xff" * max(p, q), b"", b""
            rows.append(b"".join(m.ljust(16, b"\0") for m in masks))
    return np.frombuffer(b"".join(rows), "<u8").reshape(169, 3, 2).transpose(1, 2, 0).copy()


def float_lines(block: np.ndarray) -> bytes:
    """The lines of a float block, each cell as '%.12g' % v prints it and NaN as "".

    A cell v is a 24-byte slot: sign and prefix, 16 bytes of digits and point,
    and its separator last; zero bytes pad, and one translate drops them.  With
    e = x + 4 from log10|v|, s = |v| * 10**(11 - x) and m = rint(s), the slot is
    built from m when s >= 1e11, m < 1e12 and |s - m| < 0.499 (see the module
    docstring); every other cell is '%.12g' % v written into its slot.
    """
    v = block.astype(float, copy=False).ravel()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        e = (np.log10(a) + 4.0).astype(np.intp)
        e &= 15  # any e in 0 .. 15 is safe: a wrong one fails the test on s
        s = a * _SCALE[e]
        m = np.rint(s)
        fast = (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.499)
        m = np.fmax(np.fmin(m, 999_999_999_999.0), 1e11).astype(np.int64)
    hi, upper = m // 100_000_000, m // 10_000
    mid, lo = upper - hi * 10_000, m - upper * 10_000
    digits, zeros, significant = _group_tables()
    kept, moved, dot = _digit_masks()
    d0 = digits[hi] | digits[mid] << 32
    d1 = digits[lo]
    k = _POINT_ROW[e]
    k += significant[zeros[lo] * np.uint8(25) + zeros[mid] * np.uint8(5) + zeros[hi]]
    slots = np.empty((len(v), 3), "<u8")
    slots[:, 0] = _PREFIX[e + 16 * (v < 0)]
    slots[:, 1] = d0 & kept[0][k] | (d0 << 8) & moved[0][k] | dot[0][k]
    slots[:, 2] = d1 & kept[1][k] | (d1 << 8 | d0 >> 56) & moved[1][k] | dot[1][k]
    text = slots.view(np.uint8).reshape(block.shape + (24,))
    text[:, :, 23] = ord(",")
    text[:, -1, 23] = ord("\n")
    slow = np.flatnonzero(~fast)
    if len(slow):
        text.reshape(-1, 24)[slow, :23] = np.array(
            [b"%.12g" % x if x == x else b"" for x in v[slow].tolist()], dtype="S23"
        ).view(np.uint8).reshape(-1, 23)
    return text.tobytes().translate(None, b"\0")
