"""The text of float64 and int64 columns, ``repr`` byte for byte, as numpy byte blocks.

``repr`` of a float is the shortest decimal string that reads back as the
same double.  ``float_field`` finds those digits for a whole column at once
with Ryū's d2s (U. Adams, "Ryū: fast float-to-string conversion", PLDI
2018): its 125-bit tables of 5^±q and its shifted products are held in
32-bit limbs of ``np.uint64``, and the digits to drop are counted only
over the values that still have one to drop.  The digits are then laid out by
``repr``'s rules: fixed point for a decimal point position decpt (value =
0.d₁d₂… × 10^decpt) in -3..16, else scientific with a two- or three-digit
exponent; ``nan``, ``inf``, ``-inf`` and ``-0.0`` as ``repr`` writes them.

A field is a list of segments, ``uint8`` arrays of the values' shape plus
a column axis, in which a NUL byte stands for no character.  ``join_rows``
puts fields side by side with commas, ends each row with a newline and
drops the NULs.  Every integer step stays in ``np.uint64``: an ``int64``
operand would promote the pair to float64 and lose bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_field", "int_field", "join_rows"]

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_SIGN_BIT = _U64(1 << 63)
_MANTISSA = _U64((1 << 52) - 1)


def _pow5bits(e):
    """Bit length of 5^e (1 at e = 0), for e in 0..3528."""
    return ((e * 1217359) >> 19) + 1


def _exponent_tables():
    """Ryū's per-exponent constants, indexed by the biased exponent of a finite double.

    Returns the 125-bit multiplier as four rows of 32-bit limbs, the shift
    of the product less 96, the decimal exponent of the product, the mask of
    the low bits whose zeros make vr exact (all ones where that is decided
    otherwise), whether the exponent is one of the two smallest negative
    ones, and 5^q where the divisibility by 5^q decides it (0 elsewhere).
    """
    e2 = np.maximum(np.arange(2047), 1) - 1077  # two more bits for the interval bounds
    pos = e2 >= 0
    e = np.abs(e2)
    q = np.where(pos, ((e * 78913) >> 18) - (e > 3), ((e * 732923) >> 20) - (e > 1))
    i = e - q  # the power of 5 of an e2 < 0 product
    # ⌊2^(pow5bits(q)+124) / 5^q⌋ + 1 for e2 >= 0 (q <= 290), then 5^i on 125 bits (i <= 325)
    pow5 = [5 ** k for k in range(326)]
    table = [((1 << (_pow5bits(k) + 124)) // pow5[k]) + 1 for k in range(291)]
    table += [(p << 125) >> _pow5bits(k) for k, p in enumerate(pow5)]
    limbs = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in table), dtype="<u4")
    mul = np.ascontiguousarray(limbs.reshape(-1, 4)[np.where(pos, q, 291 + i)].T, dtype=_U64)
    shift = np.where(pos, q - e2 + _pow5bits(q) + 124, q - _pow5bits(i) + 125) - 96
    low = np.where(~pos & (q < 63), (1 << np.minimum(q, 62)) - 1, -1).astype(_U64)
    p5 = np.where(pos & (q <= 21), np.array(pow5[:22], dtype=_U64)[np.minimum(q, 21)], 0)
    return (mul, shift.astype(_U64), np.where(pos, q, q + e2), low, ~pos & (q <= 1),
            p5.astype(_U64))


def _digit_table() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one uint32, in byte order."""
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        table[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    return table.reshape(10000, 4).view(np.uint32).ravel()


_MUL, _SHIFT, _EXP10, _LOW_BITS, _TINY, _POW5_Q = _exponent_tables()
_POW10 = _U64(10) ** np.arange(20, dtype=_U64)
_DIGITS4 = _digit_table()


def _mul_shift(m: np.ndarray, mul: list, b: np.ndarray) -> np.ndarray:
    """⌊m · mul / 2^(96+b)⌋ for m < 2^55, mul < 2^128 as four 32-bit limbs and b < 32.

    Schoolbook on 32-bit limbs, one row per limb of m: every partial sum of
    a row fits in 64 bits.  Only bits 96 and up of the 192-bit product are
    kept.
    """
    a, c = m & _LO32, m >> _U64(32)  # c < 2^23
    t = a * mul[1] + (a * mul[0] >> _U64(32))
    l1 = t & _LO32
    t = a * mul[2] + (t >> _U64(32))
    l2 = t & _LO32
    t = a * mul[3] + (t >> _U64(32))
    l3, l4 = t & _LO32, t >> _U64(32)
    t = c * mul[1] + l2 + (c * mul[0] + l1 >> _U64(32))
    t = c * mul[2] + l3 + (t >> _U64(32))
    l3 = t & _LO32
    high = c * mul[3] + l4 + (t >> _U64(32))  # bits 128..191
    return (l3 >> b) | (high << (_U64(32) - b))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with digits · 10^exponent the shortest round-trip decimal.

    ``bits`` holds the bit patterns of positive, finite, nonzero doubles.
    Among the shortest decimals that read back as the double, the nearest
    is taken, ties to even, as ``repr`` does.
    """
    ieee_exp = (bits >> _U64(52)).astype(np.intp)
    mantissa = bits & _MANTISSA
    m2 = np.where(ieee_exp == 0, mantissa, mantissa | _U64(1 << 52))
    accept = (m2 & _U64(1)) == 0  # an even mantissa owns the bounds of its interval
    mm_shift = ((mantissa != 0) | (ieee_exp <= 1)).astype(_U64)
    mv = m2 << _U64(2)
    mp, mm = mv + _U64(2), mv - _U64(1) - mm_shift
    mul, shift = [limbs[ieee_exp] for limbs in _MUL], _SHIFT[ieee_exp]
    vr, vp, vm = (_mul_shift(m, mul, shift) for m in (mv, mp, mm))

    # whether the digits to be dropped from vr (vm) are all zeros, where
    # that is decided; the doubles from 2^54 up test divisibility by 5^q
    tiny = _TINY[ieee_exp]
    vr_zeros = (mv & _LOW_BITS[ieee_exp]) == 0
    vm_zeros = tiny & accept & (mm_shift == 1)
    vp -= (tiny & ~accept).astype(_U64)
    at = np.flatnonzero(_POW5_Q[ieee_exp])
    p5 = _POW5_Q[ieee_exp[at]]
    mv5 = mv[at] % _U64(5) == 0
    vr_zeros[at] = mv5 & (mv[at] % p5 == 0)
    vm_zeros[at] = ~mv5 & accept[at] & (mm[at] % p5 == 0)
    vp[at] -= (~mv5 & ~accept[at] & (mp[at] % p5 == 0)).astype(_U64)

    # drop the digits below the highest one where vp and vm differ
    ten = _U64(10)
    removed = np.zeros(bits.size, dtype=np.intp)
    at = np.flatnonzero(vp // ten > vm // ten)
    while at.size:
        removed[at] += 1
        scale = _POW10[removed[at[0]] + 1]
        at = at[vp[at] // scale > vm[at] // scale]
    below = _POW10[np.maximum(removed - 1, 0)]
    r = vr // below  # vr less all but the last dropped digit
    vr_zeros &= vr == r * below
    r10 = r // ten
    cut = removed > 0
    last = np.where(cut, r - r10 * ten, _U64(0))  # the last digit dropped from vr
    vr = np.where(cut, r10, vr)
    scale = _POW10[removed]
    m = vm // scale
    vm_zeros &= vm == m * scale
    vm, vp = m, vp // scale
    at = np.flatnonzero(vm_zeros)
    while at.size:  # vm is exact: its trailing zeros may go too
        m10 = vm[at] // ten
        keep = vm[at] == m10 * ten
        at, m10 = at[keep], m10[keep]
        r10 = vr[at] // ten
        vr_zeros[at] &= last[at] == 0
        last[at] = vr[at] - r10 * ten
        vr[at], vm[at] = r10, m10
        vp[at] //= ten
        removed[at] += 1

    last[vr_zeros & (last == 5) & (vr & _U64(1) == 0)] = 4  # an exact tie rounds to even
    up = ((vr == vm) & ~(accept & vm_zeros)) | (last >= 5)
    return vr + up.astype(_U64), _EXP10[ieee_exp] + removed


def _count_digits(x: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each uint64, 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, x, side="right"), 1)


def _digit_text(x: np.ndarray, width: int) -> np.ndarray:
    """(len, width) uint8: the last ``width`` >= 1 decimal digits of each uint64."""
    groups = []
    for _ in range((width - 1) // 4):
        high = x // _U64(10000)
        groups.append(x - high * _U64(10000))
        x = high
    text = _DIGITS4[np.stack([x] + groups[::-1], axis=1)].view(np.uint8)
    return text[:, text.shape[1] - width:]


def _span(text: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Segment of the columns lo..hi-1 of each row of ``text`` (< 256 columns), NUL elsewhere."""
    cols = np.arange(text.shape[1], dtype=np.uint8) - lo.astype(np.uint8)[:, None]  # wraps < lo
    return text * (cols < (hi - lo).astype(np.uint8)[:, None])


def _right(x: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Segment of the last ``count`` decimal digits of each uint64."""
    width = int(count.max())
    return _span(_digit_text(x, width), width - count, np.full_like(count, width))


def _columns(text: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Segment of columns lo..hi-1 of each row of ``text``, cut to the columns any row uses."""
    start = int(lo.min())
    return _span(text[:, start:int(hi.max())], lo - start, hi - start)


def _minus(negative: np.ndarray) -> list:
    """The sign segment, if any row is negative."""
    return [np.where(negative, ord("-"), 0).astype(np.uint8)[:, None]] if negative.any() else []


def int_field(values) -> list:
    """The segments of ``str`` of each int64 of an array."""
    v = np.asarray(values, dtype=np.int64)
    flat = v.ravel()
    negative = flat < 0
    magnitude = np.where(negative, -flat.view(_U64), flat.view(_U64))  # |v|, -2^63 too
    field = _minus(negative) + [_right(magnitude, _count_digits(magnitude))]
    return [seg.reshape(v.shape + seg.shape[1:]) for seg in field]


def float_field(values) -> list:
    """The segments of ``repr`` of each float64 of an array."""
    shape = np.shape(values)
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(_U64)
    finite = np.isfinite(x)
    nonzero = np.flatnonzero(finite & (x != 0))
    digits = np.zeros(x.size, dtype=_U64)
    exponent = np.zeros(x.size, dtype=np.int64)
    digits[nonzero], exponent[nonzero] = _shortest(bits[nonzero] & ~_SIGN_BIT)

    count = _count_digits(digits)
    decpt = count + exponent  # the value is 0.d₁d₂… × 10^decpt
    sci = finite & ((decpt <= -4) | (decpt > 16))
    below_one = finite & ~sci & (decpt <= 0)
    # the digits left-aligned on 17 zero-filled columns: the first `whole`
    # columns go before the point and the next `frac` after it
    text = _digit_text(digits * _POW10[17 - count], 17)
    whole = np.where(sci, 1, np.where(finite, np.maximum(decpt, 0), 3))  # 3: "nan", "inf"
    # the digits after the point; a fixed-point integer ends in ".0"
    frac = np.where(finite, np.maximum(count - whole, ~sci & (decpt >= count)), 0)
    if not finite.all():
        for word, rows in ((b"nan", np.isnan(x)), (b"inf", np.isinf(x))):
            text[rows, :3] = np.frombuffer(word, dtype=np.uint8)

    field = _minus((bits >> _U64(63)).astype(bool) & ~np.isnan(x))
    field.append(_columns(text, np.zeros_like(whole), whole))
    # "0." and up to three zeros before the digits of a value below 1, else "."
    point = np.frombuffer(b"0.000", dtype=np.uint8)[None, :].repeat(x.size, axis=0)
    field.append(_columns(point, np.where(below_one, 0, 1),
                          1 + (frac > 0) + np.where(below_one, -decpt, 0)))
    field.append(_columns(text, whole, whole + frac))
    if sci.any():  # "e", the exponent's sign and its two or three digits
        e = decpt - 1
        tail = np.empty((x.size, 5), dtype=np.uint8)
        tail[:, 0] = ord("e")
        tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
        tail[:, 2:] = _digit_text(np.abs(e).astype(_U64), 3)
        tail[:, 2] *= np.abs(e) >= 100
        tail *= sci[:, None]
        field.append(tail)
    return [seg.reshape(shape + seg.shape[1:]) for seg in field]


def join_rows(fields: list) -> bytes:
    """The text of rows whose fields are joined by commas and ended by a newline.

    The fields' segments are broadcast against each other, and the rows are
    taken in C order of the broadcast shape.
    """
    segments = [seg for field in fields for seg in field]
    shape = np.broadcast_shapes(*(seg.shape[:-1] for seg in segments))
    text = np.empty(shape + (sum(seg.shape[-1] for seg in segments) + len(fields),),
                    dtype=np.uint8)
    col = 0
    for k, field in enumerate(fields):
        for seg in field:
            text[..., col:col + seg.shape[-1]] = seg
            col += seg.shape[-1]
        text[..., col] = ord("," if k + 1 < len(fields) else "\n")
        col += 1
    # compress beats flat[flat != 0]; 64 KiB at a time bounds its index array
    flat, step = text.ravel(), 1 << 16
    return b"".join(np.compress(flat[i:i + step] != 0, flat[i:i + step]).tobytes()
                    for i in range(0, flat.size, step))
