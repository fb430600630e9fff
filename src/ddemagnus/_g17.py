"""Vectorised ``%.17g``: byte-identical to ``b"%.17g" % x`` for every double.

For 1e-4 <= |x| < 1e16 the 17 significant digits of x have exponent e
between -4 and 15, so ``%.17g`` writes x in fixed notation with 16 - e
fraction digits, trailing zeros (and a bare point) cut.  The scaled value
x * 10^(16-e) is formed exactly as hi + lo by Dekker's two-product, since
10^(16-e) <= 10^20 is itself a double; rounding hi + lo half to even gives
the digit string D, accepted when 10^16 <= D < 10^17 (that also catches an
exponent from ``log10`` that is one off).  Every other value (zero, -0,
|x| < 1e-4, |x| >= 1e16, NaN, +-inf, a rejected D) goes through Python's
``%`` one at a time.

Each value is laid out in a canvas of ``WORDS`` 4-byte words, with zero
bytes as padding anywhere inside it; deleting the zero bytes leaves the
text.  The 17 digits are one lead digit and four words of four, and they
are written twice, masked: once as the integer part (digits 0..e) and
once as the fraction (digits e+1 up to the last nonzero one)::

    word 0     sign, -, -, lead          integer part
    words 1-4  digits 1-16
    word 5     "0" if e < 0, ".", "0", "0"
    word 6     "0", -, -, lead           fraction
    words 7-10 digits 1-16
"""

from __future__ import annotations

import numpy as np

WORDS = 11


def _words(data) -> np.ndarray:
    """uint32 words whose memory bytes are ``data`` (last axis a multiple of 4)."""
    return np.ascontiguousarray(data, dtype=np.uint8).view(np.uint32)


_POW10 = np.array([float(10 ** k) for k in range(23)])      # exact doubles
_SPLIT = 134217729.0                                        # 2^27 + 1 (Veltkamp)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_Z = ord("0")
_MINUS = _words([ord("-"), 0, 0, 0])[0]

# the four digits of 0..9999 (small integer types keep the import's temporaries small)
_QUAD_DIGITS = (np.arange(10000, dtype=np.int16)[:, None]
                // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
# the lead digits "0" .. "9" and the quads "0000" .. "9999" as words
_LEAD = _words(np.c_[np.zeros((10, 3)), np.arange(10) + _Z])[:, 0]
_QUADS = _words(_QUAD_DIGITS + _Z)[:, 0]
# per quad i = 0..3 (digits 4i+1..4i+4): the index of its last nonzero digit, 0 if none
_LAST = (4 - np.argmax(_QUAD_DIGITS[:, ::-1] != 0, axis=1)).astype(np.int8)
_LAST = np.where(_QUAD_DIGITS.any(axis=1), _LAST + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0)

# Per (e, l), e = -4..15 the exponent and l = 0..16 the index of the last
# nonzero digit, at row (e + 4) * 17 + l: the bytes of each word that keep
# a digit (_MASK) and the fixed bytes of words 5 and 6 (_FIXED), stored
# word by word.  Digit i sits in byte 3 (i = 0) or 3 + i of the integer
# part and 24 bytes further on in the fraction.
_E, _L = np.divmod(np.arange(20 * 17), 17)
_E -= 4
_AT = np.r_[3, 4:20]
_mask = np.zeros((20 * 17, 4 * WORDS), np.uint8)
_mask[:, _AT] = 255 * (np.arange(17) <= _E[:, None])
_mask[:, _AT + 24] = 255 * ((np.arange(17) > _E[:, None]) & (np.arange(17) <= _L[:, None]))
_fixed = np.zeros_like(_mask)
_fixed[:, 20:25] = (np.c_[_E < 0, _L > _E, _E < -1, _E < -2, _E < -3]
                    * [_Z, ord("."), _Z, _Z, _Z])
_MASK = _words(_mask).T.copy()
_FIXED = _words(_fixed).T.copy()
del _E, _L, _AT, _mask, _fixed


def format_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%.17g`` text of each float64 in the 1-D ``x`` into ``out``.

    ``out`` is a uint32 array of shape ``(len(x), WORDS)`` (a strided
    view is fine); every word of it is written.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - e
    # hi + lo = a * 10^k exactly
    hi = a * _POW10.take(k)
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    whole = np.floor(lo)
    lo -= whole
    # hi >= 2^53 is an integer wherever D can pass the range test below
    D = hi.astype(np.int64)
    D += whole.astype(np.int64)
    D += (lo > 0.5) | ((lo == 0.5) & (D & 1 == 1))
    fast &= (D >= 10 ** 16) & (D < 10 ** 17)
    D[~fast] = 10 ** 16

    top = D // 10 ** 8
    bottom = (D - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10 ** 8
    high = top // 10 ** 4
    quads = [high - lead * 10 ** 4, top - high * 10 ** 4]
    high = bottom // 10 ** 4
    quads += [high, bottom - high * 10 ** 4]
    last = _LAST[0].take(quads[0])
    for i in (1, 2, 3):
        np.maximum(last, _LAST[i].take(quads[i]), out=last)
    row = np.clip(e, -4, 15)
    row += 4
    row *= 17
    row += last

    for w, word in enumerate([_LEAD.take(lead)] + [_QUADS.take(q) for q in quads]):
        out[:, w] = word & _MASK[w].take(row)
        out[:, 6 + w] = word & _MASK[6 + w].take(row)
    out[:, 0] |= (x < 0) * _MINUS
    out[:, 5] = _FIXED[5].take(row)
    out[:, 6] |= _FIXED[6].take(row)

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = b"".join((b"%.17g" % v).ljust(4 * WORDS, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(texts, np.uint32).reshape(-1, WORDS)
