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

Each value's text starts at the first byte of a canvas of ``WORDS``
little-endian 64-bit words, 24 bytes, and zero bytes pad it after the
text: the longest ``%.17g`` text, such as ``-2.2250738585072014e-308``, is
24 bytes.  The digits are written once.  V is D with a zero digit
inserted after digit e, the place of the point (V = D for e < 0), so the
fraction digits sit one place further on; its 18 digits v0 .. v17 fill
bytes 6..23 of a frame as digit values 0..9.  One right shift per (sign,
e) moves v0 to text byte s - min(e, 0), s = 1 for a minus sign; a fixed
part per (sign, e, L), L the index of V's last nonzero digit, then adds
the sign, the "0." and zeros ahead of the digits for e < 0, the point in
place of the inserted zero, and "0" (0x30) to every digit that is shown::

    e >= 0   [-] v0 .. ve [. v(e+2) .. vL]
    e < 0    [-] 0 . 0^(-e-1) v1 .. vL
"""

from __future__ import annotations

import numpy as np

WORDS = 3

_POW10 = np.array([float(10 ** k) for k in range(23)])      # exact doubles
_SPLIT = 134217729.0                                        # 2^27 + 1 (Veltkamp)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# 9 * 10^k: V = D + floor(|x|) * 9 * 10^(16-e); floor(|x|) = 0 for e < 0
_NINE_POW10 = np.array([9 * 10 ** k if k <= 16 else 0 for k in range(23)], np.int64)


def _words(data) -> np.ndarray:
    """uint64 words whose memory bytes are ``data`` (last axis a multiple of 8)."""
    return np.ascontiguousarray(data, dtype=np.uint8).view(np.uint64)


# the four digits of 0..9999 (small integer types keep the import's temporaries small)
_QUAD_DIGITS = (np.arange(10000, dtype=np.int16)[:, None]
                // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
# frame words of digit values: v0 v1 in bytes 6-7 of the first, and each
# quad in bytes 0-3 of a word (shifted to bytes 4-7 for the second quad)
_PAIR = _words(np.c_[np.zeros((100, 6)), np.arange(100) // 10, np.arange(100) % 10])[:, 0]
_QUAD = _words(np.c_[_QUAD_DIGITS, np.zeros((10000, 4), np.uint8)])[:, 0]
# per quad i = 0..3 (V's digits 4i+2 .. 4i+5): the index in V of its last
# nonzero digit, 0 if it has none
_LAST = (4 - np.argmax(_QUAD_DIGITS[:, ::-1] != 0, axis=1)).astype(np.int8)
_LAST = np.where(_QUAD_DIGITS.any(axis=1), _LAST + np.arange(1, 17, 4, dtype=np.int8)[:, None], 0)

# Per (s, e, L), s = 1 for a minus sign, e = -4..15 and L = 0..17 the last
# nonzero digit of the quads, at row (20 s + e + 4) * 18 + L: the fixed
# bytes of the text, one table per word.  Text byte s - min(e, 0) + v holds
# V's digit v, shown for min(e, 0) <= v <= max(L, e, 1 if e < 0): "." at
# v = e + 1, "0" elsewhere.  Per 20 s + e + 4, the right shift in bits
# that moves frame byte 6 (v0) to text byte s - min(e, 0).
_S, _E, _L = np.unravel_index(np.arange(2 * 20 * 18), (2, 20, 18))
_E -= 4
_first = np.minimum(_E, 0)
_v = np.arange(8 * WORDS) - (_S - _first)[:, None]
_last = np.maximum(_L, np.where(_E < 0, 1, _E))[:, None]
_fixed = np.where((_v >= _first[:, None]) & (_v <= _last),
                  np.where(_v == _E[:, None] + 1, ord("."), ord("0")), 0)
_fixed[:, 0] |= np.where(_S == 1, ord("-"), 0)
_FIXED = _words(_fixed).T.copy()
_SHIFT = (8 * (6 - _S + _first)[::18]).astype(np.uint64)
del _S, _E, _L, _first, _v, _last, _fixed


class Formatter:
    """``%.17g`` of up to ``size`` values per call, with every work array
    allocated once: temporaries made afresh for each call would be handed
    back to the system between calls and paged in again."""

    def __init__(self, size: int):
        self._int = np.empty((2, size), np.int64)
        self._word = np.empty((6, size), np.uint64)
        self._small = np.empty((2, size), np.int8)
        self._flag = np.empty((2, size), bool)

    def __call__(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the ``%.17g`` text of each float64 in the 1-D ``x`` into ``out``.

        ``out`` is a uint64 array of shape ``(len(x), WORDS)`` (a strided
        view is fine); every word of it is written.
        """
        n = len(x)
        # Each work row holds the values on its line, one after the other:
        #   k:  16 - e, then se = 20 s + e + 4, then the table row
        #   V:  V, then its quad 3
        #   s0: |x| and 10^k's low part, then frame word 1
        #   s1: hi, then quad 1, then frame word 2
        #   s2: lo, then quad 0, then the shift
        #   s3: |x|'s high part, then quad 2, then the carry
        #   s4: |x|'s low part, then a temporary
        #   s5: 10^k and its high part, then D and the pair, then a temporary
        k, V = self._int[:, :n]
        s0, s1, s2, s3, s4, s5 = self._word[:, :n]
        last, last_i = self._small[:, :n]
        fast, flag = self._flag[:, :n]

        # take(..., mode="clip") fills out= without a buffer and keeps the
        # indices made from rejected values, which the fallback overwrites,
        # in range
        a, hi, lo, a_hi, a_lo, p = self._word[:, :n].view(np.float64)
        np.abs(x, out=a)
        np.greater_equal(a, 1e-4, out=fast)
        fast &= np.less(a, 1e16, out=flag)
        np.copyto(a, 1.0, where=np.invert(fast, out=flag))
        np.floor(np.log10(a, out=hi), out=hi)
        np.copyto(k, hi, casting="unsafe")
        np.subtract(16, k, out=k)
        np.copyto(V, np.floor(a, out=hi), casting="unsafe")
        # hi + lo = a * 10^k exactly
        np.multiply(a, _POW10.take(k, out=p, mode="clip"), out=hi)
        np.multiply(a, _SPLIT, out=a_hi)
        a_hi -= np.subtract(a_hi, a, out=lo)
        np.subtract(a, a_hi, out=a_lo)
        _POW10_HI.take(k, out=p, mode="clip")
        q = _POW10_LO.take(k, out=a, mode="clip")
        np.multiply(a_hi, p, out=lo)
        lo -= hi
        lo += np.multiply(a_hi, q, out=a_hi)
        lo += np.multiply(a_lo, p, out=p)
        lo += np.multiply(a_lo, q, out=q)
        # hi >= 2^53 is an even integer wherever D can pass the range test
        # below, so rounding lo half to even rounds hi + lo half to even
        D, t = s5.view(np.int64), s4.view(np.int64)
        np.copyto(D, hi, casting="unsafe")
        np.copyto(t, np.rint(lo, out=lo), casting="unsafe")
        D += t
        fast &= np.greater_equal(D, 10 ** 16, out=flag)
        fast &= np.less(D, 10 ** 17, out=flag)

        V *= _NINE_POW10.take(k, out=t, mode="clip")
        V += D
        se = np.subtract(20, k, out=k)
        se += np.multiply(np.less(x, 0, out=flag), 20, out=t)
        pair = np.floor_divide(V, 10 ** 16, out=D)
        V -= np.multiply(pair, 10 ** 16, out=t)
        quad0, quad1, quad2 = (s.view(np.int64) for s in (s2, s1, s3))
        quad3 = V
        np.floor_divide(V, 10 ** 8, out=quad1)
        quad3 -= np.multiply(quad1, 10 ** 8, out=t)
        for top, bottom in ((quad0, quad1), (quad2, quad3)):
            np.floor_divide(bottom, 10 ** 4, out=top)
            bottom -= np.multiply(top, 10 ** 4, out=t)
        _LAST[0].take(quad0, out=last, mode="clip")
        for i, quad in ((1, quad1), (2, quad2), (3, quad3)):
            np.maximum(last, _LAST[i].take(quad, out=last_i, mode="clip"), out=last)

        w1, w2, shift, carry, word, fixed = s0, s1, s2, s3, s4, s5
        for frame_word, (first, second) in ((w1, (quad0, quad1)), (w2, (quad2, quad3))):
            _QUAD.take(first, out=frame_word, mode="clip")
            frame_word |= np.left_shift(_QUAD.take(second, out=word, mode="clip"), 32, out=word)
        _SHIFT.take(se, out=shift, mode="clip")
        np.subtract(64, shift, out=carry)
        row = se
        row *= 18
        row += last
        frame = (_PAIR.take(pair, out=word, mode="clip"), w1, w2)
        for w in range(WORDS):
            np.right_shift(frame[w], shift, out=word)
            if w + 1 < WORDS:
                word |= np.left_shift(frame[w + 1], carry, out=fixed)
            np.bitwise_or(word, _FIXED[w].take(row, out=fixed, mode="clip"), out=out[:, w])

        slow = np.flatnonzero(np.invert(fast, out=flag))
        if slow.size:
            texts = b"".join((b"%.17g" % v).ljust(8 * WORDS, b"\0") for v in x[slow].tolist())
            out[slow] = np.frombuffer(texts, np.uint64).reshape(-1, WORDS)
