"""CSV files whose numbers read as ``%.17g``, byte for byte, rendered by numpy.

``write_csv`` renders a block of cells at a time.  A nonzero finite x has
X = floor(log10|x|) and the 17 significant digits N = rint(t) of
t = |x| 10^(16 - X), which lies in [1e16, 1e17).  The kernel forms s, the
``_WIDE`` product of |x| and 10^(16 - X) rounded to ``_WIDE``: two roundings,
each of relative size at most u = eps / 2 of ``_WIDE``, so |s - t| < 2.0001 u s.

*Certificate.*  A cell is certified when s lies further than the margin
2 eps s (twice that bound) from every rounding tie n + 1/2, and
1e16 < N < 1e17.  N is then the correctly rounded digit string that ``%``
gives, and X its exponent.  The other cells, among them the non-finite
values and the exact powers of ten, are formatted by ``%`` and spliced in.
With the x86 80-bit long double the margin is below 0.022, and about 2% of
cells with random digits fall back.  Where long double is float64 the margin
exceeds 1/2, so every nonzero cell falls back: correct, but as slow as ``%``.

*Bytes.*  Each cell is written into a fixed layout (``_LAYOUT``): sign,
``0.000``, the 17 digits, ``.``, digits 2-17 again, ``e``, the exponent's sign
and three digits, and the separator.  A keep-mask, looked up by notation
class, significant digits and sign, selects the bytes that ``%.17g`` prints.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

_WIDE = np.longdouble
_X_MIN, _X_MAX = -330, 330      # beyond the decimal exponent of every double
# A cell's layout, field by field; the separator is the last byte
_FIELDS = [("sign", b"-"), ("prefix", b"0.000"), ("lead", b"0"), ("head", b"0" * 16),
           ("point", b"."), ("tail", b"0" * 16), ("e", b"e"), ("exp", b"+000"), ("sep", b",")]
_LAYOUT = b"".join(text for _, text in _FIELDS)
_CELL = np.dtype([(name, f"V{len(text)}") for name, text in _FIELDS])
# About 250 bytes of arrays a cell: a block takes half the memory that one
# ``%`` call took on the 1,501 x 11 sim.csv of a 1-DOF study
_BLOCK_CELLS = 2048


@functools.cache
def _tables(wide):
    """Tables of the kernel for the float type ``wide``.

    - ``pow10[X - _X_MIN]``: 10^(16 - X) rounded once to ``wide`` (half to
      even), from the exact integer ratio;
    - ``exponent[X - _X_MIN]``: the exponent's sign and three digits;
    - ``klass[X - _X_MIN]``: 34 times the notation class: X + 4 in fixed
      notation (-4 <= X <= 16), 21 for an exponent below 100 in magnitude and
      22 from 100;
    - ``digits[d]``: the four ASCII digits of d < 10^4 as one ``uint32``, and
      ``zeros[d]`` how many of them are trailing zeros;
    - ``nd2[z]``: 2 (nd - 1), where N has ``nd`` significant digits and
      its four groups after the leading digit have z0, z1, z2, z3 trailing
      zeros, for z = (z0 z1 z2 z3) read in base 5;
    - ``keep[klass + nd2 + neg]``: the layout bytes of a cell with ``nd``
      significant digits and sign ``neg``.
    """
    X = np.arange(_X_MIN, _X_MAX + 1)
    bits = np.finfo(wide).nmant + 1
    words, shifts = [], []
    for k in (16 - X).tolist():                         # q 2^shift = 10^k, q of ``bits`` bits
        n = 10 ** abs(k)
        shift = n.bit_length() - bits if k >= 0 else 1 - n.bit_length() - bits
        num, den = (n << max(-shift, 0), 1 << max(shift, 0)) if k >= 0 else (1 << -shift, n)
        q, r = divmod(num, den)
        q += 2 * r > den or (2 * r == den and q & 1)
        words.append([q >> 32 * i & 0xFFFFFFFF for i in range(-(-bits // 32))])
        shifts.append(shift)
    words, shifts = np.array(words), np.array(shifts)[:, None]
    with np.errstate(over="ignore", under="ignore"):    # a float64 table runs out of range
        pow10 = np.ldexp(words.astype(wide), shifts + 32 * np.arange(words.shape[1]))
        pow10 = pow10.sum(axis=1)                       # exact: q has ``bits`` bits

    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1).reshape(-1, 4)
    t = np.array([1] + [0] * 9)                         # digits d3 d2 d1 d0 on axes 0-3
    zeros = t * (1 + t[:, None] * (1 + t[:, None, None] * (1 + t[:, None, None, None])))
    zeros = zeros.ravel().astype(np.uint8)
    exponent = np.frombuffer("".join(f"{x:+04d}" for x in X.tolist()).encode(), "V4")
    klass = 34 * np.where((X >= -4) & (X <= 16), X + 4, np.where(np.abs(X) < 100, 21, 22))
    z = np.stack(np.meshgrid(*[np.arange(5)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = z[:, 0]
    for i in (1, 2, 3):                                 # a group of four zeros carries on
        trailing = z[:, i] + (z[:, i] == 4) * trailing
    nd2 = 2 * (16 - trailing)

    offset = {name: _CELL.fields[name][1] for name in _CELL.names}
    cls, nd, neg, p = np.ix_(np.arange(23), np.arange(1, 18), np.arange(2),
                             np.arange(_CELL.itemsize))
    X = cls - 4
    fixed = cls <= 20
    head = np.where(fixed, np.where(X >= 0, X + 1, nd), 1)          # leading digits kept
    tail = np.where(fixed, np.where(X >= 0, X + 2, 18), 2)          # first digit after "."
    j = p - offset["tail"] + 2                                      # digit at a tail byte
    keep = ((p == offset["sign"]) & (neg == 1)
            | fixed & (X < 0) & (p >= offset["prefix"]) & (p < offset["prefix"] + 1 - X)
            | (p >= offset["lead"]) & (p < offset["lead"] + head)
            | (p == offset["point"]) & (nd >= tail)
            | (j >= tail) & (j <= nd) & (p < offset["e"])
            | ~fixed & (p >= offset["e"]) & (p < offset["sep"])
            & ((p != offset["exp"] + 1) | (cls == 22))              # the hundreds digit
            | (p == offset["sep"]))
    return (pow10, exponent, klass, ascii4.view(np.uint32).ravel(),
            zeros, nd2, keep.reshape(-1, _CELL.itemsize))


def _digits17(a):
    """``(X - _X_MIN, N, ok)`` for the positive doubles ``a``: X = floor(log10 a),
    N = rint(a 10^(16 - X)) its 17 significant digits, and ``ok`` where the
    certificate holds for them.  It never holds for a = 1, where N = 10^16."""
    pow10 = _tables(_WIDE)[0]
    # log10 a - _X_MIN > 0, so the cast is the floor; next to a power of ten
    # the rounded logarithm may leave X one off, which N then shows
    xi = (np.log10(a) - _X_MIN).astype(np.int64)
    s = a.astype(_WIDE) * pow10.take(xi)
    N = s.astype(np.int64)
    off = np.flatnonzero((N < 10 ** 16) | (N >= 10 ** 17))
    if off.size:
        xi[off] += np.where(N[off] < 10 ** 16, -1, 1)
        s[off] = a[off].astype(_WIDE) * pow10.take(xi[off])
        N[off] = s[off].astype(np.int64)
    frac = (s - N).astype(np.float64)                   # exact: s >= 2^53
    ok = np.abs(frac - 0.5) > N * (2 * float(np.finfo(_WIDE).eps))
    N += frac > 0.5
    ok &= (N > 10 ** 16) & (N < 10 ** 17)
    return xi, N, ok


def _cells(x, template):
    """Layout bytes and keep-mask, each ``(rows, cols * _CELL.itemsize)``, of
    the float block ``x`` with the per-column layouts ``template``."""
    _, exponent, klass, digits, zeros, nd2, keep_table = _tables(_WIDE)
    flat = x.ravel()
    a = np.abs(flat)
    zero = a == 0.0
    a[zero | ~np.isfinite(a)] = 1.0                     # a stand-in, never certified
    xi, N, ok = _digits17(a)
    N[~ok] = 0                                          # zeros print as "0"

    # N = lead 10^16 + g[:, 0] 10^12 + ... + g[:, 3], each group below 10^4
    hi = N // 10 ** 8
    lo = N - hi * 10 ** 8
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    g = np.empty((flat.size, 4), np.int64)
    g[:, 0] = hi // 10 ** 4
    g[:, 1] = hi - g[:, 0] * 10 ** 4
    g[:, 2] = lo // 10 ** 4
    g[:, 3] = lo - g[:, 2] * 10 ** 4

    cells = np.empty(flat.size, _CELL)
    raw = cells.view(np.uint8).reshape(flat.size, -1)
    raw.reshape(x.shape + (-1,))[:] = template
    raw[:, _CELL.fields["lead"][1]] = lead + ord("0")
    cells["head"] = cells["tail"] = digits.take(g).view("V16").ravel()
    cells["exp"] = exponent.take(xi)
    z = zeros.take(g) @ np.array([125, 25, 5, 1], np.uint16)
    keep = keep_table.take(klass.take(xi) + nd2.take(z) + (flat < 0), axis=0)

    fallback = np.flatnonzero(~(ok | zero))
    if fallback.size:
        width = _CELL.itemsize - 1
        text = f"%-{width}.17g" * fallback.size % tuple(flat[fallback].tolist())
        text = np.frombuffer(text.encode(), np.uint8).reshape(-1, width)
        raw[fallback, :-1] = text
        keep[fallback, :-1] = text != ord(" ")
    return raw.reshape(x.shape[0], -1), keep.reshape(x.shape[0], -1)


def write_csv(path: Path, header: list[str], values, labels=None) -> None:
    """Write ``header`` and one row per row of the 2-D float block ``values``
    (an array or a sequence of number rows), each led by the string cells
    ``labels[i]`` when given.

    Every number reads as ``%.17g`` (round-trip exact) of x + 0.0, which
    turns -0.0 into 0.0, byte for byte.  A numpy kernel renders blocks of
    whole rows, about ``_BLOCK_CELLS`` cells each.  It keeps the digits of
    a cell where they are certified: its scaled value s lies further than
    the margin 2 eps s of the long double from every rounding tie (see the
    module docstring).  The other cells, the non-finite among them, go
    through one ``%`` call per block.
    """
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    labels = [()] * rows if labels is None and not cols else labels
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not cols:
            fh.write("".join(",".join(map(str, row)) + "\n" for row in labels).encode())
            return
        if labels is not None:                           # each distinct prefix built once
            distinct = {}
            codes = [distinct.setdefault(tuple(row), len(distinct)) for row in labels]
            texts = [",".join([*map(str, row), ""]).encode() for row in distinct]
            prefix = np.array(texts, dtype=bytes)
            prefix = prefix.view(np.uint8).reshape(len(texts), prefix.itemsize)
            prefix_keep = np.arange(prefix.shape[1]) < np.array([len(t) for t in texts])[:, None]
            prefix, prefix_keep = prefix[codes], prefix_keep[codes]
        template = np.frombuffer(_LAYOUT * cols, np.uint8).reshape(cols, -1).copy()
        template[-1, -1] = ord("\n")
        blocks = -(-rows * cols // _BLOCK_CELLS) or 1        # of equal size, to reuse memory
        step = -(-rows // blocks) or 1
        with np.errstate(all="ignore"):
            for start in range(0, rows, step):
                cells, keep = _cells(values[start:start + step], template)
                if labels is not None:
                    cells = np.hstack([prefix[start:start + step], cells])
                    keep = np.hstack([prefix_keep[start:start + step], keep])
                fh.write(cells[keep].tobytes())
