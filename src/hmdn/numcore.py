"""Dense numeric substrate: a portable seeded RNG, stable reductions, and the
exact float text format.

Everything is 64-bit float. The RNG is splitmix64 (Steele, Lea & Flood's
mixing function over a Weyl sequence with increment 0x9E3779B97F4A7C15),
implemented here directly so that streams are byte-identical across
platforms and numpy versions. Normal variates use the Box-Muller transform.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# splitmix64 constants
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# offset basis / prime of FNV-1a, used to hash spawn tags into child seeds
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_INV_2_53 = 2.0 ** -53


# --- domains: each setting's range, defined once. A domain reads the text
# (or number) of a value and raises ValueError outside its range; the CLI
# types its flags with them, the library checks fields through ``checked``.


def decimal(text) -> int:
    """``int(text)`` for text of ASCII decimal digits after an optional
    minus sign, as the writers spell integers (``int`` alone also takes
    '1_0', ' 7 ' and other scripts' digits); a number goes to ``int`` as is."""
    if isinstance(text, str):
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdecimal()):
            raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def real(text) -> float:
    """``float(text)`` for the float texts numpy's C reader takes, as the
    writers spell floats (``float`` alone also takes '1_0', ' 7 ' and other
    scripts' digits); a number goes to ``float`` as is."""
    if isinstance(text, str) and (not text.isascii() or "_" in text or text.strip() != text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def positive_int(text) -> int:
    """An integer in 1 .. 2^31 - 1: a count. Counts size float64 arrays
    beside a few widths (coordinates, access points, hidden units), and
    below 2^31 rows numpy can size every such array, so a count that is
    too large fails here instead of inside numpy halfway through a run."""
    value = decimal(text)
    if not 1 <= value < 2**31:
        raise ValueError(f"{text!r} is not an integer in 1..2^31-1")
    return value


def positive_float(text) -> float:
    """A finite float > 0."""
    value = real(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{text!r} is not a finite number > 0")
    return value


def unit_fraction(text) -> float:
    """A float strictly inside (0, 1)."""
    value = real(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{text!r} is not strictly inside (0, 1)")
    return value


def seed64(text) -> int:
    """A 64-bit unsigned integer: a seed."""
    value = decimal(text)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{text!r} is not a 64-bit unsigned integer")
    return value


def checked(name: str, domain, value):
    """``domain(value)``; outside the domain, a DomainError keyed by ``name``."""
    try:
        return domain(value)
    except ValueError as err:
        raise DomainError(str(err), key=name) from None


def mix64(z: int) -> int:
    """splitmix64 output function: bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_BASIS
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """Deterministic splitmix64 stream.

    State is ``seed + n * GAMMA (mod 2^64)`` after ``n`` draws, so block
    generation is a vectorized counter evaluation that produces exactly the
    same stream as repeated scalar calls. Uniforms take the top 53 bits of
    each word; normals come from Box-Muller pairs
    ``sqrt(-2 ln u1) * (cos, sin)(2 pi u2)`` with ``u1`` mapped into (0, 1]
    so the logarithm is always finite. Single-owner: do not share across
    threads, derive children with :meth:`spawn` instead.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = checked("seed", seed64, seed)
        self._count = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, drawn={self._count})"

    def next_u64(self) -> int:
        """Next raw 64-bit word as a Python int."""
        self._count += 1
        return mix64((self.seed + self._count * _GAMMA) & _MASK64)

    def u64_block(self, n: int) -> np.ndarray:
        """``n`` raw words as a uint64 array; identical to ``n`` scalar calls."""
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        words = splitmix64(self.seed, self._count, n)
        self._count += n
        return words

    def uniform(self, n: int | None = None):
        """Uniforms on [0, 1): ``(word >> 11) * 2^-53``. Scalar when n is None."""
        if n is None:
            return (self.next_u64() >> 11) * _INV_2_53
        return uniforms_from(self.u64_block(n))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller.

        Draws ceil(n/2) pairs; the pair order is (z_cos, z_sin) interleaved,
        and the trailing value of the last pair is discarded for odd ``n``.
        """
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        return normals_from(self.u64_block(2 * ((n + 1) // 2)), n)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): stable argsort of n uniforms."""
        return np.argsort(self.uniform(n), kind="stable")

    def spawn(self, *tags) -> "Rng":
        """Child generator for a named substream.

        The child seed is ``mix64(mix64(seed) XOR fnv1a("/".join(tags)))``;
        children are independent of the parent's position in its own stream.
        """
        if not tags:
            raise ValueError("spawn needs at least one tag")
        label = "/".join(str(t) for t in tags)
        return Rng(mix64(mix64(self.seed) ^ _fnv1a(label.encode("utf-8"))))


def splitmix64(seeds, counts, n: int) -> np.ndarray:
    """Words ``count + 1 .. count + n`` of the splitmix64 stream of each seed,
    shape ``seeds.shape + (n,)``: one seed and count (0-d) or arrays of them.

    The words are built in place in the result, with one scratch array for
    the shifts; wrap-around mod 2^64 is uint64 arithmetic.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)[..., None]
    counts = np.asarray(counts, dtype=np.uint64)[..., None]
    z = np.add(counts, np.arange(1, n + 1, dtype=np.uint64))
    z *= np.uint64(_GAMMA)
    z += seeds
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def u64_rows(rngs, n: int) -> np.ndarray:
    """Row i is ``rngs[i].u64_block(n)``, and each generator advances as that
    call would; all rows come from one ``splitmix64`` call."""
    words = splitmix64([g.seed for g in rngs], [g._count for g in rngs], n)
    for g in rngs:
        g._count += n
    return words


def uniforms_from(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from raw words, ``(word >> 11) * 2^-53``; shifts
    ``words`` in place."""
    u = np.right_shift(words, np.uint64(11), out=words).astype(np.float64)
    u *= _INV_2_53
    return u


def normals_from(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` Box-Muller normals along the last axis of ``words``
    (an even count): pairs ``(w1, w2)`` give ``sqrt(-2 ln u1) * (cos, sin)(2 pi u2)``
    interleaved, with ``u1`` mapped into (0, 1] so the logarithm is finite."""
    u1 = ((words[..., 0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
    u2 = (words[..., 1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(words.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :n]


# 17 significant digits, so parsing a float back is bit-exact; every float
# in every text artifact is written with this spec, through fmt17 or a
# %-template built from it
FLOAT_SPEC = "%.17g"


def fmt17(x) -> str:
    """A float as text in ``FLOAT_SPEC``."""
    return FLOAT_SPEC % float(x)


# the bytes of float text that are not separators: printable ASCII but '='
_FIELD_BYTES = bytes(range(33, 61)) + bytes(range(62, 128))


def float_rows(lines: list, seps: str, usecols=None) -> np.ndarray:
    """The floats of ``lines`` (one at least), each ending in a newline, as
    an array (len(lines), fields), or of the columns ``usecols``. The bytes
    that separate fields (space, '=', newline and every other control byte)
    must be ``seps`` and the newline on every line; the rest goes to one
    call of numpy's C text reader, which reads a float as ``real`` does.
    Raises ValueError at any other spelling."""
    text = "".join(lines)
    if (text.encode("ascii").translate(None, _FIELD_BYTES) != (seps + "\n").encode() * len(lines)
            or not lines or not seps and "\n" in lines):  # numpy skips blank lines
        raise ValueError("not the writer's spelling")
    return np.loadtxt(text.replace("=", " ").splitlines() if "=" in seps else lines,
                      comments=None, delimiter=" ", ndmin=2, usecols=usecols)


# numpy's add.reduce sums a contiguous run of this many float64 terms or
# more pairwise (eight partial sums), and shorter runs one after another
_PAIRWISE_MIN = 8


def sum_rows(a: np.ndarray, out=None, swap=None) -> np.ndarray:
    """Sum over the rows (axis -2) of an (..., n, B) array, each column's n
    terms added in the order ``np.add.reduce`` takes for a contiguous run of
    n: one after another below 8 terms, numpy's pairwise order from 8.

    Below 8 that is the reduction over the rows (n - 1 row adds); from 8 the
    terms go through one transposed copy into ``swap`` (a flat float64
    buffer of at least ``a.size`` entries, allocated when omitted) and one
    contiguous reduction. So a sum over a component-major layout rounds as
    the sum over the row-major layout does.
    """
    n = a.shape[-2]
    if n < _PAIRWISE_MIN:
        return np.add.reduce(a, axis=-2, out=out)
    shape = (*a.shape[:-2], a.shape[-1], n)
    runs = np.empty(shape) if swap is None else swap[: a.size].reshape(shape)
    np.copyto(runs, np.swapaxes(a, -1, -2))
    return np.add.reduce(runs, axis=-1, out=out)


def log_sum_exp_cols(a: np.ndarray, out=None, shifted=None, total=None, mask=None,
                     swap=None) -> np.ndarray:
    """Column-wise log-sum-exp of a 2-D (n, B) array: one result per column,
    its n terms in n rows, summed by ``sum_rows``.

    Columns that are entirely -inf yield -inf (log of zero mass), not an
    error; that takes the log of zero, so callers run under
    ``np.errstate(divide="ignore")``. ``out`` and ``total`` (float64, one
    entry per column), ``mask`` (bool, one entry per column), ``shifted``
    (the shape of ``a``) and ``swap`` (see ``sum_rows``) are work buffers:
    ``out`` receives the result, the others are overwritten, and each is
    allocated when omitted. A column of zero length has no maximum and
    raises ValueError.
    """
    m = np.maximum.reduce(a, axis=0, out=out)
    non_finite = np.logical_not(np.isfinite(m, out=mask), out=mask)
    np.copyto(m, 0.0, where=non_finite)
    shifted = np.subtract(a, m, out=shifted)
    np.exp(shifted, out=shifted)
    total = sum_rows(shifted, out=total, swap=swap)
    m += np.log(total, out=total)
    return m
