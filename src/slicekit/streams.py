"""The draws of ``numpy.random.default_rng([seed, k, stream])`` for a block
of consecutive ``k``, computed in NumPy without building a generator.

``SeedSequence`` mixing is uint32 arithmetic with hash constants that do not
depend on the data, so it runs over all ``k`` of a block at once; so do
PCG64 seeding and output, a 128-bit LCG step (kept as two uint64 halves)
followed by the XSL-RR output function.  Every value is bit for bit what
the generator would return.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
# SeedSequence hash constants (pool size 4) and the PCG64 LCG multiplier.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MUL_HI, MUL_LO = np.uint64(PCG_MULT >> 64), np.uint64(PCG_MULT & (2**64 - 1))


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` reads from an int."""
    words = [value & MASK32]
    while value > MASK32:
        value >>= 32
        words.append(value & MASK32)
    return words


def _hash_consts(init: int, mult: int):
    while True:
        nxt = init * mult & MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_L - y * MIX_R
    return result ^ (result >> 16)


def _seed_words(seed: int, ks: np.ndarray, stream: int, k_words: int) -> list[np.ndarray]:
    """``SeedSequence([seed, k, stream]).generate_state(4, uint64)`` for each
    ``k`` in ``ks``, all of which have ``k_words`` 32-bit words."""
    size = ks.shape[0]
    consts = _hash_consts(INIT_A, MULT_A)
    entropy = [np.full(size, w, np.uint32) for w in _uint32_words(seed)]
    entropy += [(ks >> np.uint64(32 * j) & np.uint64(MASK32)).astype(np.uint32)
                for j in range(k_words)]
    entropy += [np.full(size, w, np.uint32) for w in _uint32_words(stream)]
    zero = np.zeros(size, np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, consts) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(INIT_B, MULT_B)
    state = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    return [state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of ``a * b`` for uint64 ``a`` and a 64-bit ``b``."""
    low = np.uint64(MASK32)
    a0, a1 = a & low, a >> np.uint64(32)
    b0, b1 = np.uint64(b & MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & low) + (p10 & low)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _lcg(hi, lo, inc_hi, inc_lo):
    """One PCG64 step ``state * PCG_MULT + inc`` modulo ``2**128``."""
    prod_lo = lo * MUL_LO
    new_lo = prod_lo + inc_lo
    carry = (new_lo < prod_lo).astype(np.uint64)
    return _mulhi(lo, int(MUL_LO)) + lo * MUL_HI + hi * MUL_LO + inc_hi + carry, new_lo


def _block_words(seed: int, start: int, stop: int, stream: int, count: int) -> np.ndarray:
    ks = np.arange(start, stop, dtype=np.uint64)
    k_words = len(_uint32_words(start))
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed, ks, stream, k_words)
    inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
    inc_lo = i_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo).astype(np.uint64)
    hi, lo = _lcg(hi, lo, inc_hi, inc_lo)
    out = np.empty((ks.shape[0], count), np.uint64)
    for j in range(count):
        hi, lo = _lcg(hi, lo, inc_hi, inc_lo)
        word, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = word >> rot | word << (np.uint64(64) - rot & np.uint64(63))
    return out


def words(seed: int, start: int, stop: int, stream: int, count: int) -> np.ndarray:
    """A ``(stop - start, count)`` uint64 array: row ``k - start`` holds the
    first ``count`` 64-bit outputs of ``default_rng([seed, k, stream])``.
    Needs ``0 <= start <= stop <= 2**63`` and non-negative ints ``seed``
    and ``stream``."""
    if not 0 <= start <= stop <= 2**63:
        raise ValueError(f"step range [{start}, {stop}) must lie in [0, 2**63]")
    if start < 2**32 < stop:  # from 2**32 on, k adds a second entropy word
        return np.concatenate([words(seed, start, 2**32, stream, count),
                               words(seed, 2**32, stop, stream, count)])
    return _block_words(seed, start, stop, stream, count)


def doubles(block: np.ndarray) -> np.ndarray:
    """The ``Generator.random()`` doubles of 64-bit outputs: ``[0, 1)``."""
    return (block >> np.uint64(11)) * (1.0 / 2**53)


def integers(seed: int, start: int, stream: int, block: np.ndarray, n: int) -> np.ndarray:
    """``Generator.integers(n)`` of ``default_rng([seed, k, stream])`` drawn
    after ``c - 1`` doubles, for each ``k - start`` row of ``block =
    words(seed, start, stop, stream, c)`` and ``1 <= n < 2**32``.  Lemire's
    method reads the low 32 bits of the row's last word; where it rejects
    them (probability below ``n / 2**32``) that step's generator is built
    and drawn from."""
    if not 1 <= n <= MASK32:
        raise ValueError(f"n must lie in [1, 2**32 - 1], got {n}")
    if n == 1:  # a one-value range draws nothing
        return np.zeros(block.shape[0], np.int64)
    scaled = (block[:, -1] & np.uint64(MASK32)) * np.uint64(n)
    out = (scaled >> np.uint64(32)).astype(np.int64)
    for j in np.flatnonzero((scaled & np.uint64(MASK32)) < np.uint64(2**32 % n)):
        rng = np.random.default_rng([seed, start + int(j), stream])
        rng.random(block.shape[1] - 1)
        out[j] = rng.integers(n)
    return out
