"""numpy's `default_rng(seed).permutation(n)` in plain Python.

The member-set split of `ssad.build_member_sets` is this permutation.
Computing it here spares every training process the import of
`numpy.random`, and it pins the split: NEP 19 lets numpy change its
`Generator` streams between versions. Each step is numpy's own:

- `SeedSequence(seed)` hashes the seed's 32-bit words into a pool of four
  words and draws four 64-bit words from the pool;
- `PCG64` seeds its 128-bit LCG with those words and gives 64 bits per
  step by XSL-RR (xor the halves, rotate right by the top six bits);
- each 32-bit draw is the low half of a 64-bit output, and the next draw
  its buffered high half;
- `shuffle` swaps each position i, from the last down to 1, with
  `random_interval(i)`: a draw masked to the smallest all-ones mask that
  covers i, drawn again while it exceeds i.

Only the 32-bit `random_interval` is here, so n may not exceed 2^32 + 1.
"""

from __future__ import annotations

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`."""
    entropy = []
    while True:   # least significant word first; 0 is one word
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        state.append(value ^ value >> 16)
    # each pair of 32-bit words is one little-endian 64-bit word
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _draws(seed: int):
    """The 32-bit draws of `PCG64(seed)`, each output's low half first."""
    words = _seed_words(seed)
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    # one step from 0 gives inc; add the seed and step once more
    state = ((inc + (words[0] << 64 | words[1])) * _MULTIPLIER
             + inc) & _M128
    while True:
        state = (state * _MULTIPLIER + inc) & _M128
        rot = state >> 122
        x = (state >> 64) ^ (state & _M64)
        out = (x >> rot | x << (64 - rot)) & _M64
        yield out & _M32
        yield out >> 32


def permutation(seed: int, n: int) -> list[int]:
    """`np.random.default_rng(seed).permutation(n)` as a list, for a seed
    >= 0."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    perm = list(range(n))
    draws = _draws(seed)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        perm[i], perm[j] = perm[j], perm[i]
    return perm
