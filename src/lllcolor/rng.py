"""Deterministic counter-based pseudorandom primitives.

Every random draw in this package comes from :func:`u64` keyed by an
explicit tuple such as ``(seed, variable, counter)``.  Resampling one
variable therefore never perturbs the sample stream of any other key,
which is what makes solver runs exactly replayable.

A key is folded one part at a time, so a caller that draws many keys
sharing a prefix can fold the prefix once with :func:`u64` and finish
each key with :func:`u64_from`; the words are the same.
"""

_MASK64 = (1 << 64) - 1
_INIT = 0xA0761D6478BD642F


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scrambler of 64-bit words."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def u64_from(acc: int, *parts: int) -> int:
    """Continue the fold of :func:`u64` from ``acc``, the word it returned
    for a key prefix: ``u64_from(u64(*prefix), *rest) == u64(*prefix, *rest)``."""
    for p in parts:
        acc = mix64(acc ^ mix64(p & _MASK64))
    return acc


def u64(*parts: int) -> int:
    """Hash a tuple of nonnegative ints to one uniform 64-bit word."""
    return u64_from(_INIT, *parts)


def derive_seed(seed: int, tag: int) -> int:
    """Named sub-seed so one config seed can drive several generators."""
    return u64(seed, tag)
