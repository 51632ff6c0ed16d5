"""The counter-based hash: a key prefix folded once continues to the same
word as the whole key."""

from hypothesis import given
from hypothesis import strategies as st

from lllcolor.rng import u64, u64_from


def test_empty_continuation_is_the_empty_key():
    assert u64_from(u64()) == u64()


# parts of 64 bits and more: u64 reads each part's low 64 bits
@given(st.lists(st.integers(0, 2**80) | st.sampled_from([2**63, 2**64 - 1, 2**64]), max_size=6))
def test_u64_from_continues_u64_at_every_split(parts):
    whole = u64(*parts)
    for k in range(len(parts) + 1):
        assert u64_from(u64(*parts[:k]), *parts[k:]) == whole
