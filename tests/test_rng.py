"""Philox stream positioning: skipping words without drawing them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import rng as lrng
from levylab.errors import ValidationError


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 10**6), before=st.integers(0, 7))
def test_skip_ahead_moves_past_exactly_n_words(n, before):
    # ``before`` doubles (one word each) leave every offset into Philox's
    # four-word buffer; a 32-bit draw leaves a buffered half behind too.
    gen, ref = lrng.stream(5, 2), lrng.stream(5, 2)
    for g in (gen, ref):
        g.random(before)
        g.integers(0, 1 << 31, dtype=np.uint32)
    copy = lrng.skip_ahead(gen, n)
    words = ref.bit_generator.random_raw(n)
    assert np.array_equal(copy.bit_generator.random_raw(n), words)
    assert np.array_equal(gen.integers(0, 1 << 31, size=3, dtype=np.uint32),
                          ref.integers(0, 1 << 31, size=3, dtype=np.uint32))
    assert np.array_equal(gen.random(9), ref.random(9))
    assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))


def test_skip_ahead_refuses_other_bit_generators():
    # Its arithmetic is that of Philox's four-word buffer and block counter.
    with pytest.raises(ValidationError, match="Philox"):
        lrng.skip_ahead(np.random.default_rng(0), 3)
