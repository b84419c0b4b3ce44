"""Tests for bit-budget-aware chunking (pipelining)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest.pipelining import (
    items_per_message,
    plan_chunks,
    rounds_needed,
)


class TestItemsPerMessage:
    def test_at_least_one(self):
        assert items_per_message(10_000, 64) == 1

    def test_packing_grows_with_budget(self):
        small = items_per_message(10, 100)
        large = items_per_message(10, 1000)
        assert large > small

    def test_rejects_nonpositive_item_bits(self):
        with pytest.raises(ValueError):
            items_per_message(0, 100)

    def test_theorem_b1_regime(self):
        # Small colors (log log n bits) pack many per message --
        # the acceleration behind Theorem B.1.
        per = items_per_message(5, 32 * 10)
        assert per >= 10


class TestPlanChunks:
    def test_roundtrip(self):
        items = list(range(37))
        chunks = plan_chunks(items, 8, 96)
        flattened = [x for chunk in chunks for x in chunk]
        assert flattened == items

    def test_chunk_count_matches_rounds_needed(self):
        items = list(range(50))
        chunks = plan_chunks(items, 12, 128)
        assert len(chunks) == rounds_needed(50, 12, 128)

    def test_empty_items(self):
        assert plan_chunks([], 8, 96) == []
        assert rounds_needed(0, 8, 96) == 0

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=64, max_value=2048),
    )
    def test_roundtrip_property(self, count, item_bits, budget):
        items = list(range(count))
        chunks = plan_chunks(items, item_bits, budget)
        assert [x for c in chunks for x in c] == items
        if count:
            assert len(chunks) == rounds_needed(
                count, item_bits, budget
            )
