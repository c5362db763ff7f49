"""Tests for the DiversifiedTopK structure (Update / Size / Delete / Insert)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import DiversifiedTopK
from repro.graph.kernels import numpy_available
from repro.metrics.cover import exclusive_counts
from repro.utils.errors import ParameterError


class TestRules:
    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            DiversifiedTopK(0)

    def test_rule1_fills_up(self):
        top = DiversifiedTopK(2)
        assert top.try_update({1, 2})
        assert top.try_update({3})
        assert len(top) == 2
        assert top.cover_size == 3

    def test_empty_candidate_rejected(self):
        top = DiversifiedTopK(2)
        assert not top.try_update(set())
        assert len(top) == 0

    def test_duplicate_admitted_under_rule1(self):
        # Rule 1 admits duplicates (the paper's behaviour) so that the
        # pruning rules, which require |R| = k, arm as early as possible.
        top = DiversifiedTopK(3)
        assert top.try_update({1, 2})
        assert top.try_update({1, 2})
        assert len(top) == 2
        assert top.cover_size == 2
        # The duplicate has delta = 0, so it is the replacement victim.
        assert top.min_exclusive() == 0

    def test_rule2_replacement_accepts_big_gain(self):
        top = DiversifiedTopK(2)
        top.try_update({1})
        top.try_update({2})
        # cover = 2; threshold = (1 + 1/2) * 2 = 3.
        assert top.try_update({3, 4, 5})
        assert top.cover_size >= 3
        assert len(top) == 2

    def test_rule2_rejects_small_gain(self):
        top = DiversifiedTopK(2)
        top.try_update({1, 2, 3})
        top.try_update({4, 5, 6})
        # cover = 6; need >= 9 to replace; {7} only reaches 4.
        assert not top.try_update({7})
        assert top.cover_size == 6

    def test_rule2_replaces_weakest(self):
        top = DiversifiedTopK(2)
        top.try_update({1, 2, 3, 4})
        top.try_update({10})
        # weakest is {10} (delta 1); candidate pushes cover from 5 to >= 8.
        assert top.try_update({20, 21, 22, 23, 24})
        sets = top.sets()
        assert frozenset({10}) not in sets
        assert frozenset({1, 2, 3, 4}) in sets

    def test_labels_ride_along(self):
        top = DiversifiedTopK(1)
        top.try_update({1}, label=(0, 2))
        assert top.labelled_sets() == [((0, 2), frozenset({1}))]


class TestSizeOperation:
    def test_gain_size_empty(self):
        top = DiversifiedTopK(2)
        assert top.gain_size({1, 2}) == 2

    def test_gain_size_counts_three_parts(self):
        top = DiversifiedTopK(2)
        top.try_update({1, 2, 3})
        top.try_update({3, 4})
        # weakest is {3,4} (delta 1 via vertex 4).
        weakest_id, delta = top.weakest()
        assert delta == 1
        # Candidate {4, 9}: new vertex 9, vertex 4 exclusively weakest's,
        # plus Cov(R - weakest) = {1,2,3}.
        assert top.gain_size({4, 9}) == 2 + 3

    def test_min_exclusive_empty(self):
        assert DiversifiedTopK(3).min_exclusive() == 0

    def test_weakest_requires_nonempty(self):
        with pytest.raises(ParameterError):
            DiversifiedTopK(1).weakest()

    def test_satisfies_replacement_integer_form(self):
        top = DiversifiedTopK(3)
        top.try_update({1, 2})
        top.try_update({3, 4})
        top.try_update({5, 6})
        # cover=6, k=3 -> threshold 8 exactly; integer compare is >=.
        assert top.satisfies_replacement(8)
        assert not top.satisfies_replacement(7)


@st.composite
def update_sequences(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=12))
    sets = [
        draw(
            st.frozensets(
                st.integers(min_value=0, max_value=15), min_size=0, max_size=8
            )
        )
        for _ in range(count)
    ]
    return k, sets


class TestInvariants:
    @given(update_sequences())
    @settings(max_examples=150, deadline=None)
    def test_indexes_stay_consistent(self, payload):
        k, sets = payload
        top = DiversifiedTopK(k)
        for candidate in sets:
            top.try_update(candidate)
            top.check_consistency()
            assert len(top) <= k

    @given(update_sequences())
    @settings(max_examples=100, deadline=None)
    def test_cover_never_shrinks_when_full(self, payload):
        k, sets = payload
        top = DiversifiedTopK(k)
        previous_cover = 0
        for candidate in sets:
            was_full = top.is_full
            top.try_update(candidate)
            if was_full:
                assert top.cover_size >= previous_cover
            previous_cover = top.cover_size

    @given(update_sequences())
    @settings(max_examples=100, deadline=None)
    def test_exclusive_counts_match_offline(self, payload):
        k, sets = payload
        top = DiversifiedTopK(k)
        for candidate in sets:
            top.try_update(candidate)
        held = top.sets()
        offline = exclusive_counts(held)
        # Both orderings enumerate the same multiset of deltas.
        online = sorted(
            top.exclusive_count(set_id) for set_id in top._members
        )
        assert online == sorted(offline)

    @given(update_sequences())
    @settings(max_examples=100, deadline=None)
    def test_replacement_growth_factor(self, payload):
        """Each Rule 2 replacement grows the cover by >= (1 + 1/k)."""
        k, sets = payload
        top = DiversifiedTopK(k)
        for candidate in sets:
            if top.is_full:
                before = top.cover_size
                accepted = top.try_update(candidate)
                if accepted and before:
                    assert top.cover_size * k >= (k + 1) * before
            else:
                top.try_update(candidate)


class TestWeakest:
    @given(update_sequences())
    @settings(max_examples=150, deadline=None)
    def test_weakest_is_the_first_of_the_lowest_held_bucket(self, payload):
        """The held deltas give the answer a scan of every bucket gives,
        tie-break included: the bucket's own first member."""
        k, sets = payload
        top = DiversifiedTopK(k)
        for candidate in sets:
            top.try_update(candidate)
            if len(top):
                lowest = min(delta for delta, bucket in top._by_delta.items()
                             if bucket)
                assert top.weakest() == (
                    next(iter(top._by_delta[lowest])), lowest
                )

    def test_emptied_buckets_are_not_scanned(self):
        top = DiversifiedTopK(2)
        top.try_update(frozenset(range(40)))
        top.try_update(frozenset(range(0, 40, 2)))
        # The first set's delta walked 40 -> 20 through every value.
        assert len(top._by_delta) > 20

        class Untouchable(set):
            def __len__(self):
                raise AssertionError("an emptied bucket was scanned")

        for delta in top._by_delta:
            if delta not in (20, 0):
                top._by_delta[delta] = Untouchable()
        assert top.weakest() == (1, 0)

    def test_consistency_check_catches_a_stale_bucket_member(self):
        top = DiversifiedTopK(2)
        top.try_update({1, 2, 3})
        top._by_delta.setdefault(1, set()).add(0)
        with pytest.raises(AssertionError, match="stale set 0"):
            top.check_consistency()


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestMaskGain:
    @given(update_sequences(), st.lists(
        st.frozensets(st.integers(min_value=0, max_value=15)), max_size=6,
    ))
    @settings(max_examples=150, deadline=None)
    def test_gain_size_of_a_mask_equals_the_set(self, payload, probes):
        """Sizing a vertex mask, over ids 0..15, agrees with sizing the
        same vertices as a set after every update."""
        import numpy as np

        k, sets = payload
        top = DiversifiedTopK(k)
        for candidate in sets + [None]:
            for probe in probes:
                mask = np.zeros(16, dtype=np.bool_)
                mask[list(probe)] = True
                assert top.gain_size(mask) == top.gain_size(probe)
            if candidate is not None:
                top.try_update(candidate)
