"""Generic set-associative array with preference-aware LRU."""

import gc

import pytest

from repro.cache.setassoc import SetAssociativeArray
from repro.common.errors import ConfigurationError


@pytest.fixture
def array():
    return SetAssociativeArray(num_sets=4, ways=2, name="test")


class TestBasics:
    def test_lookup_miss_returns_none(self, array):
        assert array.lookup(0, 1) is None

    def test_insert_then_lookup(self, array):
        array.insert(0, 1, "a")
        assert array.lookup(0, 1) == "a"
        assert len(array) == 1

    def test_duplicate_insert_rejected(self, array):
        array.insert(0, 1, "a")
        with pytest.raises(ValueError):
            array.insert(0, 1, "b")

    def test_insert_into_full_set_rejected(self, array):
        array.insert(0, 1, "a")
        array.insert(0, 2, "b")
        with pytest.raises(ValueError):
            array.insert(0, 3, "c")

    def test_remove(self, array):
        array.insert(0, 1, "a")
        assert array.remove(0, 1) == "a"
        assert array.lookup(0, 1) is None

    def test_remove_missing_raises(self, array):
        with pytest.raises(KeyError):
            array.remove(0, 1)

    def test_sets_are_independent(self, array):
        array.insert(0, 1, "a")
        array.insert(1, 1, "b")
        assert array.lookup(0, 1) == "a"
        assert array.lookup(1, 1) == "b"


class TestLRU:
    def test_victim_is_least_recently_used(self, array):
        array.insert(0, 1, "a")
        array.insert(0, 2, "b")
        assert array.victim(0) == (1, "a")

    def test_lookup_touch_promotes(self, array):
        array.insert(0, 1, "a")
        array.insert(0, 2, "b")
        array.lookup(0, 1)  # touch "a"
        assert array.victim(0) == (2, "b")

    def test_untouched_lookup_preserves_order(self, array):
        array.insert(0, 1, "a")
        array.insert(0, 2, "b")
        array.lookup(0, 1, touch=False)
        assert array.victim(0) == (1, "a")

    def test_no_victim_needed_when_free_way(self, array):
        array.insert(0, 1, "a")
        assert array.victim(0) is None
        assert not array.needs_victim(0)

    def test_preference_overrides_lru(self):
        array = SetAssociativeArray(1, 4)
        for tag in range(4):
            array.insert(0, tag, {"empty": tag == 2})
        tag, entry = array.victim(0, prefer=lambda e: e["empty"])
        assert tag == 2

    def test_preference_falls_back_to_lru(self):
        array = SetAssociativeArray(1, 2)
        array.insert(0, 1, {"empty": False})
        array.insert(0, 2, {"empty": False})
        assert array.victim(0, prefer=lambda e: e["empty"])[0] == 1

    def test_preference_picks_lru_most_among_matches(self):
        array = SetAssociativeArray(1, 4)
        for tag in range(4):
            array.insert(0, tag, {"empty": tag in (1, 3)})
        assert array.victim(0, prefer=lambda e: e["empty"])[0] == 1


class TestIntrospection:
    def test_iteration_yields_all(self, array):
        array.insert(0, 1, "a")
        array.insert(2, 5, "b")
        contents = {(s, t, e) for s, t, e in array}
        assert contents == {(0, 1, "a"), (2, 5, "b")}

    def test_set_contents_lru_order(self, array):
        array.insert(0, 1, "a")
        array.insert(0, 2, "b")
        array.lookup(0, 1)
        assert array.set_contents(0) == [(2, "b"), (1, "a")]

    def test_occupancy_and_clear(self, array):
        array.insert(0, 1, "a")
        assert array.occupancy(0) == 1
        array.clear()
        assert len(array) == 0


class TestValidation:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(num_sets=3, ways=2)

    def test_zero_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(num_sets=4, ways=0)


class TestConstruction:
    """The per-set dicts are made with the cyclic collector paused."""

    def test_collector_stays_enabled(self):
        assert gc.isenabled()
        SetAssociativeArray(num_sets=4096, ways=2)
        assert gc.isenabled()

    def test_a_paused_collector_stays_paused(self):
        gc.disable()
        try:
            SetAssociativeArray(num_sets=4096, ways=2)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_sets_are_distinct_empty_dicts(self):
        array = SetAssociativeArray(num_sets=8, ways=2)
        assert all(entries == {} for entries in array._sets)
        assert len({id(entries) for entries in array._sets}) == 8
