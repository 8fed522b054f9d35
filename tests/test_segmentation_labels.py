"""Tests for repro.segmentation.labels."""

import pytest

from repro.segmentation.labels import HUMAN_CATEGORY, LabelSpace, LabelSpec


class TestCityscapesLabelSpace:
    def test_nineteen_classes(self, label_space):
        assert label_space.n_classes == 19
        assert len(label_space) == 19

    def test_train_ids_consecutive(self, label_space):
        assert [spec.train_id for spec in label_space] == list(range(19))

    def test_lookup_by_name(self, label_space):
        assert label_space.by_name("person").train_id == 11
        assert label_space.id_of("road") == 0

    def test_unknown_name_raises(self, label_space):
        with pytest.raises(KeyError):
            label_space.by_name("unicorn")

    def test_human_category(self, label_space):
        ids = label_space.ids_in_category(HUMAN_CATEGORY)
        names = {label_space[i].name for i in ids}
        assert names == {"person", "rider"}

    def test_unknown_category_raises(self, label_space):
        with pytest.raises(KeyError):
            label_space.ids_in_category("animals")

    def test_categories_cover_all_classes(self, label_space):
        categories = {spec.category for spec in label_space.specs}
        covered = set()
        for category in categories:
            covered.update(label_space.ids_in_category(category))
        assert covered == set(range(19))

    def test_things_and_stuff_partition(self, label_space):
        things = set(label_space.thing_ids())
        stuff = {spec.train_id for spec in label_space.specs if not spec.is_thing}
        assert things.isdisjoint(stuff)
        assert things | stuff == set(range(19))
        assert label_space.id_of("person") in things
        assert label_space.id_of("road") in stuff

    def test_color_map_unique(self, label_space):
        colors = list(label_space.color_map().values())
        assert len(set(colors)) == len(colors)

    def test_confusable_classes_exclude_self(self, label_space):
        for spec in label_space:
            confusable = label_space.confusable_classes(spec.train_id)
            assert spec.train_id not in confusable
            assert len(confusable) >= 1

    def test_person_rider_mutually_confusable(self, label_space):
        person = label_space.id_of("person")
        rider = label_space.id_of("rider")
        assert rider in label_space.confusable_classes(person)
        assert person in label_space.confusable_classes(rider)

    def test_names_order(self, label_space):
        assert label_space.names()[0] == "road"
        assert label_space.names()[-1] == "bicycle"

    def test_category_of(self, label_space):
        assert label_space.ids_in_category("sky") == [label_space.id_of("sky")]
        assert label_space.ids_in_category("human") == [
            label_space.id_of("person"), label_space.id_of("rider")
        ]


class TestLabelSpaceValidation:
    def test_non_consecutive_ids_rejected(self):
        specs = (
            LabelSpec(0, "a", "x", (0, 0, 0), False, 0.1),
            LabelSpec(2, "b", "x", (1, 1, 1), False, 0.1),
        )
        with pytest.raises(ValueError):
            LabelSpace(specs=specs)

    def test_duplicate_names_rejected(self):
        specs = (
            LabelSpec(0, "a", "x", (0, 0, 0), False, 0.1),
            LabelSpec(1, "a", "x", (1, 1, 1), False, 0.1),
        )
        with pytest.raises(ValueError):
            LabelSpace(specs=specs)

    def test_getitem(self, label_space):
        assert label_space[11].name == "person"

    def test_raw_id_claimed_twice_rejected(self):
        space = LabelSpace(specs=(
            LabelSpec(0, "a", "x", (0, 0, 0), False, 0.1, raw_id=7),
            LabelSpec(1, "b", "y", (1, 1, 1), False, 0.1, raw_id=7),
        ))
        with pytest.raises(ValueError, match=r"raw id 7 is claimed by two classes \('a' and 'b'\)"):
            space.raw_id_map()

    def test_synthetic_only_space_has_no_raw_ids(self):
        space = LabelSpace(specs=(
            LabelSpec(0, "a", "x", (0, 0, 0), False, 0.1),
            LabelSpec(1, "b", "y", (1, 1, 1), False, 0.1),
        ))
        assert space.raw_id_map() == {}
        assert space.train_id_to_raw(-1) == 0
        with pytest.raises(ValueError, match="'b' has no raw"):
            space.train_id_to_raw(1)

    def test_confusable_falls_back_to_closest_typical_size(self):
        space = LabelSpace(specs=(
            LabelSpec(0, "a", "x", (0, 0, 0), False, 0.10),
            LabelSpec(1, "b", "y", (1, 1, 1), False, 0.50),
            LabelSpec(2, "c", "z", (2, 2, 2), False, 0.12),
        ))
        assert space.confusable_classes(0) == [2]
        assert space.confusable_classes(1) == [2]
