import json

import numpy as np
import pytest

from deepesn.data import (
    PianoRollDataset,
    SPLIT_NAMES,
    load_dataset,
    make_synthetic_dataset,
    next_step_pairs,
    save_dataset,
    to_dense,
    validate_dataset_obj,
)
from deepesn.errors import DataFormatError


def tiny_obj():
    return {
        "name": "tiny",
        "dim": 4,
        "splits": {
            "train": [[[0, 2], [1]], [[3]]],
            "valid": [[[0], []]],
            "test": [[[1, 2, 3]]],
        },
    }


class TestValidation:
    def test_accepts_canonical(self):
        validate_dataset_obj(tiny_obj())

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda o: o.pop("dim"), "exactly the keys"),
            (lambda o: o.update(extra=1), "exactly the keys"),
            (lambda o: o.update(dim=0), "positive integer"),
            (lambda o: o.update(dim=True), "positive integer"),
            (lambda o: o.update(name=7), "must be a string"),
            (lambda o: o["splits"].pop("valid"), "splits"),
            (lambda o: o["splits"].update(extra=[]), "splits"),
            (lambda o: o["splits"]["train"].append([]), "no frames"),
            (lambda o: o["splits"]["train"][0].append([2, 1]), "strictly increasing"),
            (lambda o: o["splits"]["train"][0].append([1, 1]), "strictly increasing"),
            (lambda o: o["splits"]["train"][0].append([4]), "outside"),
            (lambda o: o["splits"]["train"][0].append([-1]), "outside"),
            (lambda o: o["splits"]["train"][0].append(["a"]), "not an integer"),
            (lambda o: o["splits"]["train"][0].append([True]), "not an integer"),
            (lambda o: o["splits"]["train"][0].append(3), "must be a list"),
        ],
    )
    def test_rejects_malformed(self, mutate, fragment):
        obj = tiny_obj()
        mutate(obj)
        with pytest.raises(DataFormatError, match=fragment):
            validate_dataset_obj(obj)

    def test_rejects_non_object(self):
        with pytest.raises(DataFormatError):
            validate_dataset_obj([1, 2])


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        obj = tiny_obj()
        ds = PianoRollDataset(name=obj["name"], dim=obj["dim"], splits=obj["splits"])
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded == ds

    def test_canonical_bytes(self, tmp_path):
        ds = make_synthetic_dataset(seed=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["dim"] == ds.dim

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_dataset(path)

    def test_load_rejects_invalid_content(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "dim": 4, "splits": {}}')
        with pytest.raises(DataFormatError):
            load_dataset(path)


class TestDense:
    def test_to_dense(self):
        dense = to_dense([[0, 2], [], [1]], 3)
        np.testing.assert_array_equal(
            dense, [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
        )

    def test_round_trip(self):
        frames = [[0, 3], [1], [], [2, 3]]
        assert [np.flatnonzero(row).tolist() for row in to_dense(frames, 4)] == frames

    def test_next_step_alignment(self):
        dense = to_dense([[0], [1], [2], [3]], 4)
        inputs, targets = next_step_pairs(dense)
        assert inputs.shape == (3, 4)
        np.testing.assert_array_equal(inputs, dense[:-1])
        np.testing.assert_array_equal(targets, dense[1:])

    def test_single_frame_yields_nothing(self):
        inputs, targets = next_step_pairs(to_dense([[0]], 2))
        assert inputs.shape == (0, 2)
        assert targets.shape == (0, 2)


class TestDatasetObject:
    def test_split_access(self):
        ds = make_synthetic_dataset(seed=1)
        assert len(ds.sequences("train")) == 8
        assert len(ds.dense("valid")) == 4
        with pytest.raises(ValueError):
            ds.sequences("dev")

    def test_summary_counts(self):
        obj = tiny_obj()
        ds = PianoRollDataset(name=obj["name"], dim=obj["dim"], splits=obj["splits"])
        summary = ds.summary()
        assert summary["splits"]["train"] == {
            "sequences": 2,
            "frames": 3,
            "mean_active_notes": 4 / 3,
        }


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic_dataset(seed=5)
        b = make_synthetic_dataset(seed=5)
        assert a == b
        assert a != make_synthetic_dataset(seed=6)

    def test_valid_and_sized(self):
        ds = make_synthetic_dataset(dim=16, n_sequences=(3, 2, 1), seed=2)
        validate_dataset_obj({"name": ds.name, "dim": ds.dim, "splits": ds.splits})
        assert [len(ds.sequences(s)) for s in SPLIT_NAMES] == [3, 2, 1]
        for split in SPLIT_NAMES:
            for seq in ds.sequences(split):
                assert 30 <= len(seq) <= 60

    def test_transitions_shared_across_splits(self):
        # the chord cycle is global, so a frame seen in several splits
        # is followed by the same frame (up to the injected noise)
        ds = make_synthetic_dataset(seed=3)
        follower = {}
        consistent = 0
        total = 0
        for split in SPLIT_NAMES:
            for seq in ds.sequences(split):
                for a, b in zip(seq, seq[1:]):
                    key = tuple(a)
                    if key in follower:
                        total += 1
                        consistent += follower[key] == tuple(b)
                    else:
                        follower[key] = tuple(b)
        assert total > 100
        assert consistent / total > 0.85

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"dim": 2.5}, TypeError, "dim must be an integer, got 2.5"),
            ({"dim": True}, TypeError, "dim must be an integer, got True"),
            ({"dim": 3}, ValueError, "dim must be >= 4, got 3"),
            ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
            ({"n_sequences": (-1, 1, 1)}, ValueError,
             "n_sequences must be >= 0, got -1"),
            ({"n_sequences": (True, 1, 1)}, TypeError,
             "n_sequences must be an integer, got True"),
            ({"n_sequences": (1, 1)}, ValueError,
             r"n_sequences must hold 3 counts, got \(1, 1\)"),
            ({"length_range": (5, 2)}, ValueError,
             r"length_range must have low <= high, got \(5, 2\)"),
            ({"length_range": (0, 2)}, ValueError, "length_range must be >= 1, got 0"),
            ({"length_range": (5,)}, ValueError,
             r"length_range must hold 2 counts, got \(5,\)"),
        ],
        ids=["float-dim", "bool-dim", "small-dim", "negative-seed",
             "negative-count", "bool-count", "two-counts", "reversed-range",
             "empty-length", "one-length"],
    )
    def test_bad_argument_names_its_field(self, kwargs, error, message):
        # each used to fail inside numpy naming no field, or be accepted
        with pytest.raises(error, match=message):
            make_synthetic_dataset(**kwargs)
