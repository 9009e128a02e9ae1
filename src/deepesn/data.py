"""Piano-roll datasets: canonical JSON format, validation, conversion.

A dataset is a JSON object

    {
      "name": "...",
      "dim": 88,
      "splits": {"train": [...], "valid": [...], "test": [...]}
    }

where each split is a list of sequences, each sequence a list of
frames, and each frame the sorted list of distinct active note indices
in [0, dim). For 88-key piano rolls index 0 is MIDI note 21 (A0).
Frames convert to dense 0/1 vectors for the models; the prediction task
pairs every frame with the following one, so a sequence of T frames
yields T - 1 (input, target) pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .reservoir import _check_count

__all__ = [
    "PIANO_ROLL_DIM",
    "SPLIT_NAMES",
    "PianoRollDataset",
    "validate_dataset_obj",
    "load_dataset",
    "save_dataset",
    "to_dense",
    "next_step_pairs",
    "make_synthetic_dataset",
]

# 88 piano keys, A0 through C8; dense index = MIDI note - 21.
PIANO_ROLL_DIM = 88

SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class PianoRollDataset:
    """An in-memory dataset with fixed train/valid/test splits."""

    name: str
    dim: int
    splits: dict

    def sequences(self, split: str) -> list:
        """Sequences of one split, as lists of sorted note-index frames."""
        if split not in self.splits:
            raise ValueError(
                f"unknown split {split!r}; expected one of {SPLIT_NAMES}"
            )
        return self.splits[split]

    def dense(self, split: str) -> list[np.ndarray]:
        """Sequences of one split as dense (T, dim) 0/1 arrays."""
        return [to_dense(seq, self.dim) for seq in self.sequences(split)]

    def summary(self) -> dict:
        """Counts per split, for reporting and quick sanity checks."""
        out = {"name": self.name, "dim": self.dim, "splits": {}}
        for split in SPLIT_NAMES:
            seqs = self.splits[split]
            n_frames = sum(len(seq) for seq in seqs)
            n_notes = sum(len(frame) for seq in seqs for frame in seq)
            out["splits"][split] = {
                "sequences": len(seqs),
                "frames": n_frames,
                "mean_active_notes": (n_notes / n_frames) if n_frames else 0.0,
            }
        return out


def _check_frame(frame, dim: int, where: str) -> None:
    if not isinstance(frame, list):
        raise DataFormatError(f"{where}: frame must be a list, got {type(frame).__name__}")
    previous = -1
    for note in frame:
        if isinstance(note, bool) or not isinstance(note, int):
            raise DataFormatError(f"{where}: note {note!r} is not an integer")
        if not 0 <= note < dim:
            raise DataFormatError(f"{where}: note {note} outside [0, {dim})")
        if note <= previous:
            raise DataFormatError(
                f"{where}: notes must be strictly increasing, got {note} after {previous}"
            )
        previous = note


def validate_dataset_obj(obj) -> None:
    """Raise DataFormatError unless `obj` is a canonical dataset object."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"dataset must be a JSON object, got {type(obj).__name__}")
    expected_keys = {"name", "dim", "splits"}
    if set(obj.keys()) != expected_keys:
        raise DataFormatError(
            f"dataset must have exactly the keys {sorted(expected_keys)}, "
            f"got {sorted(obj.keys())}"
        )
    if not isinstance(obj["name"], str):
        raise DataFormatError("'name' must be a string")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DataFormatError(f"'dim' must be a positive integer, got {dim!r}")
    splits = obj["splits"]
    if not isinstance(splits, dict) or set(splits.keys()) != set(SPLIT_NAMES):
        raise DataFormatError(f"'splits' must be an object with keys {list(SPLIT_NAMES)}")
    for split in SPLIT_NAMES:
        seqs = splits[split]
        if not isinstance(seqs, list):
            raise DataFormatError(f"splits.{split} must be a list of sequences")
        for i, seq in enumerate(seqs):
            where = f"splits.{split}[{i}]"
            if not isinstance(seq, list):
                raise DataFormatError(f"{where}: sequence must be a list of frames")
            if not seq:
                raise DataFormatError(f"{where}: sequence has no frames")
            for t, frame in enumerate(seq):
                _check_frame(frame, dim, f"{where}[{t}]")


def load_dataset(path) -> PianoRollDataset:
    """Load and validate a canonical dataset file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    validate_dataset_obj(obj)
    return PianoRollDataset(name=obj["name"], dim=obj["dim"], splits=obj["splits"])


def save_dataset(dataset: PianoRollDataset, path) -> None:
    """Write a dataset in canonical form: sorted keys, 2-space indent."""
    obj = {"name": dataset.name, "dim": dataset.dim, "splits": dataset.splits}
    validate_dataset_obj(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def to_dense(sequence: list, dim: int) -> np.ndarray:
    """Convert a list of note-index frames to a (T, dim) 0/1 array."""
    out = np.zeros((len(sequence), dim))
    for t, frame in enumerate(sequence):
        out[t, frame] = 1.0
    return out


def next_step_pairs(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Align a dense sequence for next-frame prediction.

    Inputs are frames 0..T-2 and targets frames 1..T-1; the last frame
    has no successor and yields no pair, so a length-1 sequence gives
    empty arrays.
    """
    dense = np.asarray(dense)
    return dense[:-1], dense[1:]


def _random_cycle(rng: np.random.Generator, dim: int, n_chords: int) -> list:
    """A cycle of distinct random chords of 2 to 4 notes each."""
    chords = []
    while len(chords) < n_chords:
        size = int(rng.integers(2, 5))
        chord = sorted(rng.choice(dim, size=size, replace=False).tolist())
        if chord not in chords:
            chords.append(chord)
    return chords


def _cycle_sequence(
    rng: np.random.Generator, chords: list, dim: int, length: int
) -> list:
    """Walk the shared cycle from a random offset, with sparse noise."""
    offset = int(rng.integers(0, len(chords)))
    frames = []
    for t in range(length):
        frame = list(chords[(offset + t) % len(chords)])
        if rng.random() < 0.05:
            extra = int(rng.integers(0, dim))
            if extra not in frame:
                frame = sorted(frame + [extra])
        frames.append(frame)
    return frames


def make_synthetic_dataset(
    name: str = "synthetic",
    dim: int = 24,
    n_sequences: tuple[int, int, int] = (8, 4, 4),
    length_range: tuple[int, int] = (30, 60),
    seed: int = 0,
) -> PianoRollDataset:
    """Generate a small chord-cycle dataset for tests and smoke runs.

    One random cycle of distinct chords is shared by every sequence in
    every split, so the frame following a given chord is the same
    everywhere and next-frame prediction generalizes across splits; 5%
    of frames carry one extra noise note. Deterministic in `seed`.
    """
    _check_count("dim", dim, 4)  # room for the largest, 4-note chord
    _check_count("seed", seed, 0)
    if len(n_sequences) != len(SPLIT_NAMES):
        raise ValueError(f"n_sequences must hold 3 counts, got {n_sequences!r}")
    for count in n_sequences:
        _check_count("n_sequences", count, 0)
    if len(length_range) != 2:
        raise ValueError(f"length_range must hold 2 counts, got {length_range!r}")
    low, high = (_check_count("length_range", n, 1) for n in length_range)
    if low > high:
        raise ValueError(f"length_range must have low <= high, got {length_range!r}")
    rng = np.random.default_rng(seed)
    chords = _random_cycle(rng, dim, int(rng.integers(3, 7)))
    splits = {}
    for split, count in zip(SPLIT_NAMES, n_sequences):
        splits[split] = [
            _cycle_sequence(
                rng, chords, dim,
                int(rng.integers(low, high + 1)),
            )
            for _ in range(count)
        ]
    dataset = PianoRollDataset(name=name, dim=dim, splits=splits)
    validate_dataset_obj(
        {"name": dataset.name, "dim": dataset.dim, "splits": dataset.splits}
    )
    return dataset
