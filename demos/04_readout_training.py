"""Training the readout: ridge regression on collected states.

The only trained component of the model is a linear map from the global
reservoir state to the next frame. This demo walks the full pipeline on
a synthetic chord-cycle dataset: collect states, accumulate the normal
equations, solve at a few ridge strengths, threshold the outputs, and score
frame-level accuracy on each split.
"""

from deepesn import ReservoirConfig, make_synthetic_dataset, run_model, sweep_ridges


def main():
    dataset = make_synthetic_dataset(seed=3)
    print(f"dataset '{dataset.name}': {dataset.dim} note slots, "
          + ", ".join(
              f"{len(dataset.sequences(s))} {s}" for s in ("train", "valid", "test")
          ))

    config = ReservoirConfig(
        input_dim=dataset.dim,
        n_layers=2,
        units_per_layer=50,
        leaky_rate=0.5,
        spectral_radius_target=0.9,
        input_scaling=1.0,
        connectivity=0.2,
        seed=0,
    )

    print()
    print("== one collection of states, several ridge strengths ==")
    ridges = (1e-4, 1e-3, 1e-2, 1e-1)
    print(f"{'ridge':>8} {'train':>7} {'valid':>7} {'test':>7}")
    for ridge, result in zip(ridges, sweep_ridges(dataset, config, ridges)):
        print(f"{ridge:8.0e} {result.train_acc:7.3f} {result.valid_acc:7.3f} "
              f"{result.test_acc:7.3f}")

    print()
    print("== binarization threshold tuned on the validation split ==")
    tuned = run_model(dataset, config, ridge=1e-3, tune_threshold=True)
    print(f"chosen threshold {tuned.threshold}: "
          f"valid {tuned.valid_acc:.3f}, test {tuned.test_acc:.3f}")


if __name__ == "__main__":
    main()
