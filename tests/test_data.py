"""Synthetic dataset generator, drift variant, and CSV loading."""
import re

import numpy as np
import pytest

from enboost import data
from enboost.data import Dataset, drift_dataset, load_csv, synth_dataset
from enboost.errors import ConfigError
from enboost.nn import TensorShape


def test_synth_deterministic_and_shaped():
    a = synth_dataset(seed=3, classes=4, samples_per_class=10, shape=(2, 6, 6), noise=2.5)
    b = synth_dataset(seed=3, classes=4, samples_per_class=10, shape=(2, 6, 6), noise=2.5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.x.shape == (40, 2, 6, 6)
    assert sorted(np.unique(a.y)) == [0, 1, 2, 3]
    c = synth_dataset(seed=4, classes=4, samples_per_class=10, shape=(2, 6, 6), noise=2.5)
    assert not np.array_equal(a.x, c.x)


def test_splits_partition_the_samples():
    ds = synth_dataset(seed=1, classes=3, samples_per_class=20, shape=(1, 4, 4), noise=2.5)
    all_idx = np.concatenate([ds.splits[s] for s in ("train", "eval", "test")])
    assert sorted(all_idx) == list(range(60))
    assert ds.split_size("train") == 36
    assert ds.split_size("eval") == ds.split_size("test") == 12


def test_splits_mix_classes():
    ds = synth_dataset(seed=1, classes=3, samples_per_class=20, shape=(1, 4, 4), noise=2.5)
    for name in ("train", "eval", "test"):
        _, y = ds.split(name)
        assert len(np.unique(y)) == 3


@pytest.mark.parametrize("noise", [1e39, 1e308])
def test_synth_rejects_noise_that_draws_pixels_beyond_float32(noise):
    # finite float64 draws that would be inf in the float32 set (1e308 also
    # overflows float64 in the multiply)
    with pytest.raises(ConfigError, match=f"^dataset.generator.noise {re.escape(str(noise))} "
                                          "draws pixels beyond float32's range"):
        synth_dataset(seed=0, classes=2, samples_per_class=5, shape=(1, 4, 4),
                      noise=noise)
    assert np.isfinite(synth_dataset(seed=0, classes=2, samples_per_class=5,
                                     shape=(1, 4, 4), noise=1e37).x).all()


@pytest.mark.parametrize("classes", [2, 3])
def test_synth_rejects_an_empty_split(classes):
    # 2 samples leave eval empty and 3 leave test empty
    with pytest.raises(ConfigError, match=f"^{classes} samples leave the "
                                          f"{'eval' if classes == 2 else 'test'} split empty$"):
        synth_dataset(seed=0, classes=classes, samples_per_class=1, shape=(1, 2, 2),
                      noise=2.5)
    assert synth_dataset(seed=0, classes=2, samples_per_class=2,
                         shape=(1, 2, 2), noise=2.5).split_size("test") == 1


def test_load_csv_rejects_an_empty_split(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0,2.0,3.0,4.0\n1,5.0,6.0,7.0,8.0\n0,1.5,2.5,3.5,4.5\n")
    with pytest.raises(ConfigError, match="^3 samples leave the test split empty$"):
        load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)


def test_drift_cyclic_relabel():
    ds = synth_dataset(seed=2, classes=3, samples_per_class=5, shape=(1, 4, 4), noise=2.5)
    shifted = drift_dataset(ds)
    assert np.array_equal(shifted.y, (ds.y + 1) % 3)
    assert np.array_equal(shifted.x, ds.x)
    assert shifted.x is not ds.x


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    lines = ["# comment", "0,1.0,2.0,3.0,4.0", "", "1,5.0,6.0,7.0,8.0",
             "1,0.5,0.5,0.5,0.5", "0,1.5,2.5,3.5,4.5"]
    path.write_text("\n".join(lines) + "\n")
    ds = load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    assert ds.x.shape == (4, 1, 2, 2)
    assert np.array_equal(ds.x[0].ravel(), [1.0, 2.0, 3.0, 4.0])
    assert list(ds.y) == [0, 1, 1, 0]


def test_load_csv_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0,2.0\n")
    with pytest.raises(ConfigError, match="expected 5 fields"):
        load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    path.write_text("0,1.0,2.0,3.0,oops\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0,1.0,2.0,3.0,4.0\n1,1.0,{bad},3.0,4.0\n")
        with pytest.raises(ConfigError, match=":2: non-finite value"):
            load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    path.write_text("# only comments\n")
    with pytest.raises(ConfigError, match="no samples"):
        load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(x=np.zeros((2, 1, 2, 2)), y=np.array([0, 5]), class_count=2,
                splits={})
    with pytest.raises(ConfigError):
        Dataset(x=np.zeros((2, 4)), y=np.array([0, 1]), class_count=2,
                splits={})


@pytest.mark.parametrize("value", ["1e39", "-3.5e38", "1.7976931348623157e308"])
def test_load_csv_rejects_values_beyond_float32(tmp_path, value):
    # finite in float64, but inf once the dataset is cast to float32
    path = tmp_path / "d.csv"
    path.write_text(f"0,1.0,2.0,3.0,4.0\n1,1.0,2.0,{value},4.0\n")
    with pytest.raises(ConfigError, match=":2: value beyond float32's range"):
        load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    path.write_text("0,3.4028234e38,-3.4028234e38,0,1e-50\n" + "1,1,2,3,4\n" * 4)
    ds = load_csv(path, TensorShape(1, 2, 2), class_count=2, seed=0)
    assert np.isfinite(ds.x).all()


def test_datasets_are_float32_rounded_from_float64_draws():
    # the float64 draws of the same RNG stream, each rounded once
    shape = (2, 3, 3)
    ds = synth_dataset(seed=3, classes=3, samples_per_class=4, shape=shape, noise=2.5)
    rng = np.random.default_rng(3)
    patterns = data._class_patterns(rng, 3, shape)
    want = np.concatenate([patterns[k][None] + 2.5 * rng.standard_normal((4, *shape))
                           for k in range(3)])
    assert ds.x.dtype == np.float32
    assert np.array_equal(ds.x, want.astype(np.float32))
    for name, idx in data._make_splits(12, rng).items():
        assert np.array_equal(ds.splits[name], idx)
    assert drift_dataset(ds).x.dtype == np.float32
