"""Property tests (Hypothesis) over random small shapes."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fmwarp import nn, train  # noqa: E402


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 4),
    length=st.integers(20, 150),
    batch_length=st.integers(2, 50),
    hidden=st.integers(2, 5),
    epochs=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    shuffle=st.booleans(),
)
def test_replicate_equals_solo_fits_bitwise(n, length, batch_length, hidden, epochs, seed,
                                            shuffle):
    # Lockstep training of n realizations gives, for each, exactly what a
    # lone fit from the same seed gives.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(length + 30, 2))
    y = np.tanh(x[:, 0]) - 0.5 * x[:, 1]
    mask = (rng.random(length + 30) < 0.5).astype(float)
    mask[[0, length]] = 1.0  # train and validation each hold an observation
    y = np.where(mask > 0, y, 0.0)
    train_s = train.SupervisedSeries(x[:length], y[:length], mask[:length])
    val_s = train.SupervisedSeries(x[length:], y[length:], mask[length:])
    config = train.TrainConfig(learning_rate=0.05, batch_length=batch_length,
                               max_epochs=epochs, patience=1, seed=seed, shuffle=shuffle)
    lockstep = train.replicate(2, hidden, (3, 2), train_s, val_s, config, n=n)
    for k, real in enumerate(lockstep):
        config_k = replace(config, seed=seed + k)
        params = nn.init_params(2, hidden, (3, 2), rng=train.substream(config_k.seed,
                                                                         train.STREAM_INIT))
        val_k, selection = train.subsample_validation(val_s, config_k.seed)
        solo = train.fit(params, train_s, val_k, config_k, val_selection_id=selection)
        assert (real.seed, real.validation_selection) == (solo.seed, solo.validation_selection)
        assert (real.history, real.best_epoch) == (solo.history, solo.best_epoch)
        for name, arr in real.trained.tensors().items():
            assert_array_equal(arr, solo.trained.tensors()[name])
