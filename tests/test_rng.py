import numpy as np

from prsim.rng import stream


def test_same_key_same_stream():
    a = stream(7, 1, 2).standard_normal(16)
    b = stream(7, 1, 2).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    a = stream(7, 1, 2).standard_normal(16)
    b = stream(7, 1, 3).standard_normal(16)
    c = stream(8, 1, 2).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)

