import numpy as np
import pytest

from fluxon.behavioral import BQ_PULSE_SPACING_PS
from fluxon.snn import DEFAULT_CLOCK_PS, LayerSpec, NetworkSpec


def random_spec(rng: np.random.Generator, shape=(4, 4, 3), thresholds=(1, 2, 5)) -> NetworkSpec:
    """Random integer-weight network in the hardware alphabet, thresholds drawn from `thresholds`.

    The clock is the shortest the spec accepts (the BQ spacing times its
    largest threshold), the default, or a draw between the two.
    """
    n_in, n_hidden, n_out = shape
    thr = np.asarray(thresholds)
    layers = (
        LayerSpec(rng.integers(-2, 3, size=(n_hidden, n_in)), tuple(rng.choice(thr, size=n_hidden)), "SM4"),
        LayerSpec(rng.integers(-2, 3, size=(n_out, n_hidden)), tuple(rng.choice(thr, size=n_out)), "SM2"),
    )
    shortest = BQ_PULSE_SPACING_PS * max(max(layer.thresholds) for layer in layers)
    clock = rng.choice([shortest, DEFAULT_CLOCK_PS, rng.uniform(shortest, DEFAULT_CLOCK_PS)])
    return NetworkSpec(input_dim=n_in, layers=layers, clock_ps=float(clock))


def all_ternary_inputs(dim=4):
    grids = np.meshgrid(*([np.arange(3)] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.fixture(scope="session")
def iris_samples():
    from importlib import resources

    from fluxon.train import load_iris

    return load_iris(resources.files("fluxon.data").joinpath("iris.csv").read_text())
