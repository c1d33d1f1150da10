import numpy as np
import pytest
from hypothesis import settings

from lesionformer.model import ModelConfig

# every property and fuzz test draws the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def tiny_config(**overrides):
    base = dict(image_h=8, image_w=8, channels=1, patch=4, embed_dim=8,
                heads=2, scales=2, layers=1, classes=3, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(name="tiny_config")
def tiny_config_fixture():
    return tiny_config()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
