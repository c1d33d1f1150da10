"""Multi-scale attention transformer for lesion classification."""

from .autodiff import (DimensionError, NumericError, Tape, TapeError, Tensor,
                       finite_difference_check)
from .model import ModelConfig, forward, grad_cam, init_params
from .training import Checkpoint, TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"
