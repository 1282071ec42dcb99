"""mmfusion: a desk-scale image+text fusion classifier built on a minimal
reverse-mode autodiff engine.

The package is organized as a numpy library: ``tensor`` holds the engine,
``encoders``/``fusion``/``decision`` the network, ``data`` the synthetic
corpus, ``train``/``cli`` the run machinery. See notebooks/ for worked
examples of each layer.
"""

from .tensor import Tensor, backward
from .gradcheck import finite_diff_check
from .optim import AdamW
from .encoders import EncoderConfig, ImageEncoder, TextEncoder, patchify
from .fusion import dropout_channel, elastic_net_channel
from .decision import combined_loss, cross_entropy, weighted_vote
from .metrics import compute_metrics
from .data import SyntheticSpec, generate, load_dataset, save_dataset
from .model import MultimodalClassifier, RunConfig
from .train import evaluate_metrics, train_model

__version__ = "0.1.0"

__all__ = [
    "AdamW", "EncoderConfig", "ImageEncoder", "MultimodalClassifier", "RunConfig",
    "SyntheticSpec", "Tensor", "TextEncoder", "backward", "combined_loss",
    "compute_metrics", "cross_entropy", "dropout_channel", "elastic_net_channel",
    "evaluate_metrics", "finite_diff_check", "generate", "load_dataset",
    "patchify", "save_dataset", "train_model", "weighted_vote",
]
