"""Few-shot hypothesis adaptation on synthetic covariate-shift tasks.

The package trains a target classifier from a frozen source model plus at
most 7 labeled target samples per class, by generating an intermediate
domain with per-class generators and aligning it to the target through a
pair-group discriminator. It ships the benchmark family (wa, ft, shot, the
two-step sfada/tfada/stfada runs), the one-step tohan loop, and a seeded
experiment harness with a CLI.

The top level re-exports the quick-start names and the error types; every
other name lives in its submodule (``fha.data``, ``fha.nn``, ``fha.losses``,
``fha.pairing``, ``fha.trainers``, ``fha.harness``, ``fha.cli``).
"""

from . import data, errors, harness, losses, nn, pairing, trainers
from .data import builtin_task, make_synthetic_task, sample_few_shot
from .errors import (
    ConfigError,
    FHAError,
    FormatError,
    InsufficientDataError,
    MissingClassError,
    NumericalError,
    ProtocolError,
    QualityGateError,
)
from .harness import ExperimentConfig, accuracy, run_experiment, summarize
from .trainers import SourceTrainConfig, TohanConfig, train_source, train_tohan

__version__ = "0.1.0"
