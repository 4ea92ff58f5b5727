"""Few-shot hypothesis adaptation on synthetic covariate-shift tasks.

The package trains a target classifier from a frozen source model plus at
most 7 labeled target samples per class, by generating an intermediate
domain with per-class generators and aligning it to the target through a
pair-group discriminator. It ships the benchmark family (wa, ft, shot, the
two-step sfada/tfada/stfada runs), the one-step tohan loop, and a seeded
experiment harness with a CLI.
"""

from .data import (
    Dataset,
    FewShotSet,
    TaskSpec,
    builtin_task,
    load_dataset,
    make_synthetic_task,
    sample_few_shot,
    save_dataset,
)
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
from .harness import (
    EmbeddingTable,
    ExperimentConfig,
    RunResult,
    SummaryTable,
    accuracy,
    dump_embedding,
    read_results,
    run_experiment,
    summarize,
    write_results,
)
from .losses import (
    augmented_l1,
    beta_schedule,
    cross_entropy,
    gen_source_loss,
    gen_target_loss,
    group_ce_loss,
    l1_diameter,
)
from .nn import AdamState, ArchSpec, GradCheckReport, Net, adam_step, forward, grad_check_fd, init_params, num_params
from .pairing import LabeledPool, PairBatch, build_groups, phi
from .trainers import (
    BaselineConfig,
    GeneratorBank,
    PhaseEvent,
    SourceHypothesis,
    SourceTrainConfig,
    TargetModel,
    TohanConfig,
    adapt_pairwise,
    run_two_step,
    sample_pool,
    train_ft,
    train_generator_bank,
    train_shot,
    train_source,
    train_tohan,
)

__version__ = "0.1.0"
