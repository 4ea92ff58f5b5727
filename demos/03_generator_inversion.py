"""
Inverting a frozen classifier into an intermediate domain
=========================================================

Each class gets a small generator that maps noise to feature space. The
objective has two pulls: compatibility (the frozen source model should
assign the generated points to the generator's class) and proximity (the
points should sit near that class's few target shots, in augmented L1).
Training only the first term copies the source; only the second copies
the few-shots; the combined objective lands between, which is the point:
an intermediate domain. A trained bank keeps its generators as one
stacked network (an (N, P) parameter stack, row n for class n), and a pool
is one noise draw through that stack.
"""

import numpy as np

from fha import losses, trainers
from fha.data import builtin_task, make_synthetic_task, sample_few_shot

spec = builtin_task("rot40")
source, target, _ = make_synthetic_task(spec)
hypothesis = trainers.train_source(source, trainers.SourceTrainConfig(seed=0))
print(f"source hypothesis: holdout accuracy {hypothesis.test_accuracy:.3f}")

fewshot = sample_few_shot(target, 3, seed=0)
cfg = trainers.TohanConfig(seed=0)


def pool_scores(bank):
    """Mean own-class probability under the source model, and mean
    proximity loss to the few-shots (0 = on top of them)."""
    pool = trainers.sample_pool(bank, per_class=32, seed=99)
    probs = hypothesis.cls(hypothesis.enc(pool.features))
    own = float(probs[np.arange(pool.size), pool.labels].mean())
    diameter = losses.l1_diameter(spec.dim)
    prox = float(np.mean([
        losses.gen_target_loss(
            pool.features[pool.labels == c],
            fewshot.class_features(c).astype(np.float64),
            diameter,
        )
        for c in range(spec.num_classes)
    ]))
    return own, prox


print("\ngenerator objective -> pool character")
print(f"{'mode':<14} {'own-class prob':>14} {'proximity loss':>15}")
for mode in ("source_only", "target_only", "combined"):
    bank = trainers.train_generator_bank(hypothesis, fewshot, mode, cfg)
    own, prox = pool_scores(bank)
    print(f"{mode:<14} {own:>14.3f} {prox:>15.4f}")

# source_only scores highest on compatibility and ignores the shots;
# target_only hugs the shots and loses compatibility; combined trades
# a little of each. The tradeoff weight (cfg.tradeoff) sets the balance.

# All generators end in a sigmoid head, so pools always live in the same
# unit box as the data.
bank = trainers.train_generator_bank(hypothesis, fewshot, "combined", cfg)
pool = trainers.sample_pool(bank, per_class=64, seed=1)
print(f"\ncombined pool: {pool.size} samples in "
      f"[{pool.features.min():.3f}, {pool.features.max():.3f}], "
      f"labels {np.bincount(pool.labels).tolist()}")
