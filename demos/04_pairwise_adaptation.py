"""
Pairwise adversarial adaptation with a group discriminator
==========================================================

Adaptation does not compare single samples across domains; it compares
pairs. A 4-way discriminator learns to tell which group a pair belongs
to (both-intermediate vs cross-domain, same vs different label), and the
model then updates to make cross-domain pairs look like intermediate
pairs, while a few-shot cross-entropy keeps the labels honest.
"""

import numpy as np

from fha import harness, losses, nn, trainers
from fha.data import builtin_task, make_synthetic_task, sample_few_shot
from fha.pairing import build_groups, phi

spec = builtin_task("rot40")
source, target, target_test = make_synthetic_task(spec)
hypothesis = trainers.train_source(source, trainers.SourceTrainConfig(seed=0))
fewshot = sample_few_shot(target, 3, seed=0)
cfg = trainers.TohanConfig(seed=0)

# a fixed intermediate pool from the combined generator objective
bank = trainers.train_generator_bank(hypothesis, fewshot, "combined", cfg)
pool = trainers.sample_pool(bank, cfg.gen_batch, seed=7)

# --- watch the discriminator learn on its own -----------------------------
disc_arch = trainers.default_discriminator_arch(
    hypothesis.enc.arch.out_width, cfg.hidden
)
disc = nn.Net(disc_arch, nn.init_params(disc_arch, 3))
state = nn.AdamState.init(disc.params.size, cfg.lr)
rng = np.random.default_rng(4)

print("discriminator pretraining (fresh pair batch per step):")
print(f"{'step':>6} {'group CE':>10} {'group accuracy':>15}")
for step in range(cfg.disc_pretrain_epochs + 1):
    if step in (0, 10, 50, cfg.disc_pretrain_epochs):
        acc = trainers.group_discriminator_accuracy(
            disc, hypothesis.enc, pool, fewshot, per_group=64, seed=123
        )
        pairs = build_groups(pool, fewshot, cfg.per_group, np.random.default_rng(5))
        ce, _ = losses.group_ce_and_disc_grad(
            disc, phi(hypothesis.enc, pairs.x1, pairs.x2), pairs.group)
        print(f"{step:>6} {ce:>10.4f} {acc:>15.3f}")
    if step == cfg.disc_pretrain_epochs:
        break
    pairs = build_groups(pool, fewshot, cfg.per_group, rng)
    _, grad = losses.group_ce_and_disc_grad(
        disc, phi(hypothesis.enc, pairs.x1, pairs.x2), pairs.group)
    params, state = nn.adam_step(state, disc.params, grad)
    disc = disc.with_params(params)
print(f"(chance level is 0.25, uniform CE is ln 4 = {np.log(4):.4f})")

# --- the packaged routine --------------------------------------------------
# adapt_pairwise starts a discriminator of its own (seeded from cfg.seed,
# not the one trained above) and pretrains it the same way, then alternates
# one model update (discriminator frozen) and one discriminator update
# (encoder frozen) per epoch. The confusion weight beta ramps up with
# progress. train_tohan runs this same schedule in its final adapt_epochs,
# each epoch against the batch its generator step was computed on. The
# trace= list receives one PhaseEvent per step; the experiment grid passes
# none and keeps only accuracies.
trace = []
model = trainers.adapt_pairwise(pool, fewshot, hypothesis, cfg, trace=trace)

model_events = [ev for ev in trace if ev.phase == "model_update"]
print("\nadaptation epochs (model side):")
print(f"{'epoch':>6} {'beta':>8} {'loss':>10}")
for ev in (model_events[0], model_events[len(model_events) // 2], model_events[-1]):
    print(f"{ev.epoch:>6} {ev.losses['beta']:>8.4f} {ev.losses['adaptation']:>10.4f}")

before = harness.accuracy(hypothesis, target_test)
after = harness.accuracy(model, target_test)
print(f"\ntarget test accuracy: {before:.3f} (frozen source) -> "
      f"{after:.3f} (adapted)")
