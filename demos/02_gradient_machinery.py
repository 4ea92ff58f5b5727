"""
The tiny network stack and its gradient checks
==============================================

Everything trains through one reverse-mode core: flat parameter vectors,
explicit forward caches, and an Adam step that returns new state instead
of mutating. Finite differences referee every analytic gradient.
"""

import numpy as np

from fha import losses, nn

rng = np.random.default_rng(0)

# A 2 -> 8 -> 3 classifier: a tanh hidden layer, a softmax head. Parameters
# live in one flat vector; init_params draws Glorot-uniform weights with
# zero biases.
arch = nn.ArchSpec((2, 8, 3), head="softmax")
params = nn.init_params(arch, seed=1)
print(f"arch {arch.widths}, {params.size} parameters")

x = rng.uniform(size=(16, 2))
labels = rng.integers(0, 3, size=16)
probs = nn.forward(arch, params, x)
print(f"forward: probs shape {probs.shape}, rows sum to "
      f"{probs.sum(axis=1).min():.6f}..{probs.sum(axis=1).max():.6f}")


# gradient check: central finite differences against the analytic backward
def loss_fn(p):
    out, cache = nn.forward_and_cache(arch, p, x)
    value = losses.cross_entropy(out, labels)
    upstream = losses.cross_entropy_grad(out, labels)
    grad, _ = nn.backward_from_cache(arch, p, cache, upstream)
    return value, grad


report = nn.grad_check_fd(loss_fn, params)
print(f"\ngrad check: passed={report.passed} "
      f"max rel error {report.max_rel_error:.2e}")


# the same check catches a corrupted gradient immediately
def broken_loss_fn(p):
    value, grad = loss_fn(p)
    bad = np.array(grad)
    bad[3] *= 1.5
    return value, bad


report = nn.grad_check_fd(broken_loss_fn, params)
print(f"corrupted gradient: passed={report.passed} "
      f"worst index {report.worst_index} rel error {report.max_rel_error:.2e}")

# Adam is functional: step in, (new params, new state) out. A short run on
# the batch above drives the cross-entropy down.
state = nn.AdamState.init(params.size, lr=1e-2)
trajectory = []
for step in range(200):
    value, grad = loss_fn(params)
    trajectory.append(value)
    params, state = nn.adam_step(state, params, grad)
print("\nAdam on the toy batch:")
for step in (0, 50, 100, 199):
    print(f"  step {step:>3}: cross-entropy {trajectory[step]:.4f}")

# Seed derivation: one root seed fans out into independent child streams,
# and the children are stable under extension of the count.
print(f"\nderive_seeds(7, 3) = {nn.derive_seeds(7, 3)}")
assert nn.derive_seeds(7, 3) == nn.derive_seeds(7, 5)[:3]
print("child seeds are a stable prefix of any longer derivation")
