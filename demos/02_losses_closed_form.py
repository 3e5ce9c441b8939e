"""The contrastive objective and its hand-checkable closed forms.

Both training losses are summed bidirectional InfoNCE terms over a batch
of N image/text pairs.  Two degenerate batches have exact values:

  * all similarities equal       -> N log N per direction, any temperature
  * identity similarity, tau=1   -> 2 N log(1 + (N-1) e^{-1}) ... = 1.253046
                                    for N=2

The long-text loss adds one bidirectional term per corner feature on top
of the global text feature, so a uniform batch gives (1+m) * 2 N log N.
Run:  python3 demos/02_losses_closed_form.py
"""

import math

import numpy as np

from cornerclip import objective
from cornerclip.autodiff import Tensor

N, m, p = 4, 2, 8
rng = np.random.default_rng(0)

# --- uniform similarities ----------------------------------------------------
v = rng.normal(size=(1, p))
v /= np.linalg.norm(v)
V = np.repeat(v, N, axis=0)          # every image identical
T = V.copy()                          # every text identical

short = float(objective.short_loss(V, T, tau=0.07).value)
print(f"uniform batch, N={N}:")
print(f"  short loss = {short:.6f}   (2 N log N = {2 * N * math.log(N):.6f})")

long = float(objective.long_loss(V, T, [V] * m, tau=0.07).value)
print(f"  long loss  = {long:.6f}  ((1+m) 2 N log N = {(1 + m) * 2 * N * math.log(N):.6f})")

# --- identity similarity, N=2, tau=1 ----------------------------------------
val = float(objective.short_loss(np.eye(2), np.eye(2), tau=1.0).value)
print(f"\nidentity similarity, N=2, tau=1: short loss = {val:.6f} (expected 1.253046)")

# --- the learnable temperature ----------------------------------------------
# tau lives on a log scale and is clamped to [0.01, 10]; gradients flow
# through it like through any other parameter.
s = objective.initial_log_scale(0.07)
print(f"\ninitial tau = {float(objective.temperature(s).value):.4f}")

# --- gradients are exact -----------------------------------------------------
Vt = Tensor(rng.normal(size=(N, p)), requires_grad=True)
Tt = rng.normal(size=(N, p))
loss = objective.short_loss(Vt, Tt, tau=0.5)
loss.backward()

i, j = 1, 3
eps = 1e-6
up = Vt.value.copy(); up[i, j] += eps
dn = Vt.value.copy(); dn[i, j] -= eps
fd = (float(objective.short_loss(up, Tt, 0.5).value)
      - float(objective.short_loss(dn, Tt, 0.5).value)) / (2 * eps)
print(f"\nd(loss)/d(V[{i},{j}]): autodiff {Vt.grad[i, j]:+.8f}  "
      f"finite difference {fd:+.8f}")
