# Interference alignment viewed from inside the two-stage lattice scheme.
# Skipping the aggregate stage entirely (all coefficients zero) and scaling
# the alignment receive filter reproduces the alignment rates exactly, so
# alignment is a special case of the lattice design, never better.

import numpy as np

from latticealign import SystemConfig, generate_channels
from latticealign.baselines import (
    conventional_ia_design,
    distributive_ia_design,
    ia_stream_rates,
)
from latticealign.closedform import ia_equivalent_state
from latticealign.rates import stage2_rates

cfg = SystemConfig(K=3, M=2, N=2, L=1, P=100.0, seed=5)
ch = generate_channels(cfg)

# Closed-form 3-user alignment: one shot, exact nulling.
V, U = conventional_ia_design(ch.Hhat, cfg.L)
residual = max(
    float(np.linalg.norm(U[k].conj().T @ ch.Hhat[k, j] @ V[j]))
    for k in range(3) for j in range(3) if j != k
)
print(f"closed-form alignment cross-interference residual: {residual:.2e}")

ia_rates = ia_stream_rates(ch.Hhat, V, U, cfg.P)
st = ia_equivalent_state(V, U, ch, cfg.P)
emb_rates = stage2_rates(ch, st)
print("\nper-user rates, alignment vs embedded stage-2-only design:")
for k in range(3):
    print(f"  user {k}: {ia_rates[k,0]:.6f} vs {emb_rates[k,0]:.6f}")

# The embedded design keeps the alignment degrees of freedom: quadrupling
# the power adds two bits per user (slope one in log2 P).
for P in (1e3, 4e3):
    stP = ia_equivalent_state(V, U, ch, P)
    print(f"P={P:6.0f}: worst user {float(stage2_rates(ch, stP).min()):.4f} bits")

# The iterative variant reaches the same subspaces without the closed form:
# leakage decreases monotonically and collapses for this feasible geometry.
rho = cfg.P / cfg.L
_, _, trace = distributive_ia_design(ch.Hhat, cfg.L, rho, iters=2000)
marks = [0, 1, 2, 10, 100, 1999]
print("\nmin-leakage alternation (iteration: total leakage):")
for m in marks:
    print(f"  {m:5d}: {trace[m]:.3e}")
