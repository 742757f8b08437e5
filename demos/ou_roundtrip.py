"""
Mean-reverting process: simulate, estimate, decode
==================================================

Round-trips a scalar Ornstein-Uhlenbeck process through the estimation
machinery: draw a long path with known (lambda, mu, sigma), fit by least
squares on consecutive pairs, and compare. Then shows how the fitted
parameters let a server guess a value it stopped observing.
"""

import numpy as np

from fedsample import decode, fit_ou_ls, simulate_ou

# ---------------------------------------------------------------- round-trip
# Slow, medium, and fast reversion at two noise levels. 10^5 samples at
# dt=0.1 is plenty for a few percent of relative error.

print("true lam/mu/sigma  ->  recovered (10^5 steps, dt=0.1)")
for lam in (0.5, 1.0, 2.0):
    for sigma in (0.1, 0.5):
        traj = simulate_ou(lam, 0.5, sigma, theta0=0.0, dt=0.1, steps=100_000, seed=42)
        fit = fit_ou_ls(traj, 0.1)
        print(
            f"  {lam:4.1f} /0.50/{sigma:4.2f}  ->  "
            f"{fit.lam:6.3f} /{fit.mu:5.3f}/{fit.sigma:5.3f}"
            f"   (slope a={fit.a:.4f})"
        )

# A noiseless path collapses to exact geometric decay: the fit is exact.
clean = simulate_ou(np.log(2), 0.0, 0.0, theta0=1.0, dt=1.0, steps=6, seed=0)
fit = fit_ou_ls(clean, 1.0)
print(f"\nnoiseless half-life path {np.round(clean, 4)}")
print(f"  recovered lam={fit.lam:.6f} (ln 2 = {np.log(2):.6f}), resid={fit.resid_sd}")

# ------------------------------------------------------------------- decode
# Given a last-seen value and a fitted model, the best guess at the unseen
# present is the conditional mean: it slides from the reference toward mu
# as time passes. Here the model is lam = 1, mu = 0.5.

print("\ndecode(theta_ref=2.0) as elapsed time grows:")
for elapsed in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    print(f"  t={elapsed:3.1f}  ->  {decode(2.0, lam=1.0, mu=0.5, elapsed=elapsed):.4f}")
print("  limit is mu = 0.5")
