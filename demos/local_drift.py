"""Watch a client's weights drift like mean-reverting noise during SGD.

One client trains a small softmax model for several epochs while the
trainer records every parameter coordinate after every step. Fitting each
coordinate's path as an AR(1) recursion gives a per-weight slope a; values
inside (0, 1) mean the weight behaves like a process settling toward a
long-run level, which is the premise behind estimating silent clients.
"""

import numpy as np

from fedsample import (
    ModelSpec,
    fit_ou_ls_columns,
    init_params,
    local_train,
    synth_blobs,
)

# One mid-size client: 300 samples, 3 classes, 8 features.
data = synth_blobs(n_classes=3, dim=8, n_clients=1,
                   samples_per_client=300, shards_per_client=3, seed=5)
x, y = data.clients[0]

spec = ModelSpec("logistic", input_dim=8, n_classes=3)
start = init_params(spec, seed=5)

report = local_train(
    spec, start, (x, y),
    epochs=12, batch_size=30, eta=0.05, seed=17, track="all",
)
steps, n_coords = report.path.shape
print(f"tracked {n_coords} coordinates over {steps - 1} SGD steps")
print(f"update norm {report.update_norm:.4f}")

# Column-wise least squares over the whole path.
fits = fit_ou_ls_columns(report.path, dt=1.0)
slopes = fits.a
in_band = np.mean((slopes > 0.0) & (slopes < 1.0))
print(f"slope a in (0,1) for {in_band:.0%} of coordinates")
print(f"slope range [{slopes.min():.4f}, {slopes.max():.4f}]")

# The later the window, the more settled the path: refit on the back half.
half = steps // 2
late = fit_ou_ls_columns(report.path[half:], dt=1.0)
late_slopes = late.a
late_band = np.mean((late_slopes > 0.0) & (late_slopes < 1.0))
print(f"back-half window: a in (0,1) for {late_band:.0%} of coordinates")

# Sketch one coordinate's path in text: sampled every few steps,
# scaled to a 40-column strip.
coord = int(np.argmax(np.abs(report.path[-1] - report.path[0])))
path = report.path[::4, coord]
lo, hi = path.min(), path.max()
print(f"\ncoordinate {coord} (largest total move), every 4th step:")
for i, v in enumerate(path):
    col = int((v - lo) / (hi - lo + 1e-12) * 39)
    print(f"  step {4 * i:3d} {'.' * col}o")
