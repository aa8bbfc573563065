"""Fit a small classifier and build a SWAG posterior over its weights.

Shows the two-phase recipe: an adaptive fine-tune to get near a mode, then
constant-rate SGD whose per-epoch iterates feed the running first and second
moments plus a low-rank deviation buffer. Samples from the fitted Gaussian
and compares their losses to the mean.
"""

import numpy as np

from swagppm import data, models, swag, trainer
from swagppm.params import ParameterVector

spec_d = data.SyntheticSpec(num_classes=6, zipf_exponent=1.2,
                            total_records=600, vocab_size=300,
                            tokens_per_record=(6, 16),
                            class_signal_strength=0.6, seed=11,
                            feature_dim=256)
dataset = data.generate(spec_d)
X, y = dataset.feature_matrix(), dataset.labels

spec = models.ModelSpec(models.SOFTMAX_LINEAR, dataset.feature_dim,
                        dataset.num_classes, weight_decay=1e-4)
theta = models.init_params(spec, seed=3)

ft = trainer.TrainConfig(trainer.ADAPTIVE, 0.01, 32, 5, seed=4)
theta, _ = trainer.train(spec, theta, X, y, ft)

# each SWAG epoch's iterate is absorbed as the epoch ends
sw = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.03, 32, 12, seed=5)
moments = swag.SwagMoments(spec.layout(), k_max=10)
trainer.train(spec, theta, X, y, sw, on_epoch=moments.absorb)
print("absorbed %d snapshots, rank %d, clamped entries %d"
      % (moments.count, moments.k, moments.clamped_entries))
print("diagonal variance: mean %.2e, max %.2e"
      % (moments.sigma_diag().mean(), moments.sigma_diag().max()))

mean_theta = ParameterVector(moments.mean, moments.layout)
mean_loss = -models.log_likelihood_batch(spec, mean_theta, X, y).mean()
draw_losses = [-models.log_likelihood_batch(spec, d, X, y).mean()
               for d in moments.sample(8, seed=6)]
print("mean-weights loss %.4f" % mean_loss)
print("draw losses %s" % " ".join("%.4f" % v for v in draw_losses))
print("spread around the mode is what the risk scores measure next")
