"""Renyi accounting for subsampled Gaussian steps, and the DP-SGD baseline.

Composes per-step RDP over integer orders, converts to (epsilon, delta),
calibrates the noise multiplier to a target budget by bisection, then trains
the noisy clipped-gradient baseline with that multiplier.
"""

from swagppm import accountant, data, models, trainer

# accounting only needs the sampling rate, noise multiplier, and step count
q, steps = 512 / 2000, 30 * (2000 // 512 + 1)
for sigma in (1.0, 2.0, 4.0):
    ledger = accountant.compose(accountant.RdpLedger(q, sigma), steps)
    budget = accountant.to_dp(ledger, 1e-4)
    print("sigma %.1f -> epsilon %.3f at delta 1e-4 (order %d)"
          % (sigma, budget.epsilon, budget.order))

sigma = accountant.calibrate_noise(4.0, 1e-4, q, steps)
print("calibrated sigma %.4f for target epsilon 4" % sigma)

# larger delta buys a smaller sigma for the same epsilon
for delta in (1e-4, 1e-2, 0.99):
    s = accountant.calibrate_noise(4.0, delta, q, steps)
    print("delta %g -> sigma %.3f" % (delta, s))

spec_d = data.SyntheticSpec(num_classes=6, zipf_exponent=1.2,
                            total_records=2000, vocab_size=300,
                            tokens_per_record=(6, 16),
                            class_signal_strength=0.6, seed=31,
                            feature_dim=256)
dataset = data.generate(spec_d)
spec = models.ModelSpec(models.SOFTMAX_LINEAR, dataset.feature_dim,
                        dataset.num_classes)
cfg = trainer.TrainConfig(trainer.DP_SGD, 0.001, 512, 30, seed=5,
                          clip_norm=1.0, noise_multiplier=sigma)
theta, losses = trainer.train(spec, models.init_params(spec, 0),
                              dataset.feature_matrix(), dataset.labels, cfg)
print("dp-sgd final mean train loss %.4f" % losses[-1])
