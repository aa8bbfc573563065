"""From posterior draws to per-record weights and a privacy guarantee.

Each record's risk is its worst absolute log-likelihood across posterior
draws. High-risk records (the ones a released model would leak the most
about) get their likelihood contribution downweighted. The resulting
weighted sensitivity bounds epsilon at exactly twice the sensitivity.
"""

import numpy as np

from swagppm import data, models, ppm, swag, trainer

spec_d = data.SyntheticSpec(num_classes=6, zipf_exponent=1.2,
                            total_records=600, vocab_size=300,
                            tokens_per_record=(6, 16),
                            class_signal_strength=0.6, seed=21,
                            feature_dim=256)
dataset = data.generate(spec_d)
X, y = dataset.feature_matrix(), dataset.labels
spec = models.ModelSpec(models.SOFTMAX_LINEAR, dataset.feature_dim,
                        dataset.num_classes, weight_decay=1e-4)

theta = models.init_params(spec, seed=1)
cfg = trainer.TrainConfig(trainer.ADAPTIVE, 0.01, 32, 5, seed=2)
theta, _ = trainer.train(spec, theta, X, y, cfg)
sw = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.03, 32, 12, seed=3)
moments = swag.SwagMoments(spec.layout())
trainer.train(spec, theta, X, y, sw, on_epoch=moments.absorb)

abs_ll = ppm.abs_loglik_matrix(spec, moments.draws(200, seed=4), X, y)
# a record's risk is its max |ll| over the draws: the sensitivity fold's
# per-record maxima with every weight 1
risks = ppm.sensitivity(abs_ll, np.ones(len(dataset))).per_record
weights = ppm.map_weights(dataset.ids, risks, c=1.0, g=0.0)
print("risks: min %.3f, median %.3f, max %.3f"
      % (risks.min(), np.median(risks), risks.max()))
print("alpha: min %.3f, mean %.3f (riskiest record gets 0)"
      % (weights.alpha.min(), weights.alpha.mean()))

report = ppm.sensitivity(abs_ll, weights.alpha, dataset.ids)
print("weighted sensitivity %.4f -> epsilon %.4f"
      % (report.delta, report.epsilon))
print("binding record %d at draw %d"
      % (report.argmax_record_id, report.argmax_draw))

# reweighting recovers utility: pull every weight toward k * Delta / Delta_i
# so most records sit near 1 while the bound stays controlled
rw = ppm.reweight(weights, report, k=0.95)
after = ppm.sensitivity(abs_ll, rw.alpha, dataset.ids)
print("reweighted alpha mean %.3f, epsilon %.4f (stage %s)"
      % (rw.alpha.mean(), after.epsilon, rw.stage))
