import numpy as np
import pytest

from swagppm import ppm


FIXTURE_LL = np.array([[1.0, 4.0], [2.0, 3.0]])  # (draws, records)


def test_compute_risks_column_max():
    np.testing.assert_array_equal(ppm.compute_risks(FIXTURE_LL), [2.0, 4.0])


def test_compute_risks_single_draw():
    np.testing.assert_array_equal(ppm.compute_risks(FIXTURE_LL[:1]),
                                  FIXTURE_LL[0])


def test_compute_risks_monotone_in_draws():
    rng = np.random.default_rng(0)
    for _ in range(20):
        abs_ll = rng.uniform(0, 5, (6, 8))
        base = ppm.compute_risks(abs_ll[:3])
        more = ppm.compute_risks(abs_ll)
        assert np.all(more >= base)


def test_map_weights_hand_fixture():
    w = ppm.map_weights([0, 1, 2], [0.0, 5.0, 10.0], c=1.0, g=0.0)
    np.testing.assert_allclose(w.alpha, [1.0, 0.5, 0.0])
    np.testing.assert_allclose(w.normalized, [0.0, 0.5, 1.0])


def test_map_weights_extremes_default_config():
    # c=1, g=0: least risky record fully weighted, riskiest suppressed
    rng = np.random.default_rng(1)
    risks = rng.uniform(1, 9, 20)
    w = ppm.map_weights(np.arange(20), risks, 1.0, 0.0)
    assert w.alpha[np.argmin(risks)] == 1.0
    assert w.alpha[np.argmax(risks)] == 0.0


def test_map_weights_unweighted_reduction():
    w = ppm.map_weights([0, 1], [3.0, 9.0], c=0.0, g=1.0)
    np.testing.assert_array_equal(w.alpha, 1.0)


def test_map_weights_all_equal_risks():
    w = ppm.map_weights([0, 1, 2], [2.0, 2.0, 2.0], c=1.0, g=0.0)
    np.testing.assert_array_equal(w.normalized, 0.0)
    np.testing.assert_array_equal(w.alpha, 1.0)


def test_map_weights_needs_two_records():
    with pytest.raises(ppm.PpmError):
        ppm.map_weights([0], [1.0], 1.0, 0.0)


def test_sensitivity_hand_fixture():
    report = ppm.sensitivity(FIXTURE_LL, np.array([1.0, 0.5]))
    np.testing.assert_array_equal(report.per_record, [2.0, 2.0])
    assert report.delta == 2.0
    assert report.epsilon == 4.0
    assert report.num_draws == 2


def test_sensitivity_zero_weights():
    report = ppm.sensitivity(FIXTURE_LL, np.zeros(2))
    assert report.delta == 0.0
    assert report.epsilon == 0.0


def test_epsilon_is_twice_delta():
    report = ppm.sensitivity(np.array([[2.175]]), np.array([1.0]))
    assert report.epsilon == pytest.approx(4.35)


def test_sensitivity_monotone_in_alpha():
    rng = np.random.default_rng(2)
    for _ in range(20):
        abs_ll = rng.uniform(0, 5, (4, 6))
        a = rng.uniform(0, 1, 6)
        b = np.clip(a + rng.uniform(0, 0.5, 6), 0, 1)
        assert ppm.sensitivity(abs_ll, a).delta <= \
            ppm.sensitivity(abs_ll, b).delta + 1e-15


def test_sensitivity_scales_linearly():
    rng = np.random.default_rng(3)
    abs_ll = rng.uniform(0, 5, (4, 6))
    a = rng.uniform(0.1, 1, 6)
    base = ppm.sensitivity(abs_ll, a).delta
    for c in (0.25, 0.5, 1.0):
        assert ppm.sensitivity(abs_ll, c * a).delta == pytest.approx(
            c * base, rel=1e-12)


def test_sensitivity_draw_prefix_monotone():
    rng = np.random.default_rng(4)
    for _ in range(50):
        abs_ll = rng.uniform(0, 5, (8, 5))
        a = rng.uniform(0, 1, 5)
        full = ppm.sensitivity(abs_ll, a).delta
        for s in range(1, 9):
            assert ppm.sensitivity(abs_ll[:s], a).delta <= full + 1e-15


def test_reweight_hand_fixture():
    w = ppm.map_weights([0, 1], [0.0, 1.0], 1.0, 0.0)
    w.alpha = np.array([1.0, 0.5])
    report = ppm.sensitivity(FIXTURE_LL, w.alpha)
    rw = ppm.reweight(w, report, k=0.95)
    np.testing.assert_allclose(rw.alpha, [0.95, 0.475])
    assert rw.stage.startswith("reweighted")


def test_reweight_constant_risk_identity():
    rng = np.random.default_rng(5)
    abs_ll = rng.uniform(0.5, 4, (6, 10))
    alpha = rng.uniform(0.2, 0.9, 10)
    w = ppm.RiskWeights(np.arange(10), abs_ll.max(axis=0),
                        np.zeros(10), alpha, 1.0, 0.0)
    report = ppm.sensitivity(abs_ll, alpha)
    k = 0.95
    rw = ppm.reweight(w, report, k)
    new_report = ppm.sensitivity(abs_ll, rw.alpha)
    unclipped = rw.alpha < 1.0
    np.testing.assert_allclose(new_report.per_record[unclipped],
                               k * report.delta, rtol=1e-12)
    assert new_report.delta <= report.delta + 1e-15


def test_reweight_zero_risk_records_get_full_weight():
    abs_ll = np.array([[0.0, 3.0]])
    alpha = np.array([0.4, 0.5])
    w = ppm.RiskWeights(np.arange(2), abs_ll.max(axis=0), np.zeros(2),
                        alpha, 1.0, 0.0)
    rw = ppm.reweight(w, ppm.sensitivity(abs_ll, alpha), 0.9)
    assert rw.alpha[0] == 1.0


def test_reweight_rejects_zero_delta():
    w = ppm.RiskWeights(np.arange(2), np.zeros(2), np.zeros(2),
                        np.zeros(2), 1.0, 0.0)
    report = ppm.sensitivity(np.zeros((1, 2)), w.alpha)
    with pytest.raises(ppm.PpmError):
        ppm.reweight(w, report, 0.95)


def test_weights_csv_round_trip(tmp_path):
    w = ppm.map_weights([3, 7, 9], [0.5, 2.0, 1.0], 1.0, 0.1)
    path = tmp_path / "weights.csv"
    ppm.save_weights_csv(path, w)
    loaded = ppm.load_weights_csv(path)
    np.testing.assert_array_equal(loaded.record_ids, w.record_ids)
    np.testing.assert_array_equal(loaded.risks, w.risks)
    np.testing.assert_array_equal(loaded.alpha, w.alpha)
    assert loaded.stage == w.stage


def test_report_json_fields(tmp_path):
    report = ppm.sensitivity(FIXTURE_LL, np.array([1.0, 0.5]),
                             record_ids=[10, 11])
    path = tmp_path / "report.json"
    ppm.save_report_json(path, report)
    import json
    obj = json.load(open(path))
    assert obj["epsilon"] == 4.0
    assert obj["argmax_record_id"] in (10, 11)
    assert obj["num_draws"] == 2

