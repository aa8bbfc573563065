import copy

import numpy as np

import check
from swagppm import params


def good_outcome():
    return {
        "fingerprint": {
            "methods": {
                "non-private": {"weighted_f1": 0.9, "macro_f1": 0.8},
                "swag-ppm": {"weighted_f1": 0.7, "macro_f1": 0.6,
                             "delta": 0.75, "epsilon": 1.5,
                             "theta_sha256": "ab" * 32},
            },
            "dp_sgd": {"0.0001": {"weighted_f1": 0.4, "macro_f1": 0.2,
                                  "sigma": 5.0, "epsilon": 3.99,
                                  "target_epsilon": 4.0}},
        },
        "equal": [["Delta recomputed", 0.75, 0.75]],
        "errors": [],
    }


def test_good_outcome_has_no_problems():
    outcome = good_outcome()
    assert check.problems(outcome) == []
    assert check.problems(outcome, copy.deepcopy(outcome["fingerprint"])) == []


def test_epsilon_must_be_exactly_twice_delta():
    outcome = good_outcome()
    outcome["fingerprint"]["methods"]["swag-ppm"]["epsilon"] = 1.5000000001
    (problem,) = check.problems(outcome)
    assert "2 * Delta" in problem


def test_f1_outside_unit_interval_or_nan():
    outcome = good_outcome()
    outcome["fingerprint"]["methods"]["non-private"]["macro_f1"] = 1.01
    outcome["fingerprint"]["dp_sgd"]["0.0001"]["weighted_f1"] = float("nan")
    assert len(check.problems(outcome)) == 2


def test_dp_sgd_realized_epsilon_above_target():
    outcome = good_outcome()
    outcome["fingerprint"]["dp_sgd"]["0.0001"]["epsilon"] = 4.0000001
    (problem,) = check.problems(outcome)
    assert "exceeds target" in problem


def test_unequal_pair_and_reported_error():
    outcome = good_outcome()
    outcome["equal"].append(["sha256 on disk", "aa", "bb"])
    outcome["errors"].append("dp-sgd delta=0.1: unattainable")
    assert check.problems(outcome) == ["dp-sgd delta=0.1: unattainable",
                                       "sha256 on disk: 'aa' != 'bb'"]


def test_reference_mismatch_is_a_problem():
    outcome = good_outcome()
    reference = copy.deepcopy(outcome["fingerprint"])
    reference["methods"]["swag-ppm"]["theta_sha256"] = "cd" * 32
    del reference["dp_sgd"]["0.0001"]["sigma"]
    found = check.problems(outcome, reference)
    assert len(found) == 2
    assert found[0].startswith("fingerprint dp_sgd/0.0001/sigma: present")
    assert found[1].startswith("fingerprint methods/swag-ppm/theta_sha256")


def test_counter_flags_across_operations_and_reference():
    per_op = [{"swag.draws": 1501, "trainer.steps": 10},
              {"swag.draws": 1501, "trainer.steps": 11}]
    flags = check.counter_flags(per_op, {"swag.draws": 1501},
                                {"swag.draws": 1500})
    assert flags == [
        "operation 2 vs 1: trainer.steps: 11 != reference 10",
        "stored counts: swag.draws: 1501 != reference 1500"]
    assert check.counter_flags(per_op[:1], per_op[0], per_op[0]) == []


def test_theta_sha256_matches_checkpoint_payload(tmp_path):
    layout = params.Layout([("W", (3, 2)), ("b", (2,))])
    theta = params.ParameterVector(np.linspace(-1, 1, 8), layout)
    path = tmp_path / "model.bin"
    params.save_checkpoint(str(path), theta, {"epsilon": 1.0})
    loaded, _ = params.load_checkpoint(str(path))
    assert check.theta_sha256(loaded.values) == check.theta_sha256(
        theta.values)
    assert check.theta_sha256(theta.values) != check.theta_sha256(
        theta.values[::-1])
