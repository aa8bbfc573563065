import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swagppm import metrics


def tally(tp, fp, fn, support=None):
    tp, fp, fn = (np.array(v) for v in (tp, fp, fn))
    if support is None:
        support = tp + fn
    return metrics.ConfusionTally(tp, fp, fn, np.array(support))


def test_f1_hand_value():
    t = tally([2], [1], [1])
    assert metrics.f1_per_class(t)[0] == pytest.approx(2 / 3)


def test_f1_perfect_class():
    assert metrics.f1_per_class(tally([5], [0], [0]))[0] == 1.0


def test_f1_degenerate_zero():
    assert metrics.f1_per_class(tally([0], [0], [3]))[0] == 0.0
    assert metrics.f1_per_class(tally([0], [0], [0]))[0] == 0.0


def test_macro_f1_mean():
    t = tally([5, 0], [0, 0], [0, 3])
    assert metrics.macro_f1(t) == 0.5


def test_macro_f1_all_perfect():
    t = tally([2, 3, 4], [0, 0, 0], [0, 0, 0])
    assert metrics.macro_f1(t) == 1.0


def test_macro_f1_permutation_invariant(rng):
    tp = rng.integers(0, 10, 6)
    fp = rng.integers(0, 5, 6)
    fn = rng.integers(0, 5, 6)
    t = tally(tp, fp, fn)
    perm = rng.permutation(6)
    tper = tally(tp[perm], fp[perm], fn[perm])
    assert metrics.macro_f1(t) == pytest.approx(metrics.macro_f1(tper))


def test_weighted_f1_hand_value():
    t = tally([3, 0], [0, 0], [0, 1], support=[3, 1])
    assert metrics.weighted_f1(t) == pytest.approx(0.75)


def test_weighted_equals_macro_when_balanced():
    t = tally([2, 1], [1, 2], [1, 1], support=[4, 4])
    assert metrics.weighted_f1(t) == pytest.approx(metrics.macro_f1(t))


def test_weighted_single_class():
    t = tally([2], [1], [1], support=[7])
    assert metrics.weighted_f1(t) == pytest.approx(2 / 3)


def test_weighted_zero_support_errors():
    with pytest.raises(metrics.MetricsError):
        metrics.weighted_f1(tally([0], [0], [0], support=[0]))


def test_f1_in_unit_interval(rng):
    t = tally(rng.integers(0, 9, 8), rng.integers(0, 9, 8),
              rng.integers(0, 9, 8))
    assert 0 <= metrics.macro_f1(t) <= 1
    if t.support.sum() > 0:
        assert 0 <= metrics.weighted_f1(t) <= 1


def test_tally_from_predictions_identities(rng):
    num_classes = 5
    y_true = rng.integers(0, num_classes, 200)
    y_pred = rng.integers(0, num_classes, 200)
    t = metrics.tally_from_predictions(y_true, y_pred, num_classes)
    assert t.tp.sum() == (y_true == y_pred).sum()
    assert (t.tp + t.fn).sum() == 200
    assert (t.tp + t.fp).sum() == 200
    np.testing.assert_array_equal(t.support,
                                  np.bincount(y_true, minlength=num_classes))


def _tally_loop(y_true, y_pred, num_classes):
    # Reference: the per-record loop tally_from_predictions ran before it
    # counted with bincount.
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    support = np.bincount(y_true, minlength=num_classes)
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    return metrics.ConfusionTally(tp, fp, fn, support)


@st.composite
def predictions(draw):
    num_classes = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    labels = st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)
    return (np.array(draw(labels), dtype=np.int64),
            np.array(draw(labels), dtype=np.int64), num_classes)


@settings(max_examples=200, deadline=None)
@given(case=predictions())
def test_tally_matches_per_record_loop(case):
    got = metrics.tally_from_predictions(*case)
    want = _tally_loop(*case)
    for name in ("tp", "fp", "fn", "support"):
        assert (getattr(got, name) == getattr(want, name)).all()
        assert getattr(got, name).shape == (case[2],)


@pytest.mark.parametrize("y_true, y_pred", [
    ([0, 3], [0, 1]), ([0, 1], [0, 3]), ([-1, 1], [0, 1]), ([0, 1], [0, -1]),
    ([0, 1], [0]),
])
def test_tally_rejects_out_of_range_or_unequal_lengths(y_true, y_pred):
    with pytest.raises(metrics.MetricsError):
        metrics.tally_from_predictions(np.array(y_true), np.array(y_pred), 3)


def test_quartile_sets_basic():
    top, bottom = metrics.quartile_class_sets([100, 50, 10, 1, 1, 1, 1, 200])
    assert top.tolist() == [7, 0]
    assert set(bottom.tolist()) <= {3, 4, 5, 6}
    assert len(bottom) == 2


def test_quartile_ties_broken_by_label_order():
    top, bottom = metrics.quartile_class_sets([5, 5, 5, 5])
    assert top.tolist() == [0]
    assert bottom.tolist() == [3]


def test_quartile_requires_four_classes():
    with pytest.raises(metrics.MetricsError):
        metrics.quartile_class_sets([1, 2, 3])


def test_quartile_report_dominant_class():
    # one huge class dominates the top quartile
    t = tally([50, 1, 1, 0], [5, 0, 0, 0], [2, 1, 1, 2],
              support=[52, 2, 2, 2])
    rep = metrics.quartile_report(t, [52, 2, 2, 2])
    f1 = metrics.f1_per_class(t)
    assert rep["top"]["weighted_f1"] == pytest.approx(f1[0])
    assert rep["top"]["macro_f1"] == pytest.approx(f1[0])
