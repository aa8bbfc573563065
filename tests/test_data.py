import csv
import hashlib
import importlib.resources
import io

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import data, models, trainer
from swagppm.params import ParameterVector


def small_spec(**overrides):
    base = dict(num_classes=5, zipf_exponent=1.0, total_records=300,
                vocab_size=200, tokens_per_record=(5, 12),
                class_signal_strength=0.8, seed=11, feature_dim=256)
    base.update(overrides)
    return data.SyntheticSpec(**base)


def dataset_of(labels, num_classes, columns=None):
    """Record i has id i, label labels[i] and the one feature columns[i]
    (default 0) of value 1.0, in dimension 8."""
    n = len(labels)
    columns = np.zeros(n, dtype=np.int64) if columns is None else columns
    matrix = sp.csr_matrix((np.ones(n), columns, np.arange(n + 1)),
                           shape=(n, 8))
    return data.LabeledDataset(range(n), labels, matrix, num_classes)


def test_hash_features_empty():
    indices, values = data.hash_features([], 64)
    assert indices.size == 0 and values.size == 0


def test_hash_features_order_invariant():
    a = data.hash_features(["foo", "bar", "baz"], 64)
    b = data.hash_features(["baz", "foo", "bar"], 64)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_hash_features_duplicate_doubles_magnitude():
    i1, v1 = data.hash_features(["foo", "bar"], 64)
    i2, v2 = data.hash_features(["foo", "foo", "bar"], 64)
    # pre-normalization magnitudes: undo the L2 norm
    m1 = dict(zip(i1.tolist(), (v1 * np.sqrt(2.0)).tolist()))
    m2 = dict(zip(i2.tolist(), (v2 * np.sqrt(5.0)).tolist()))
    foo_idx = data.fnv1a_64("foo") & 63
    assert abs(m2[foo_idx]) == pytest.approx(2 * abs(m1[foo_idx]))


def test_hash_features_requires_power_of_two():
    with pytest.raises(data.DataError):
        data.hash_features(["x"], 100)


def test_fnv1a_reference_value():
    # FNV-1a 64-bit of empty input is the offset basis
    assert data.fnv1a_64("") == 0xCBF29CE484222325


def test_generate_deterministic():
    a = data.generate(small_spec())
    b = data.generate(small_spec())
    assert a.content_hash() == b.content_hash()
    c = data.generate(small_spec(seed=12))
    assert a.content_hash() != c.content_hash()


def test_generate_flat_zipf_near_uniform():
    ds = data.generate(small_spec(zipf_exponent=0.0, num_classes=10,
                                  total_records=10_000))
    counts = ds.class_counts()
    assert counts.max() / counts.min() <= 1.2


def test_generate_zipf_imbalance():
    ds = data.generate(small_spec(zipf_exponent=1.5, total_records=2000))
    counts = ds.class_counts()
    assert counts[0] > 3 * counts[-1]
    assert counts.sum() == 2000 and counts.min() >= 1


def test_generate_separable_when_signal_full():
    ds = data.generate(small_spec(class_signal_strength=1.0,
                                  total_records=400, feature_dim=1024))
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, ds.feature_dim,
                            ds.num_classes)
    theta0 = ParameterVector(np.zeros(spec.num_params), spec.layout())
    cfg = trainer.TrainConfig(trainer.ADAPTIVE, 0.05, 50, 30, seed=0)
    theta, _ = trainer.train(spec, theta0, ds.feature_matrix(), ds.labels,
                             cfg)
    P = models.forward_batch(spec, theta, ds.feature_matrix())
    acc = (P.argmax(axis=1) == ds.labels).mean()
    assert acc >= 0.99


def test_generate_infeasible():
    with pytest.raises(data.DataError):
        small_spec(total_records=3)


def test_cap_sample_rule():
    # counts {A:500, B:150, C:1} -> {A:200, B:150}, singleton dropped
    labels = [0] * 500 + [1] * 150 + [2]
    ds = dataset_of(labels, 3, np.arange(len(labels)) % 7)
    out = data.stratified_cap_sample(ds, cap=200, fraction=1.0, seed=0)
    assert sorted(out.class_counts().tolist()) == [150, 200]
    assert out.num_classes == 2


def test_cap_sample_identity_when_loose():
    ds = data.generate(small_spec())
    out = data.stratified_cap_sample(ds, cap=10_000, fraction=1.0, seed=0)
    assert sorted(r.id for r in out.records) == sorted(r.id for r in ds.records)


def test_cap_sample_under_two_classes_raises():
    # all singletons keep no class; one pair beside them keeps one
    for labels, kept in (([0, 1, 2], 0), ([0, 0, 1, 2], 1)):
        with pytest.raises(data.DataError,
                           match="the cap sample keeps %d classes; need at "
                                 "least 2" % kept):
            data.stratified_cap_sample(dataset_of(labels, 3), cap=5)


def test_cap_sample_never_increases_or_leaves_singletons():
    ds = data.generate(small_spec(total_records=500))
    before = ds.class_counts()
    out = data.stratified_cap_sample(ds, cap=40, fraction=0.6, seed=1)
    after = np.zeros_like(before)
    for name, count in zip(out.label_names, out.class_counts()):
        after[int(name)] = count
    assert np.all(after <= before)
    assert np.all(out.class_counts() != 1)


def test_split_class_of_two():
    ds = dataset_of([0, 0], 1)
    train, test = data.stratified_split(ds, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_split_round_half_up():
    ds = dataset_of([0] * 199, 1)
    train, test = data.stratified_split(ds, 0.5, seed=0)
    assert len(train) == 100 and len(test) == 99


def test_split_partition():
    ds = data.generate(small_spec())
    train, test = data.stratified_split(ds, 0.5, seed=3)
    train_ids = set(train.ids.tolist())
    test_ids = set(test.ids.tolist())
    assert train_ids | test_ids == set(ds.ids.tolist())
    assert not (train_ids & test_ids)
    # per-class proportions within one record of the target
    for c, n in enumerate(ds.class_counts()):
        got = int((train.labels == c).sum())
        assert abs(got - n / 2) <= 0.5 + 1e-9


def test_split_rejects_singleton_class():
    ds = dataset_of([0], 1)
    with pytest.raises(data.DataError):
        data.stratified_split(ds)


def test_gini_equal_counts():
    assert data.gini([5, 5, 5]) == 0.0


def test_gini_hand_value():
    assert data.gini([3, 1]) == pytest.approx(0.25)


def test_gini_scale_invariant():
    counts = [7, 3, 1, 12]
    assert data.gini(counts) == pytest.approx(
        data.gini([10 * c for c in counts]))


def test_gini_class_size_fixture():
    path = importlib.resources.files("swagppm.fixtures") / \
        "class_sizes_test.csv"
    with path.open() as f:
        sizes = [int(row["test_size"]) for row in csv.DictReader(f)]
    assert len(sizes) == 153
    assert data.gini(sizes) == pytest.approx(0.6, abs=0.1)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["id", "text", "label"])
        w.writerow([1, "fell off ladder", "fracture"])
        w.writerow([2, "cut by saw", "laceration"])
        w.writerow([3, "slipped on ice", "fracture"])
    ds = data.load_csv(path, feature_dim=128)
    assert len(ds) == 3 and ds.num_classes == 2
    assert ds.label_names == ["fracture", "laceration"]
    assert ds.provenance["kind"] == "csv" and len(ds.provenance["hash"]) == 64


def test_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,hello,world\n")
    with pytest.raises(data.DataError):
        data.load_csv(path)


def test_manifest_contents(tmp_path):
    ds, _ = data.stratified_split(data.generate(small_spec()), 0.5, seed=42)
    path = tmp_path / "manifest.json"
    data.save_manifest(path, ds)
    with open(path) as f:
        obj = json.load(f)
    assert obj["num_records"] == len(ds)
    assert obj["provenance"]["split"] == {"part": "train",
                                          "train_fraction": 0.5, "seed": 42}
    assert sum(obj["class_counts"].values()) == len(ds)


@pytest.mark.parametrize("bad", [
    dict(tokens_per_record=(5, 4)),
    dict(tokens_per_record=(-1, 4)),
    dict(vocab_size=0),
    dict(class_vocab_size=0),
    dict(feature_dim=100),
    dict(feature_dim=0),
    dict(num_classes=3.5),
    dict(total_records=300.5),
    dict(feature_dim=True),
    dict(tokens_per_record=(1.5, 3)),
    dict(zipf_exponent="x"),
    dict(class_signal_strength=None),
    dict(zipf_exponent=True),
    dict(class_signal_strength=True),
    dict(vocab_size=2 ** 32 + 1),
    dict(class_vocab_size=2 ** 32 + 1),
    dict(tokens_per_record=(0, 2 ** 32)),
])
def test_spec_rejects_bad_values(bad):
    with pytest.raises(data.DataError):
        small_spec(**bad)


@pytest.mark.parametrize("row, message", [
    ("x1,fell,fracture", "line 3: id 'x1' is not an integer"),
    ("4,cut by saw", "line 3: row lacks its text or label"),
    ("4", "line 3: row lacks its text or label"),
    ("1,cut by saw,laceration", "line 3: id 1 repeats line 2"),
])
def test_csv_bad_rows_raise_data_error(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text("id,text,label\n1,fell off ladder,fracture\n%s\n"
                    "2,slipped,fracture\n" % row)
    with pytest.raises(data.DataError) as info:
        data.load_csv(path)
    assert str(path) in str(info.value) and message in str(info.value)


@pytest.mark.parametrize("rows_before", [1, 2000])
def test_csv_that_is_not_utf8_raises_data_error_naming_the_line(tmp_path,
                                                               rows_before):
    # past 8192 bytes the text layer decodes ahead of the csv reader, so the
    # line the reader is on is not the line of the bad byte
    path = tmp_path / "bad.csv"
    good = "".join("%d,fell off ladder,fracture\n" % i
                   for i in range(rows_before))
    path.write_bytes(b"id,text,label\n" + good.encode()
                     + b"%d,caf\xe9,laceration\n" % rows_before)
    with pytest.raises(data.DataError) as info:
        data.load_csv(path)
    assert "%s line %d: not UTF-8" % (path, rows_before + 2) in \
        str(info.value)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\x00")),
                     min_size=1, max_size=8),
       crlf=st.booleans(), where=st.floats(0.0, 1.0))
def test_a_bad_byte_anywhere_names_its_line(tmp_path_factory, rows, crlf,
                                            where):
    # \xff is never UTF-8; put into a valid file, even inside a multi-byte
    # character, it fails on its own line, counted by the newlines before
    # it: a quoted newline counts, and so does the \n of a CRLF
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\r\n" if crlf else "\n")
    writer.writerow(["id", "text", "label"])
    writer.writerows([i, text, "a"] for i, text in enumerate(rows))
    content = out.getvalue().encode("utf-8")
    at = int(where * len(content))
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_bytes(content[:at] + b"\xff" + content[at:])
    with pytest.raises(data.DataError) as info:
        data.load_csv(path)
    assert str(info.value) == "%s line %d: not UTF-8" % (
        path, content.count(b"\n", 0, at) + 1)


def test_csv_provenance_hash_is_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "data.csv"
    content = ("id,text,label\r\n1,\"caf\u00e9\r\nau lait\",x\r\n"
               "2,cut,y\r\n").encode("utf-8")
    path.write_bytes(content)
    ds = data.load_csv(path, feature_dim=64)
    assert ds.provenance == {"kind": "csv", "path": str(path),
                             "hash": hashlib.sha256(content).hexdigest()}


def test_csv_field_past_the_size_limit_raises_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,text,label\n1,fell,fracture\n2,%s,laceration\n"
                    % ("x" * (csv.field_size_limit() + 1)))
    with pytest.raises(data.DataError) as info:
        data.load_csv(path)
    assert "%s line 3: field larger than field limit" % path in \
        str(info.value)


def test_feature_matrix_is_the_stored_read_only_matrix():
    ds = data.generate(small_spec())
    first = ds.feature_matrix()
    assert ds.feature_matrix() is first
    assert first.shape == (len(ds), ds.feature_dim)
    for array in (ds.ids, ds.labels, first.indptr, first.indices,
                  first.data):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(AttributeError):
        ds.records = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.records[0].label = 1


@pytest.mark.parametrize("ids, labels, rows, message", [
    (range(3), [0, 1], 3, "differ in number"),
    (range(2), [0, 1], 3, "differ in number"),
    (range(3), [0, 1, 2], 3, r"labels must lie in \[0, 2\)"),
    (range(3), [0, -1, 1], 3, r"labels must lie in \[0, 2\)"),
    ([2 ** 63], [0], 1, "fit in int64"),
])
def test_constructor_rejects_bad_ids_lengths_and_labels(ids, labels, rows,
                                                        message):
    matrix = sp.csr_matrix(np.ones((rows, 8)))
    with pytest.raises(data.DataError, match=message):
        data.LabeledDataset(ids, labels, matrix, 2)


@pytest.mark.parametrize("column", [-1, 8])
def test_constructor_rejects_an_index_past_the_dimension(column):
    matrix = sp.csr_matrix((np.ones(1), np.array([column]), np.array([0, 1])),
                           shape=(1, 8))
    with pytest.raises(data.DataError, match="must lie in"):
        data.LabeledDataset([0], [0], matrix, 1)


@pytest.mark.parametrize("indptr", [[0, 10, 4], [1, 2, 4], [0, 2, 5]])
def test_constructor_rejects_an_index_pointer_past_its_arrays(indptr):
    # scipy builds [0, 10, 4], whose records, and any kernel over them,
    # would read past the arrays; the others are set after scipy checked the
    # matrix. (A pointer ending short of the arrays has them trimmed to it.)
    matrix = sp.csr_matrix((np.ones(4), [0, 1, 2, 3], [0, 2, 4]),
                           shape=(2, 8))
    matrix.indptr = np.array(indptr, dtype=matrix.indices.dtype)
    with pytest.raises(data.DataError):
        data.LabeledDataset([0, 1], [0, 1], matrix, 2)


def test_csv_header_names_may_carry_spaces(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id, text , label\n1,fell off ladder,fracture\n")
    ds = data.load_csv(path, feature_dim=64)
    assert ds.label_names == ["fracture"] and ds.records[0].id == 1


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: small_spec(class_signal_strength=1.5),
                 r"class_signal_strength must lie in \[0, 1\]",
                 id="signal-above-one"),
    pytest.param(lambda: small_spec(class_signal_strength=-0.1),
                 r"class_signal_strength must lie in \[0, 1\]",
                 id="signal-below-zero"),
    pytest.param(lambda: data.stratified_cap_sample(
        dataset_of([0, 0, 1, 1], 2), cap=1), "cap must be >= 2",
        id="cap-below-two"),
    pytest.param(lambda: data.gini([0, 0, 0]),
                 "need at least one nonzero class count", id="gini-no-counts"),
])
def test_bad_arguments_raise_data_error(call, message):
    with pytest.raises(data.DataError, match="^%s$" % message):
        call()


def test_zipf_counts_trim_an_overshoot_from_the_largest_class():
    # 6 records over 5 classes at exponent 3: the floors of the targets are
    # 5, 0, 0, 0, 0, raised to at least 1 they sum to 9, and the largest
    # class gives the 3 back
    counts = data._zipf_counts(5, 3.0, 6)
    assert counts.tolist() == [2, 1, 1, 1, 1]
