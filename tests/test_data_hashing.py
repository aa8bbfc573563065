"""The block-hashed data path against a frozen copy of the per-record one.

`_frozen_generate`, `_frozen_hash_features` and `_frozen_compact_labels` are
the definitions the dataset used to be built from, one record at a time;
the package must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swagppm import data, pipeline


# --- frozen per-record definition -------------------------------------------

def _frozen_aggregate(pairs, dim):
    """Sum the signs per index in a dict, sort, divide by the L2 norm."""
    acc = {}
    for idx, sign in pairs:
        acc[idx] = acc.get(idx, 0.0) + sign
    indices = np.array(sorted(acc), dtype=np.int64)
    values = np.array([acc[i] for i in indices])
    norm = np.linalg.norm(values)
    if norm > 0:
        values = values / norm
    return indices, values


def _frozen_hash_features(tokens, dim):
    pairs = []
    for tok in tokens:
        h = data.fnv1a_64(tok)
        pairs.append((h & (dim - 1), 1.0 if h >> 63 else -1.0))
    return _frozen_aggregate(pairs, dim)


def _frozen_generate(spec):
    """(id, indices, values, label) per record, in the old RNG call order."""
    rng = np.random.default_rng(spec.seed)
    counts = data._zipf_counts(spec.num_classes, spec.zipf_exponent,
                               spec.total_records)
    lo, hi = spec.tokens_per_record
    records = []
    rid = 0
    for c in range(spec.num_classes):
        for _ in range(int(counts[c])):
            n_tok = int(rng.integers(lo, hi + 1))
            tokens = []
            for _ in range(n_tok):
                if rng.random() < spec.class_signal_strength:
                    j = int(rng.integers(spec.class_vocab_size))
                    tokens.append("c%d_t%d" % (c, j))
                else:
                    tokens.append("w%d" % int(rng.integers(spec.vocab_size)))
            indices, values = _frozen_hash_features(tokens, spec.feature_dim)
            records.append((rid, indices, values, c))
            rid += 1
    return records


def _frozen_compact_labels(records, num_classes):
    counts = np.zeros(num_classes, dtype=np.int64)
    for _, _, _, label in records:
        counts[label] += 1
    keep = np.nonzero(counts)[0]
    remap = {int(old): new for new, old in enumerate(keep)}
    return [(rid, ind, val, remap[label]) for rid, ind, val, label in records]


def _assert_records_equal(got, want):
    assert len(got) == len(want)
    for r, (rid, indices, values, label) in zip(got, want):
        assert r.id == rid and r.label == label
        assert r.indices.dtype == indices.dtype
        assert r.values.dtype == values.dtype
        assert np.array_equal(r.indices, indices)
        assert np.array_equal(r.values, values)
        # == cannot tell 0.0 from -0.0; the bytes can
        assert r.values.tobytes() == values.tobytes()


# --- differential properties ------------------------------------------------

@st.composite
def specs(draw):
    num_classes = draw(st.integers(2, 5))
    lo = draw(st.integers(0, 3))
    return data.SyntheticSpec(
        num_classes=num_classes,
        zipf_exponent=draw(st.floats(0.0, 2.0)),
        total_records=draw(st.integers(num_classes, 60)),
        vocab_size=draw(st.integers(1, 40)),
        tokens_per_record=(lo, lo + draw(st.integers(0, 8))),
        class_signal_strength=draw(st.sampled_from([0.0, 0.5, 1.0])
                                   | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        # 2..8 forces collisions, so signs cancel inside records
        feature_dim=draw(st.sampled_from([2, 4, 8, 64, 1024])),
        class_vocab_size=draw(st.integers(1, 25)),
    )


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_generate_matches_frozen_per_record_path(spec):
    ds = data.generate(spec)
    want = _frozen_generate(spec)
    _assert_records_equal(ds.records, want)
    compact = ds.subset(range(0, len(ds), 2)).compact_labels()
    _assert_records_equal(compact.records, _frozen_compact_labels(
        want[::2], spec.num_classes))


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([2, 4, 8, 16]),
       lengths=st.lists(st.integers(0, 9), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hash_block_matches_frozen_aggregate(dim, lengths, seed):
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    index = rng.integers(0, dim, total)
    sign = rng.choice([-1.0, 1.0], total)
    indptr, indices, values = data._hash_block(lengths, index, sign, dim)
    start = 0
    for r, n_tok in enumerate(lengths):
        want_i, want_v = _frozen_aggregate(
            zip(index[start:start + n_tok].tolist(),
                sign[start:start + n_tok].tolist()), dim)
        start += n_tok
        got_i = indices[indptr[r]:indptr[r + 1]]
        got_v = values[indptr[r]:indptr[r + 1]]
        assert np.array_equal(got_i, want_i)
        assert got_v.tobytes() == want_v.tobytes()


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(st.sampled_from(["a", "b", "c", "dd", "e1", "f-2",
                                         "été", ""]), max_size=12),
       dim=st.sampled_from([2, 4, 8, 4096]))
def test_hash_features_matches_frozen(tokens, dim):
    got_i, got_v = data.hash_features(tokens, dim)
    want_i, want_v = _frozen_hash_features(tokens, dim)
    assert np.array_equal(got_i, want_i) and got_i.dtype == want_i.dtype
    assert got_v.tobytes() == want_v.tobytes() and got_v.dtype == want_v.dtype


def _cancelling_pair(dim):
    """Two tokens with the same index and opposite signs."""
    seen = {}
    for j in range(1000):
        h = data.fnv1a_64("t%d" % j)
        key = (h & (dim - 1), h >> 63)
        other = (key[0], 1 - key[1])
        if other in seen:
            return seen[other], "t%d" % j
        seen.setdefault(key, "t%d" % j)
    raise AssertionError("no cancelling pair")


def test_fully_cancelled_record_keeps_an_explicit_zero():
    a, b = _cancelling_pair(4)
    indices, values = data.hash_features([a, b], 4)
    assert indices.size == 1 and values.tolist() == [0.0]
    assert values.tobytes() == np.zeros(1).tobytes()  # +0.0, not -0.0
    want_i, want_v = _frozen_hash_features([a, b], 4)
    assert np.array_equal(indices, want_i)
    assert values.tobytes() == want_v.tobytes()


def test_generate_with_empty_last_record_of_last_class():
    # find a seed whose last record draws zero tokens
    for seed in range(200):
        spec = data.SyntheticSpec(3, 1.0, 30, 20, (0, 2), 0.5, seed,
                                  feature_dim=8, class_vocab_size=3)
        want = _frozen_generate(spec)
        if want[-1][1].size == 0:
            break
    else:
        raise AssertionError("no seed with an empty last record")
    got = data.generate(spec).records
    _assert_records_equal(got, want)
    assert got[-1].indices.size == 0 and got[-1].label == 2


def test_generate_all_records_empty():
    spec = data.SyntheticSpec(2, 1.0, 5, 10, (0, 0), 0.5, 0, feature_dim=8)
    ds = data.generate(spec)
    _assert_records_equal(ds.records, _frozen_generate(spec))
    assert ds.feature_matrix().nnz == 0


def test_load_csv_matches_frozen_per_row_hashing(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,text,label\n"
                    "7,Fell off ladder onto the ladder,fracture\n"
                    "3,,laceration\n"
                    "5,cut by saw cut by SAW,laceration\n"
                    "9,   ,fracture\n", encoding="utf-8")
    ds = data.load_csv(path, feature_dim=8)
    rows = [(7, "Fell off ladder onto the ladder", 0), (3, "", 1),
            (5, "cut by saw cut by SAW", 1), (9, "   ", 0)]
    _assert_records_equal(ds.records, [
        (rid,) + _frozen_hash_features(data.tokenize(text), 8) + (label,)
        for rid, text, label in rows])


# --- golden digests -----------------------------------------------------------

def test_default_views_content_hash_is_pinned():
    cfg = pipeline.load_config(None)
    cfg["seed"] = 0
    train, test = pipeline.prepare_data(cfg)
    assert train.content_hash() == (
        "7b25e50647cd7470504484b2682f8a4472711aeba0e505899fb6796762361f1e")
    assert test.content_hash() == (
        "8cc4e14d82ed5824e3dc276ee6d9f69088dad9bfc5fc6e3f05583e5daeed73a1")


# --- block validation ---------------------------------------------------------

def _block():
    return data._hash_block([3, 0, 4, 2], np.array([5, 1, 5, 2, 7, 0, 3, 6, 6]),
                            np.array([1.0, -1, 1, 1, 1, -1, 1, -1, -1]), 8)


def test_check_block_accepts_a_hashed_block():
    indptr, indices, values = _block()
    # record boundaries step down (2 -> 0), which is allowed
    assert indptr.tolist() == [0, 2, 2, 6, 7]
    data._check_block(indptr, indices, values)
    records = data.LabeledDataset(range(4), [0, 1, 0, 1],
                                  data._csr(indptr, indices, values, 8),
                                  2).records
    assert [r.indices.tolist() for r in records] == [[1, 5], [], [0, 2, 3, 7],
                                                     [6]]


@pytest.mark.parametrize("field, position, value, message", [
    ("indices", 3, 0, "strictly increasing"),   # repeats record 2's 0
    ("indices", 4, 1, "strictly increasing"),   # steps down inside record 2
    ("values", 6, np.nan, "finite"),
    ("values", 0, np.inf, "finite"),
])
def test_check_block_rejects_a_corrupted_block(field, position, value,
                                               message):
    indptr, indices, values = _block()
    {"indices": indices, "values": values}[field][position] = value
    with pytest.raises(data.DataError, match=message):
        data._check_block(indptr, indices, values)
    with pytest.raises(data.DataError, match=message):
        data.LabeledDataset(range(4), [0] * 4,
                            data._csr(indptr, indices, values, 8), 1)


def test_hash_block_rejects_keys_past_int64():
    with pytest.raises(data.DataError, match="too large"):
        data._hash_block([1, 1], np.array([0, 0]), np.array([1.0, 1.0]),
                         2 ** 62)
