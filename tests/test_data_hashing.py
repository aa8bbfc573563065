"""The block-hashed data path against a frozen copy of the per-record one.

`_frozen_generate`, `_frozen_hash_features` and `_frozen_compact_labels` are
the definitions the dataset used to be built from, one record at a time,
and `_frozen_csv_rows` the text-mode parse CSV rows used to be read with;
the package must reproduce them bit for bit.
"""

import csv
import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from swagppm import csr, data, pipeline

from conftest import traced_peak


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


def _frozen_csv_rows(path):
    """(id, text, label) per row, parsed from the file opened in text mode."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        reader.fieldnames = [c.strip() for c in reader.fieldnames]
        return [(int(row["id"]), row["text"], row["label"]) for row in reader]


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
@given(spec=specs(), cap=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_generate_matches_frozen_per_record_path(spec, cap, seed):
    # the cap sample keeps the records its ids name (generate's ids are
    # their rows) with their labels renumbered over the classes kept
    ds = data.generate(spec)
    want = _frozen_generate(spec)
    _assert_records_equal(ds.records, want)
    kept = int(np.sum(ds.class_counts() >= 2))
    if kept < 2:
        with pytest.raises(data.DataError, match="keeps %d classes" % kept):
            data.stratified_cap_sample(ds, cap, seed=seed)
        return
    capped = data.stratified_cap_sample(ds, cap, seed=seed)
    _assert_records_equal(capped.records, _frozen_compact_labels(
        [want[i] for i in capped.ids], spec.num_classes))
    assert capped.label_names == [
        name for name, count in zip(ds.label_names, ds.class_counts())
        if count >= 2]
    assert capped.provenance == dict(ds.provenance, cap_sample={
        "cap": cap, "fraction": 1.0, "seed": seed})


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([2, 4, 8, 16]),
       lengths=st.lists(st.integers(0, 9), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hash_block_matches_frozen_aggregate(dim, lengths, seed):
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    index = rng.integers(0, dim, total)
    sign = rng.choice([-1.0, 1.0], total)
    block = data._hash_block(lengths, index, sign, dim)
    indptr, indices, values = block.indptr, block.indices, block.data
    assert block.shape == (len(lengths), dim)
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


@pytest.mark.parametrize("chunk", [data._CHUNK, 1, 3])
# the patched chunk size is the same for every example
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.text(st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00")),
    st.sampled_from(["fracture", " cut ", "b\u00e9"])), min_size=0,
    max_size=8), crlf=st.booleans(), header=st.sampled_from(
    ["id,text,label", " id , text , label ", "id,text,label,extra"]))
def test_load_csv_rows_match_frozen_text_mode_parse(chunk, monkeypatch,
                                                    tmp_path_factory, rows,
                                                    crlf, header):
    # quoted newlines, lone CRs, commas and quotes in the text; CRLF or LF
    # line ends; padded or extra header names; with chunks of 1 or 3 rows,
    # a file of several rows is hashed in several chunks
    monkeypatch.setattr(data, "_CHUNK", chunk)
    out = io.StringIO(newline="")
    out.write(header + ("\r\n" if crlf else "\n"))
    # quoting every text, as a lone CR outside quotes ends a row
    writer = csv.writer(out, lineterminator="\r\n" if crlf else "\n",
                        quoting=csv.QUOTE_NONNUMERIC)
    writer.writerows([3 * i + 1, text, label]
                     for i, (text, label) in enumerate(rows))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(out.getvalue().encode("utf-8"))
    ds = data.load_csv(path, feature_dim=8)
    want = _frozen_csv_rows(path)
    assert ds.label_names == sorted({label for _, _, label in want})
    _assert_records_equal(ds.records, [
        (rid,) + _frozen_hash_features(data.tokenize(text), 8)
        + (ds.label_names.index(label),) for rid, text, label in want])


# --- the raw-output replay ----------------------------------------------------

def test_raw_stream_replays_generator_calls():
    # integers(2**31 + 1) rejects about half its words, integers(2**32) is
    # numpy's plain 32-bit draw and integers(1) takes nothing; uniforms in
    # between must leave a kept half alone
    sizes = [2 ** 31 + 1, 1, 2 ** 32, 7, 2 ** 31 + 1, 2 ** 31 + 1, 1, 3]
    rng = np.random.default_rng(5)
    stream = data._RawStream(np.random.default_rng(5).bit_generator)
    stream.reserve(3)  # too few: the stream grows as it is read
    for step in range(400):
        k = sizes[step % len(sizes)]
        if step % 3:
            assert stream.random() == rng.random()
        assert stream.integers(k) == int(rng.integers(k))


def _first_rejection(seed, num_tokens, vocab):
    """The first token whose word integers(vocab) rejects, or None, when every
    token takes a uniform and then a word: tokens 2m and 2m + 1 take the low
    and the high half of raw output 3m + 1."""
    raw = np.random.default_rng(seed).bit_generator.random_raw(
        3 * (num_tokens // 2 + 1))
    split = raw[1::3]
    words = np.stack([split & 0xFFFFFFFF, split >> 32], axis=1).ravel()
    leftover = (words[:num_tokens] * np.uint64(vocab)) & 0xFFFFFFFF
    rejected = np.flatnonzero(leftover < (1 << 32) % vocab)
    return int(rejected[0]) if rejected.size else None


@pytest.mark.parametrize("chunk", [data._CHUNK, 1])
def test_generate_matches_frozen_past_a_rejected_word(chunk, monkeypatch):
    # integers(50000) rejects a word with probability 17296 / 2**32; search
    # for a seed whose corpus meets one, mid-corpus, with every token shared
    # and every record 10 tokens long, so the length draws take nothing.
    # With chunks of one record, the rejected record starts its chunk.
    monkeypatch.setattr(data, "_CHUNK", chunk)
    for seed in range(500):
        first = _first_rejection(seed, 20000, 50000)
        if first is not None and 1000 <= first < 19000:
            break
    else:
        raise AssertionError("no seed meets a rejected word")
    spec = data.SyntheticSpec(2, 0.0, 2000, 50000, (10, 10), 0.0, seed,
                              feature_dim=4096)
    _assert_records_equal(data.generate(spec).records, _frozen_generate(spec))


@pytest.mark.parametrize("spec", [
    # every token takes a word, and records end with a kept half
    data.SyntheticSpec(3, 1.0, 40, 9, (3, 3), 0.5, 1, 8, 4),
    data.SyntheticSpec(3, 1.0, 40, 9, (0, 5), 0.5, 2, 8, 4),
    # no token takes a word, so a kept half outlives many uniforms
    data.SyntheticSpec(3, 1.0, 40, 1, (0, 5), 0.0, 3, 8, 4),
    # only the shared words take one: every record is replayed
    data.SyntheticSpec(3, 1.0, 40, 9, (0, 5), 0.5, 4, 8, 1),
])
def test_generate_matches_frozen_across_chunks(spec, monkeypatch):
    # chunks of 3 records, so many chunks start with a kept half
    monkeypatch.setattr(data, "_CHUNK", 3)
    _assert_records_equal(data.generate(spec).records, _frozen_generate(spec))


@pytest.mark.parametrize("seed", [0, 17])
def test_generate_large_corpus_matches_frozen(seed):
    # the large benchmark workloads' corpus
    cfg = pipeline.load_config(None, ["data.synthetic.total_records=40000"])
    cfg["seed"] = seed
    spec = pipeline._check_settings(cfg)
    ds = data.generate(spec)
    want = _frozen_generate(spec)
    lengths = [indices.size for _, indices, _, _ in want]
    matrix = sp.csr_matrix((np.concatenate([r[2] for r in want]),
                            np.concatenate([r[1] for r in want]),
                            np.concatenate([[0], np.cumsum(lengths)])),
                           shape=(len(want), spec.feature_dim))
    got = ds.feature_matrix()
    for a, b in [(ds.ids, np.array([r[0] for r in want])),
                 (ds.labels, np.array([r[3] for r in want])),
                 (got.indptr, matrix.indptr), (got.indices, matrix.indices),
                 (got.data, matrix.data)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.data.tobytes() == matrix.data.tobytes()


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([2, 8, 4096]),
       blocks=st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=8, blocks=[[], [3, 0], [], [0, 0], [2], []], seed=1)
@example(dim=8, blocks=[], seed=1)
def test_hashed_matrix_matches_frozen_per_record_hashing(dim, blocks, seed):
    # a chunk of no records comes from a chunk whose first record has a
    # rejected word, and no chunk at all from a CSV of no rows; a record of
    # no tokens holds no entries
    rng = np.random.default_rng(seed)
    names = ["t%d" % j for j in range(10)]
    chunks = [(lengths, rng.integers(0, len(names), sum(lengths)))
              for lengths in blocks]
    want = [_frozen_hash_features([names[t] for t in tokens[a - n:a]], dim)
            for lengths, tokens in chunks
            for n, a in zip(lengths, np.cumsum(lengths, dtype=int))]
    got = data._hashed_matrix(names, chunks, dim)
    assert got.shape == (len(want), dim)
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert got.indptr.tolist() == [0] + np.cumsum(
        [i.size for i, _ in want], dtype=int).tolist()
    assert got.indices.tolist() == [j for i, _ in want for j in i.tolist()]
    assert got.data.tobytes() == b"".join(v.tobytes() for _, v in want)


def test_generate_holds_the_stacked_int32_arrays_uncopied(monkeypatch):
    stacked = []

    def keep(blocks, width):
        stacked.append(vstack(blocks, width))
        return stacked[-1]

    vstack = csr.vstack
    monkeypatch.setattr(csr, "vstack", keep)
    matrix = data.generate(data.SyntheticSpec(
        5, 1.0, 3000, 200, (0, 12), 0.8, 11, 256)).feature_matrix()
    (made,) = stacked
    for held, array in ((matrix.indptr, made.indptr),
                        (matrix.indices, made.indices),
                        (matrix.data, made.data)):
        assert held.dtype == array.dtype and np.shares_memory(held, array)
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int32


def test_generate_peaks_under_two_and_a_half_times_what_it_returns():
    # the default corpus at 16000 records, four times the default size; the
    # stacked blocks and the arrays they are copied into are alive together,
    # so the bound leaves half the corpus for the token passes' temporaries
    cfg = pipeline.load_config(None, ["data.synthetic.total_records=16000"])
    cfg["seed"] = 3
    spec = pipeline._check_settings(cfg)
    data.generate(data.SyntheticSpec(5, 1.0, 300, 200, (5, 12), 0.8, 11, 256))
    made = []
    peak = traced_peak(lambda: made.append(data.generate(spec)))
    (ds,) = made
    matrix = ds.feature_matrix()
    held = sum(a.nbytes for a in (ds.ids, ds.labels, matrix.indptr,
                                  matrix.indices, matrix.data))
    assert peak < 2.5 * held


def test_load_csv_peaks_under_twelve_times_its_file(tmp_path):
    # 20000 rows of 30 tokens from 3000 words, 4.2 MB. The parse holds the
    # file's bytes, their text and the csv reader's buffer at once; a chunk
    # of rows hashed at a time stays under that, where every token of the
    # file held as a string and as an int took 24 times the file
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("id,text,label\n")
        words = rng.integers(0, 3000, (20000, 30))
        for i, label in enumerate(rng.integers(0, 20, 20000)):
            f.write("%d,%s,c%d\n" % (i, " ".join("w%dx" % w for w in words[i]),
                                      label))
    assert traced_peak(lambda: data.load_csv(path)) < 12 * path.stat().st_size


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
    block = _block()
    # record boundaries step down (2 -> 0), which is allowed
    assert block.indptr.tolist() == [0, 2, 2, 6, 7]
    records = data.LabeledDataset(range(4), [0, 1, 0, 1], block, 2).records
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
    # the block was built canonical; the dataset judges the arrays of a
    # scipy copy as they are now, not a flag scipy cached before they changed
    block = _block()
    assert csr.sparsetools.csr_has_canonical_format(4, block.indptr,
                                                    block.indices)
    matrix = sp.csr_matrix((block.data.copy(), block.indices.copy(),
                            block.indptr.copy()), shape=block.shape)
    assert matrix.has_canonical_format
    {"indices": matrix.indices, "values": matrix.data}[field][position] = value
    with pytest.raises(data.DataError, match=message):
        data.LabeledDataset(range(4), [0] * 4, matrix, 1)


def test_hash_features_at_dim_two_to_the_62_keeps_fnv_low_bits():
    # the index is the hash's low 62 bits, past any record * dim key
    tokens = ["fell", "off", "a", "ladder", "off"]
    indices, values = data.hash_features(tokens, 2 ** 62)
    assert indices.dtype == np.int64
    assert indices.tolist() == sorted(
        {data.fnv1a_64(t) & (2 ** 62 - 1) for t in tokens})
    want_i, want_v = _frozen_hash_features(tokens, 2 ** 62)
    assert np.array_equal(indices, want_i)
    assert values.tobytes() == want_v.tobytes()
