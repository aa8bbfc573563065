"""Synthetic imbalanced text datasets, CSV ingest, hashed bag-of-words
features, stratified capping/splitting, and class-imbalance measurement."""

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import csr
from .params import is_integer, is_number


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Feature hashing
#
# A record's feature vector is a signed hashed bag-of-words, L2-normalized.
# Each token adds its sign at its index: the index is the low bits of the
# token's 64-bit FNV-1a hash and the sign is its top bit, so vectors are
# stable across runs and platforms. Every path (`hash_features`, `load_csv`,
# `generate`) builds through `_hashed_matrix`, which hashes each token name
# once, sums a chunk of records' signs per index (csr.summed) and stacks the
# chunks (csr.vstack).

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(token):
    h = FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def tokenize(text):
    return text.lower().split()


def _token_table(names, dim):
    """Index and sign arrays of each token name's hash, in name order."""
    if dim < 1 or dim & (dim - 1):
        raise DataError("hash dimension must be a power of two")
    hashes = [fnv1a_64(name) for name in names]
    index = np.array([h & (dim - 1) for h in hashes], dtype=np.int64)
    sign = np.array([1.0 if h >> 63 else -1.0 for h in hashes])
    return index, sign


def _hash_block(lengths, index, sign, dim):
    """The csr.Matrix of hashed features of a block of records: record r
    owns the next lengths[r] tokens of index/sign.

    csr.summed sums a copy of each record's signs per index and sorts its
    indices, and csr.divide_rows divides each record's values by its
    norm. Per record this equals summing in a dict, sorting the
    indices and dividing by np.linalg.norm, bit for bit: sums of +-1 are
    exact integers in any order, the norm is sqrt(x.x) over them, and the
    division is elementwise. An index whose signs cancel keeps an explicit
    0.0, and a record with norm 0 keeps its zero values.
    """
    n = len(lengths)
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    block = csr.summed(sign, index, indptr, (n, dim))
    owner = np.repeat(np.arange(n), np.diff(block.indptr))
    # bincount makes an empty record's segment 0, where reduceat would not
    norms = np.sqrt(np.bincount(owner, weights=block.data * block.data,
                                minlength=n))
    norms[norms == 0] = 1.0
    return csr.divide_rows(block, norms)


def _hashed_matrix(names, chunks, dim):
    """The csr.Matrix of hashed features of records given as chunks of
    (lengths, token ids), token j being names[j]: each name is hashed once,
    each chunk as it arrives, and the chunks are stacked once (no chunk, as
    from a CSV of no rows, gives no records)."""
    index, sign = _token_table(names, dim)
    return csr.vstack([_hash_block(lengths, index[tokens], sign[tokens], dim)
                       for lengths, tokens in chunks], dim)


def hash_features(tokens, dim):
    """Signed hashed bag-of-words of one token list, L2-normalized, as
    (int64 indices, values). Empty input gives the zero vector."""
    matrix = _hashed_matrix(tokens, [([len(tokens)], np.arange(len(tokens)))],
                            dim)
    return matrix.indices.astype(np.int64), matrix.data


# ---------------------------------------------------------------------------
# Dataset containers

def _integers(values, what):
    """values as a read-only int64 array; DataError unless each is an
    integer (a bool is not) that int64 holds; an empty sequence passes."""
    given = np.asarray(values)
    if given.size and given.dtype.kind not in "iuO":
        raise DataError("%s must be integers" % what)
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        raise DataError("%s must fit in int64" % what) from None
    if given.dtype.kind == "u" and np.any(array < 0):  # the cast wrapped
        raise DataError("%s must fit in int64" % what)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, slots=True)
class Record:
    """One row of a dataset, as `LabeledDataset.records` builds it."""
    id: int
    indices: np.ndarray
    values: np.ndarray
    label: int


class LabeledDataset:
    """Records as arrays: row i of the CSR feature matrix is record ids[i],
    labelled labels[i]. Validated once here (integer ids and labels, the
    matrix through csr.checked, which copies one from outside, then a
    dataset's own rules: each row's indices strictly increase and every
    value is finite), then every array is read-only, so callers share them."""

    def __init__(self, ids, labels, matrix, num_classes, provenance=None,
                 label_names=None):
        self.ids = _integers(ids, "record ids")
        self.labels = _integers(labels, "labels")
        self._matrix = matrix = csr.checked(matrix, DataError)
        # the kernel reads the pointer, so it runs after csr.checked
        if not csr.sparsetools.csr_has_canonical_format(
                matrix.shape[0], matrix.indptr, matrix.indices):
            raise DataError("feature indices must be strictly increasing")
        if not np.isfinite(matrix.data).all():
            raise DataError("feature values must be finite")
        self.feature_dim = matrix.shape[1]
        if not self.ids.shape == self.labels.shape == matrix.shape[:1]:
            raise DataError("ids, labels and feature rows differ in number")
        if np.any((self.labels < 0) | (self.labels >= num_classes)):
            raise DataError("labels must lie in [0, %d)" % num_classes)
        self.num_classes = num_classes
        self.provenance = provenance or {}
        self.label_names = (label_names if label_names is not None
                            else [str(c) for c in range(num_classes)])

    def __len__(self):
        return self.ids.size

    def _rows(self):
        """A Record per row, its indices cast from the CSR's int32 to int64,
        so row dtypes and content_hash do not depend on the index type."""
        m = self._matrix
        bounds = m.indptr.tolist()
        for rid, label, a, b in zip(self.ids.tolist(), self.labels.tolist(),
                                    bounds, bounds[1:]):
            yield Record(rid, m.indices[a:b].astype(np.int64), m.data[a:b],
                         label)

    @property
    def records(self):
        """The rows as Records, built on each access."""
        return tuple(self._rows())

    def class_counts(self):
        return np.bincount(self.labels, minlength=self.num_classes)

    def feature_matrix(self):
        """The read-only CSR feature matrix, a csr.Matrix, the same object
        on each call."""
        return self._matrix

    def subset(self, record_indices, provenance=None):
        """The records at these integer positions (csr.take), in order."""
        idx = np.asarray(record_indices)
        rows = csr.take(self._matrix, idx)
        idx = idx.astype(np.intp)
        return LabeledDataset(self.ids[idx], self.labels[idx], rows,
                              self.num_classes, provenance or self.provenance,
                              self.label_names)

    def content_hash(self):
        h = hashlib.sha256()
        for r in self._rows():
            h.update(str(r.id).encode())
            h.update(r.indices.tobytes())
            h.update(r.values.tobytes())
            h.update(str(r.label).encode())
        return h.hexdigest()

    def manifest(self):
        counts = self.class_counts()
        return {
            "provenance": self.provenance,
            "num_records": len(self),
            "num_classes": self.num_classes,
            "class_counts": {self.label_names[c]: int(counts[c])
                             for c in range(self.num_classes)},
            "gini": gini(counts),
            "content_hash": self.content_hash(),
        }


# ---------------------------------------------------------------------------
# Synthetic generation
#
# A synthetic record is defined by Generator calls on default_rng(seed):
# integers(lo, hi + 1) for its length, then per token random() < signal to
# pick its class's pool or the shared vocabulary, and integers(size) for the
# token in that pool. `generate` replays those calls from blocks of the bit
# generator's raw output (`random_raw`), bit for bit, by three facts of
# numpy's Generator on PCG64:
# - random() takes one raw output r and returns (r >> 11) * 2**-53;
# - integers(k), 1 < k <= 2**32, takes a 32-bit word and applies Lemire's
#   method: m = word * k, drawn again while m mod 2**32 < 2**32 mod k, and
#   the result is m >> 32. A word is the low half of a new raw output, whose
#   high half is kept as the next word; random() leaves a kept half alone;
# - integers(1) takes nothing.

@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    zipf_exponent: float
    total_records: int
    vocab_size: int
    tokens_per_record: Tuple[int, int]
    class_signal_strength: float
    seed: int
    feature_dim: int = 4096
    class_vocab_size: int = 20

    def __post_init__(self):
        for name in ("num_classes", "total_records", "vocab_size",
                     "class_vocab_size", "feature_dim"):
            if not is_integer(getattr(self, name)):
                raise DataError("%s must be an integer, got %r"
                                % (name, getattr(self, name)))
        for name in ("zipf_exponent", "class_signal_strength"):
            if not is_number(getattr(self, name)):
                raise DataError("%s must be a number, got %r"
                                % (name, getattr(self, name)))
        if self.num_classes < 2:
            raise DataError("need at least 2 classes")
        if self.total_records < self.num_classes:
            raise DataError("total_records must cover every class")
        if not (0 <= self.class_signal_strength <= 1):
            raise DataError("class_signal_strength must lie in [0, 1]")
        lo, hi = self.tokens_per_record
        if not (is_integer(lo) and is_integer(hi) and 0 <= lo <= hi):
            raise DataError("tokens_per_record must be integers (lo, hi) "
                            "with 0 <= lo <= hi, got %r"
                            % (self.tokens_per_record,))
        if self.vocab_size < 1 or self.class_vocab_size < 1:
            raise DataError("vocab_size and class_vocab_size must be >= 1")
        # integers(k) past 2**32 takes 64-bit words, which generate does not
        # replay
        if max(self.vocab_size, self.class_vocab_size, hi - lo + 1) > 2 ** 32:
            raise DataError("vocab_size, class_vocab_size and the number of "
                            "record lengths must be at most 2**32")
        if self.feature_dim < 1 or self.feature_dim & (self.feature_dim - 1):
            raise DataError("feature_dim must be a power of two")


def _zipf_counts(num_classes, exponent, total):
    """Class sizes proportional to rank^-exponent, each at least 1."""
    weights = np.arange(1, num_classes + 1, dtype=np.float64) ** -exponent
    target = weights / weights.sum() * total
    counts = np.maximum(1, np.floor(target).astype(np.int64))
    # distribute the remainder by largest fractional part
    frac = target - np.floor(target)
    order = np.argsort(-frac, kind="stable")
    i = 0
    while counts.sum() < total:
        counts[order[i % num_classes]] += 1
        i += 1
    while counts.sum() > total:
        j = int(np.argmax(counts))
        counts[j] -= 1
    return counts


_MASK32 = 0xFFFFFFFF
_CHUNK = 1024  # records per vectorized token pass


class _RawStream:
    """random() and integers(k) of a PCG64 Generator, replayed one call at a
    time from its bit generator's raw output.

    raw[pos] is the next unused output and half the kept high half of a
    split output, -1 when none is kept. Only `reserve` drops outputs, so a
    position taken between two `reserve` calls stays valid.
    """

    def __init__(self, bit_generator):
        self._bits = bit_generator
        self.raw = np.empty(0, dtype=np.uint64)
        self.pos = 0
        self.half = -1

    def reserve(self, size):
        """Drop the used outputs and hold at least `size` unused ones."""
        self.raw, self.pos = self.raw[self.pos:], 0
        self.ensure(size)

    def ensure(self, size):
        """Hold at least `size` unused outputs."""
        short = self.pos + size - self.raw.size
        if short > 0:
            self.raw = np.concatenate((self.raw, self._bits.random_raw(short)))

    def _take(self):
        self.ensure(1)
        self.pos += 1
        return int(self.raw[self.pos - 1])

    def random(self):
        return (self._take() >> 11) * 2.0 ** -53

    def _word(self):
        if self.half >= 0:
            word, self.half = self.half, -1
            return word
        r = self._take()
        self.half = r >> 32
        return r & _MASK32

    def integers(self, k):
        if k == 1:
            return 0
        m = self._word() * k
        while (m & _MASK32) < (1 << 32) % k:
            m = self._word() * k
        return m >> 32

    def skip_tokens(self, n):
        """Move past n tokens that each take a uniform and then a word, none
        rejected. With a half kept, the first token takes one output and the
        kept half; after that, each two tokens take three outputs: a
        uniform, the output split for their two words, and a uniform."""
        if n and self.half >= 0:
            self.pos, self.half, n = self.pos + 1, -1, n - 1
        self.pos += 3 * (n >> 1)
        if n & 1:
            self.ensure(2)
            self.half = int(self.raw[self.pos + 1]) >> 32
            self.pos += 2


def _token_pass(raw, lengths, start, half, own, spec):
    """The tokens of consecutive records, read from raw where `skip_tokens`
    puts them, and a mask of the tokens whose word is rejected; a record's
    layout holds only up to its first rejection. Record i's tokens start at
    raw[start[i]] with kept half half[i], and own[i] is its pool's first
    token."""
    rec = np.repeat(np.arange(lengths.size), lengths)
    j = np.arange(rec.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    half = half[rec]
    j -= half >= 0  # token -1 takes the kept half
    base = start[rec] + (half >= 0) + 3 * (j >> 1)
    odd = j & 1
    u = (raw[base + 2 * odd] >> 11).astype(np.float64) * 2.0 ** -53
    # token -1 reads a stand-in word (at index 0 or more), then the kept half
    word = (raw[np.maximum(base + 1, 0)] >> (32 * odd).astype(np.uint64)) \
        & _MASK32
    word[j < 0] = half[j < 0]
    pool = u < spec.class_signal_strength
    k = np.where(pool, spec.class_vocab_size,
                 spec.vocab_size).astype(np.uint64)
    m = word * k
    rejected = (m & _MASK32) < np.uint64(1 << 32) % k
    return (m >> 32).astype(np.int64) + np.where(pool, own[rec], 0), rejected


def _replay(stream, n, own, spec):
    """One record's n tokens, call by call."""
    return [own + stream.integers(spec.class_vocab_size)
            if stream.random() < spec.class_signal_strength
            else stream.integers(spec.vocab_size) for _ in range(n)]


def _draw_tokens(rng, labels, spec):
    """Consecutive runs of records as (lengths, token ids), drawn from rng
    as the Generator calls that define them draw them.

    A scan over a chunk of records draws each length and finds where the
    record's tokens start, then one vectorized pass reads the chunk's
    tokens. A record with a rejected token word is replayed call by call,
    and the next chunk starts after it."""
    lo, hi = spec.tokens_per_record
    signal = spec.class_signal_strength
    # The pass needs every token to take a word. If a pool a token can come
    # from holds one token, it takes none, so every record is replayed.
    replay = (signal > 0 and spec.class_vocab_size == 1) or \
        (signal < 1 and spec.vocab_size == 1)
    worst = 1 + hi + (hi + 1) // 2  # outputs a record takes, unrejected
    stream = _RawStream(rng.bit_generator)
    r = 0
    while r < labels.size:
        own = spec.vocab_size + labels[r:r + _CHUNK] * spec.class_vocab_size
        lengths, start, half = (np.empty(own.size, dtype=np.int64)
                                for _ in range(3))
        stream.reserve(own.size * worst)
        replayed = []
        for i in range(own.size):
            stream.ensure(worst)
            lengths[i] = n = lo + stream.integers(hi - lo + 1)
            start[i], half[i] = stream.pos, stream.half
            if replay:
                replayed += _replay(stream, n, own[i], spec)
            else:
                stream.skip_tokens(n)
        if replay:
            yield lengths, np.array(replayed, dtype=np.int64)
            r += own.size
            continue
        tokens, rejected = _token_pass(stream.raw, lengths, start, half, own,
                                       spec)
        if not rejected.any():
            yield lengths, tokens
            r += own.size
            continue
        # keep the records before the first rejection, replay its record
        ends = np.cumsum(lengths)
        i = int(np.searchsorted(ends, np.argmax(rejected), side="right"))
        yield lengths[:i], tokens[:ends[i] - lengths[i]]
        stream.pos, stream.half = int(start[i]), int(half[i])
        yield lengths[i:i + 1], np.array(_replay(stream, lengths[i], own[i],
                                                 spec), dtype=np.int64)
        r += i + 1


def generate(spec):
    """Synthetic imbalanced token dataset, deterministic per seed.

    Each class gets a private token pool; each record mixes class tokens
    (with probability class_signal_strength) and shared vocabulary tokens.
    The corpus is hashed a chunk of records at a time, as it is drawn.
    """
    counts = _zipf_counts(spec.num_classes, spec.zipf_exponent,
                          spec.total_records)
    vocab, class_vocab, dim = (spec.vocab_size, spec.class_vocab_size,
                               spec.feature_dim)
    labels = np.repeat(np.arange(spec.num_classes), counts)
    # token j < vocab is shared word j, token vocab + c * class_vocab + j is
    # class c's token j
    matrix = _hashed_matrix(
        ["w%d" % j for j in range(vocab)]
        + ["c%d_t%d" % (c, j) for c in range(spec.num_classes)
           for j in range(class_vocab)],
        _draw_tokens(np.random.default_rng(spec.seed), labels, spec), dim)
    provenance = {"kind": "synthetic", "seed": spec.seed,
                  "params": {k: getattr(spec, k) for k in
                             ("num_classes", "zipf_exponent", "total_records",
                              "vocab_size", "class_signal_strength",
                              "feature_dim")}}
    return LabeledDataset(np.arange(labels.size), labels, matrix,
                          spec.num_classes, provenance)


def _read_csv(path):
    """The sha256 of the file at path and its (id, text, label) rows, parsed
    from the bytes hashed; DataError naming the path and line for bytes that
    are not UTF-8, a row the csv module cannot parse, a non-integer or
    repeated id or a missing field."""
    with open(path, "rb") as f:
        content = f.read()
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError("%s line %d: not UTF-8" % (
            path, content.count(b"\n", 0, e.start) + 1)) from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    lines = {}  # id -> the line it was first seen on
    rows = []
    try:
        if reader.fieldnames is None or \
                [c.strip() for c in reader.fieldnames[:3]] != ["id", "text", "label"]:
            raise DataError("CSV must start with header id,text,label")
        reader.fieldnames = [c.strip() for c in reader.fieldnames]
        for row in reader:
            where = "%s line %d" % (path, reader.line_num)
            if row["text"] is None or row["label"] is None:
                raise DataError("%s: row lacks its text or label" % where)
            try:
                rid = int(row["id"])
            except ValueError:
                raise DataError("%s: id %r is not an integer"
                                % (where, row["id"])) from None
            if rid in lines:
                raise DataError("%s: id %d repeats line %d"
                                % (where, rid, lines[rid]))
            lines[rid] = reader.line_num
            rows.append((rid, row["text"], row["label"]))
    except csv.Error as e:
        # DictReader's line_num moves only past a row it returns
        raise DataError("%s line %d: %s"
                        % (path, reader.reader.line_num, e)) from None
    return hashlib.sha256(content).hexdigest(), rows


def load_csv(path, feature_dim=4096):
    """Ingest `id,text,label` rows (header required) into hashed features,
    reading the file once: its provenance hash is the sha256 of the bytes
    parsed. Bytes that are not UTF-8, and a row the csv module cannot parse
    (such as a field past its size limit), raise DataError naming the path
    and line."""
    digest, raw = _read_csv(path)
    labels = sorted({label for _, _, label in raw})
    label_index = {name: i for i, name in enumerate(labels)}
    ids = {}  # token -> its id, in first-seen order
    rows = [np.array([ids.setdefault(tok, len(ids)) for tok in tokenize(text)],
                     dtype=np.int64) for _, text, _ in raw]
    matrix = _hashed_matrix(ids, (
        ([row.size for row in rows[r:r + _CHUNK]],
         np.concatenate(rows[r:r + _CHUNK]))
        for r in range(0, len(rows), _CHUNK)), feature_dim)
    return LabeledDataset([rid for rid, _, _ in raw],
                          [label_index[label] for _, _, label in raw], matrix,
                          len(labels),
                          {"kind": "csv", "path": str(path), "hash": digest},
                          label_names=labels)


# ---------------------------------------------------------------------------
# Stratified operations

def stratified_cap_sample(dataset, cap=200, fraction=1.0, seed=0):
    """Per class, keep min(round(fraction * n_c), cap, n_c) records without
    replacement and drop singleton classes; DataError if under two remain,
    or unless cap is an integer >= 2 and fraction lies in (0, 1]."""
    if not (is_integer(cap) and cap >= 2):
        raise DataError("cap must be an integer >= 2, got %r" % (cap,))
    if not (is_number(fraction) and 0 < fraction <= 1):
        raise DataError("fraction must be in (0, 1], got %r" % (fraction,))
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    kept, keep = [], []  # the classes kept, and the records
    for c in range(dataset.num_classes):
        members = np.nonzero(labels == c)[0]
        n_c = members.size
        take = min(int(np.floor(fraction * n_c + 0.5)), cap, n_c)
        if take <= 1:
            continue
        kept.append(c)
        keep.extend(rng.choice(members, size=take, replace=False).tolist())
    if len(kept) < 2:
        raise DataError("the cap sample keeps %d classes; need at least 2"
                        % len(kept))
    idx = np.sort(np.array(keep, dtype=np.intp))
    remap = np.zeros(dataset.num_classes, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    return LabeledDataset(
        dataset.ids[idx], remap[labels[idx]],
        csr.take(dataset.feature_matrix(), idx),
        len(kept), dict(dataset.provenance, cap_sample={
            "cap": cap, "fraction": fraction, "seed": seed}),
        [dataset.label_names[c] for c in kept])


def stratified_split(dataset, train_fraction=0.5, seed=0):
    """Per-class split; train takes round-half-up(n_c * fraction), both
    sides nonempty for every class; DataError unless train_fraction lies in
    (0, 1)."""
    if not (is_number(train_fraction) and 0 < train_fraction < 1):
        raise DataError("train_fraction must be in (0, 1), got %r"
                        % (train_fraction,))
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        members = np.nonzero(labels == c)[0]
        if members.size < 2:
            raise DataError("class %s has fewer than 2 records"
                            % dataset.label_names[c])
        perm = rng.permutation(members)
        n_train = int(np.floor(members.size * train_fraction + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return tuple(dataset.subset(idx, dict(dataset.provenance, split={
        "part": part, "train_fraction": train_fraction, "seed": seed}))
        for part, idx in (("train", train_idx), ("test", test_idx)))


def gini(class_counts):
    """Normalized mean absolute difference of class counts; 0 = balanced."""
    counts = np.asarray(class_counts, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        raise DataError("need at least one nonzero class count")
    m = counts.size
    mu = counts.mean()
    return float(np.abs(counts[:, None] - counts[None, :]).sum()
                 / (2.0 * m * m * mu))


def save_manifest(path, dataset):
    with open(path, "w") as f:
        json.dump(dataset.manifest(), f, indent=1)
