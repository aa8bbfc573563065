"""Synthetic imbalanced text datasets, CSV ingest, hashed bag-of-words
features, stratified capping/splitting, and class-imbalance measurement."""

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

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
# `generate`) hashes each distinct token name once and aggregates a block of
# records in one vectorized pass (`_hash_block`).

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_INT64_MAX = np.iinfo(np.int64).max


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
    """Hashed features of a block of records as CSR (indptr, indices,
    values): record r owns the next lengths[r] tokens of index/sign.

    Per record this equals summing the signs per index in a dict, sorting
    the indices and dividing by np.linalg.norm, bit for bit: sums of +-1 are
    exact integers in any order, the norm is sqrt(x.x) over them, and the
    division is elementwise. An index whose signs cancel keeps an explicit
    0.0, and a record with norm 0 keeps its zero values.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    if n * dim > _INT64_MAX:
        raise DataError("a block of %d records is too large for dimension %d"
                        % (n, dim))
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, inverse = np.unique(owner * dim + index, return_inverse=True)
    sums = np.bincount(inverse, weights=sign, minlength=keys.size)
    owner = keys // dim
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    # bincount makes an empty record's segment 0, where reduceat would not
    norms = np.sqrt(np.bincount(owner, weights=sums * sums, minlength=n))
    norms[norms == 0] = 1.0
    return indptr, keys - owner * dim, sums / norms[owner]


def _hash_documents(documents, dim):
    """`_hash_block` over token lists, hashing each distinct token once."""
    rows = {}  # token -> its row in the token table, in first-seen order
    tokens = [rows.setdefault(tok, len(rows))
              for doc in documents for tok in doc]
    index, sign = _token_table(rows, dim)
    tokens = np.array(tokens, dtype=np.int64)
    return _hash_block([len(doc) for doc in documents], index[tokens],
                       sign[tokens], dim)


def hash_features(tokens, dim):
    """Signed hashed bag-of-words of one token list, L2-normalized, as
    (indices, values). Empty input gives the zero vector."""
    _, indices, values = _hash_documents([tokens], dim)
    return indices, values


def _csr(indptr, indices, values, dim):
    """The CSR matrix of a hashed block."""
    return sp.csr_matrix((values, indices, indptr),
                         shape=(len(indptr) - 1, dim))


def _check_block(indptr, indices, values):
    """Raise DataError unless every record's indices strictly increase and
    every value is finite."""
    steps = np.diff(indices)
    starts = np.asarray(indptr)[1:-1]
    # the step into the next record's first index may go down
    steps[starts[(starts > 0) & (starts <= steps.size)] - 1] = 1
    if np.any(steps <= 0):
        raise DataError("feature indices must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise DataError("feature values must be finite")


# ---------------------------------------------------------------------------
# Dataset containers

@dataclass(frozen=True, slots=True)
class Record:
    """One row of a dataset, as `LabeledDataset.records` builds it."""
    id: int
    indices: np.ndarray
    values: np.ndarray
    label: int


class LabeledDataset:
    """Records as arrays: row i of the CSR feature matrix is record ids[i],
    labelled labels[i]. Validated once here, then every array is read-only,
    so every caller can share them."""

    def __init__(self, ids, labels, matrix, num_classes, provenance=None,
                 label_names=None):
        try:
            self.ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            raise DataError("record ids must fit in int64") from None
        self.labels = np.array(labels, dtype=np.int64)
        self._matrix = matrix = sp.csr_matrix(matrix)
        self.feature_dim = dim = matrix.shape[1]
        if not self.ids.shape == self.labels.shape == matrix.shape[:1]:
            raise DataError("ids, labels and feature rows differ in number")
        _check_block(matrix.indptr, matrix.indices, matrix.data)
        if np.any((matrix.indices < 0) | (matrix.indices >= dim)):
            raise DataError("feature indices must lie in [0, %d)" % dim)
        if np.any((self.labels < 0) | (self.labels >= num_classes)):
            raise DataError("labels must lie in [0, %d)" % num_classes)
        for array in (self.ids, self.labels, matrix.indptr, matrix.indices,
                      matrix.data):
            array.flags.writeable = False
        self.num_classes = num_classes
        self.provenance = provenance or {}
        self.label_names = (label_names if label_names is not None
                            else [str(c) for c in range(num_classes)])

    def __len__(self):
        return self.ids.size

    def _rows(self):
        """A Record per row, its indices cast from the CSR's int32 to int64."""
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
        """The read-only CSR feature matrix, the same object on each call."""
        return self._matrix

    def subset(self, record_indices, provenance=None):
        idx = np.asarray(record_indices, dtype=np.intp)
        return LabeledDataset(self.ids[idx], self.labels[idx],
                              self._matrix[idx], self.num_classes,
                              provenance or self.provenance, self.label_names)

    def compact_labels(self):
        """Renumber labels contiguously, dropping empty classes."""
        present = self.class_counts() > 0
        remap = np.cumsum(present) - 1
        names = [name for name, p in zip(self.label_names, present) if p]
        return LabeledDataset(self.ids, remap[self.labels], self._matrix,
                              len(names), self.provenance, names)

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


def generate(spec):
    """Synthetic imbalanced token dataset, deterministic per seed.

    Each class gets a private token pool; each record mixes class tokens
    (with probability class_signal_strength) and shared vocabulary tokens.
    The whole corpus is hashed in one block.
    """
    rng = np.random.default_rng(spec.seed)
    integers, random = rng.integers, rng.random
    counts = _zipf_counts(spec.num_classes, spec.zipf_exponent,
                          spec.total_records)
    lo, hi = spec.tokens_per_record
    vocab, class_vocab = spec.vocab_size, spec.class_vocab_size
    signal, dim = spec.class_signal_strength, spec.feature_dim
    # token j < vocab is shared word j, token vocab + c * class_vocab + j is
    # class c's token j
    index, sign = _token_table(
        ["w%d" % j for j in range(vocab)]
        + ["c%d_t%d" % (c, j) for c in range(spec.num_classes)
           for j in range(class_vocab)], dim)
    lengths, tokens = [], []
    for c in range(spec.num_classes):
        own = vocab + c * class_vocab
        for _ in range(int(counts[c])):
            n_tok = int(integers(lo, hi + 1))
            lengths.append(n_tok)
            for _ in range(n_tok):
                if random() < signal:
                    tokens.append(own + int(integers(class_vocab)))
                else:
                    tokens.append(int(integers(vocab)))
    tokens = np.array(tokens, dtype=np.int64)
    matrix = _csr(*_hash_block(lengths, index[tokens], sign[tokens], dim), dim)
    provenance = {"kind": "synthetic", "seed": spec.seed,
                  "params": {k: getattr(spec, k) for k in
                             ("num_classes", "zipf_exponent", "total_records",
                              "vocab_size", "class_signal_strength",
                              "feature_dim")}}
    return LabeledDataset(np.arange(len(lengths)),
                          np.repeat(np.arange(spec.num_classes), counts),
                          matrix, spec.num_classes, provenance)


def _csv_rows(path, reader):
    """(id, text, label) per row; DataError naming the path and line for a
    row with a non-integer or repeated id or a missing field."""
    lines = {}  # id -> the line it was first seen on
    rows = []
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
    return rows


def load_csv(path, feature_dim=4096):
    """Ingest `id,text,label` rows (header required) into hashed features."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or \
                [c.strip() for c in reader.fieldnames[:3]] != ["id", "text", "label"]:
            raise DataError("CSV must start with header id,text,label")
        reader.fieldnames = [c.strip() for c in reader.fieldnames]
        raw = _csv_rows(path, reader)
    labels = sorted({label for _, _, label in raw})
    label_index = {name: i for i, name in enumerate(labels)}
    matrix = _csr(*_hash_documents([tokenize(text) for _, text, _ in raw],
                                   feature_dim), feature_dim)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return LabeledDataset([rid for rid, _, _ in raw],
                          [label_index[label] for _, _, label in raw], matrix,
                          len(labels),
                          {"kind": "csv", "path": str(path), "hash": digest},
                          label_names=labels)


# ---------------------------------------------------------------------------
# Stratified operations

def stratified_cap_sample(dataset, cap=200, fraction=1.0, seed=0):
    """Per class, keep min(round(fraction * n_c), cap, n_c) records without
    replacement, then drop classes left with a single record."""
    if cap < 2:
        raise DataError("cap must be >= 2")
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    keep = []
    for c in range(dataset.num_classes):
        members = np.nonzero(labels == c)[0]
        n_c = members.size
        if n_c == 0:
            continue
        take = min(int(np.floor(fraction * n_c + 0.5)), cap, n_c)
        if take <= 1:
            continue
        keep.extend(rng.choice(members, size=take, replace=False).tolist())
    keep.sort()
    if not keep:
        import warnings
        warnings.warn("stratified cap sample removed every class")
    out = dataset.subset(keep).compact_labels()
    out.provenance = dict(dataset.provenance,
                          cap_sample={"cap": cap, "fraction": fraction,
                                      "seed": seed})
    return out


def stratified_split(dataset, train_fraction=0.5, seed=0):
    """Per-class split; train takes round-half-up(n_c * fraction), both
    sides nonempty for every class."""
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
