"""Synthetic imbalanced text datasets, CSV ingest, hashed bag-of-words
features, stratified capping/splitting, and class-imbalance measurement."""

import csv
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Feature hashing

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


def hash_features(tokens, dim):
    """Signed hashed bag-of-words, L2-normalized.

    Index is the low bits of a 64-bit FNV-1a hash, sign is its top bit, so
    the vector is stable across runs and platforms. Empty input gives the
    zero vector.
    """
    if dim < 1 or dim & (dim - 1):
        raise DataError("hash dimension must be a power of two")
    acc = {}
    for tok in tokens:
        h = fnv1a_64(tok)
        idx = h & (dim - 1)
        sign = 1.0 if h >> 63 else -1.0
        acc[idx] = acc.get(idx, 0.0) + sign
    indices = np.array(sorted(acc), dtype=np.int64)
    values = np.array([acc[i] for i in indices])
    norm = np.linalg.norm(values)
    if norm > 0:
        values = values / norm
    return indices, values


# ---------------------------------------------------------------------------
# Dataset containers

@dataclass
class Record:
    id: int
    indices: np.ndarray
    values: np.ndarray
    label: int

    def __post_init__(self):
        if np.any(np.diff(self.indices) <= 0):
            raise DataError("feature indices must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature values must be finite")


class LabeledDataset:
    def __init__(self, records, feature_dim, num_classes, provenance=None,
                 label_names=None):
        self.records = list(records)
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.provenance = provenance or {}
        self.label_names = (label_names if label_names is not None
                            else [str(c) for c in range(num_classes)])

    def __len__(self):
        return len(self.records)

    @property
    def ids(self):
        return np.array([r.id for r in self.records])

    @property
    def labels(self):
        return np.array([r.label for r in self.records])

    def class_counts(self):
        counts = np.zeros(self.num_classes, dtype=np.int64)
        for r in self.records:
            counts[r.label] += 1
        return counts

    def feature_matrix(self):
        indptr = np.zeros(len(self.records) + 1, dtype=np.int64)
        for i, r in enumerate(self.records):
            indptr[i + 1] = indptr[i] + len(r.indices)
        indices = (np.concatenate([r.indices for r in self.records])
                   if self.records else np.zeros(0, dtype=np.int64))
        values = (np.concatenate([r.values for r in self.records])
                  if self.records else np.zeros(0))
        return sp.csr_matrix((values, indices, indptr),
                             shape=(len(self.records), self.feature_dim))

    def subset(self, record_indices, provenance=None):
        return LabeledDataset([self.records[i] for i in record_indices],
                              self.feature_dim, self.num_classes,
                              provenance or self.provenance, self.label_names)

    def compact_labels(self):
        """Renumber labels contiguously, dropping empty classes."""
        counts = self.class_counts()
        keep = np.nonzero(counts)[0]
        remap = {int(old): new for new, old in enumerate(keep)}
        records = [Record(r.id, r.indices, r.values, remap[r.label])
                   for r in self.records]
        names = [self.label_names[old] for old in keep]
        return LabeledDataset(records, self.feature_dim, len(keep),
                              self.provenance, names)

    def content_hash(self):
        h = hashlib.sha256()
        for r in self.records:
            h.update(str(r.id).encode())
            h.update(r.indices.tobytes())
            h.update(np.ascontiguousarray(r.values).tobytes())
            h.update(str(r.label).encode())
        return h.hexdigest()

    def manifest(self, split_seed=None):
        counts = self.class_counts()
        return {
            "provenance": self.provenance,
            "num_records": len(self.records),
            "num_classes": self.num_classes,
            "class_counts": {self.label_names[c]: int(counts[c])
                             for c in range(self.num_classes)},
            "gini": gini(counts),
            "split_seed": split_seed,
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
        if self.num_classes < 2:
            raise DataError("need at least 2 classes")
        if self.total_records < self.num_classes:
            raise DataError("total_records must cover every class")
        if not (0 <= self.class_signal_strength <= 1):
            raise DataError("class_signal_strength must lie in [0, 1]")


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
    """
    rng = np.random.default_rng(spec.seed)
    counts = _zipf_counts(spec.num_classes, spec.zipf_exponent,
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
            indices, values = hash_features(tokens, spec.feature_dim)
            records.append(Record(rid, indices, values, c))
            rid += 1
    provenance = {"kind": "synthetic", "seed": spec.seed,
                  "params": {k: getattr(spec, k) for k in
                             ("num_classes", "zipf_exponent", "total_records",
                              "vocab_size", "class_signal_strength",
                              "feature_dim")}}
    return LabeledDataset(records, spec.feature_dim, spec.num_classes,
                          provenance)


def load_csv(path, feature_dim=4096):
    """Ingest `id,text,label` rows (header required) into hashed features."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or \
                [c.strip() for c in reader.fieldnames[:3]] != ["id", "text", "label"]:
            raise DataError("CSV must start with header id,text,label")
        raw = [(int(row["id"]), row["text"], row["label"]) for row in reader]
    labels = sorted({label for _, _, label in raw})
    label_index = {name: i for i, name in enumerate(labels)}
    records = []
    for rid, text, label in raw:
        indices, values = hash_features(tokenize(text), feature_dim)
        records.append(Record(rid, indices, values, label_index[label]))
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return LabeledDataset(records, feature_dim, len(labels),
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
    return (dataset.subset(train_idx, dict(dataset.provenance, split="train")),
            dataset.subset(test_idx, dict(dataset.provenance, split="test")))


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


def save_manifest(path, dataset, split_seed=None):
    with open(path, "w") as f:
        json.dump(dataset.manifest(split_seed), f, indent=1)
