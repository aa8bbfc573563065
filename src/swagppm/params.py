"""Flat parameter vectors with a named-tensor layout and checkpoint I/O."""

import json
import os
import struct

import numpy as np


class LayoutError(ValueError):
    pass


class Layout:
    """Ordered list of (name, shape) slots packed into one flat float64 vector."""

    def __init__(self, slots):
        self.slots = []
        offset = 0
        for name, shape in slots:
            shape = tuple(int(s) for s in shape)
            self.slots.append((name, shape, offset))
            offset += int(np.prod(shape)) if shape else 1
        self.size = offset

    def __eq__(self, other):
        return isinstance(other, Layout) and self.slots == other.slots

    def __repr__(self):
        return "Layout(%s)" % ", ".join("%s%s@%d" % s for s in self.slots)

    def slot(self, name):
        for entry in self.slots:
            if entry[0] == name:
                return entry
        raise LayoutError("no tensor named %r in layout" % name)

    def view(self, values, name):
        name, shape, offset = self.slot(name)
        size = int(np.prod(shape)) if shape else 1
        return values[offset:offset + size].reshape(shape)

    def to_json(self):
        return [[name, list(shape)] for name, shape, _ in self.slots]

    @classmethod
    def from_json(cls, obj):
        return cls([(name, tuple(shape)) for name, shape in obj])


class ParameterVector:
    """Immutable flat float64 vector, finite, over a named-tensor layout."""

    def __init__(self, values, layout):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] != layout.size:
            raise LayoutError(
                "values length %d does not match layout size %d"
                % (values.size, layout.size))
        if not np.all(np.isfinite(values)):
            raise LayoutError("parameter vector contains non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        self.values = values
        self.layout = layout

    def tensor(self, name):
        return self.layout.view(self.values, name)

    def replace(self, values):
        return ParameterVector(values, self.layout)

    def __len__(self):
        return self.values.shape[0]


_MAGIC = b"SWPPMCK1"


def write_header(f, magic, head):
    """Binary file framing: magic, header length, sorted-key JSON header."""
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<Q", len(blob)))
    f.write(blob)


def read_exact(f, size, error, path):
    buf = f.read(size)
    if len(buf) != size:
        raise error("%s is truncated" % path)
    return buf


def read_header(f, magic, error, path):
    """Inverse of write_header: (header dict, its layout). A short or corrupt
    header raises `error`."""
    if f.read(len(magic)) != magic:
        raise error("bad magic in %s" % path)
    (hlen,) = struct.unpack("<Q", read_exact(f, 8, error, path))
    if hlen > os.fstat(f.fileno()).st_size - f.tell():
        raise error("header length %d overruns %s" % (hlen, path))
    blob = read_exact(f, hlen, error, path)
    try:
        head = json.loads(blob.decode("utf-8"))
        return head, Layout.from_json(head["layout"])
    except (KeyError, TypeError, ValueError) as e:
        raise error("corrupt header in %s: %s" % (path, e)) from None


def save_checkpoint(path, theta, header=None):
    """Write a checkpoint: magic, JSON header, little-endian float64 payload."""
    head = dict(header or {})
    head["layout"] = theta.layout.to_json()
    with open(path, "wb") as f:
        write_header(f, _MAGIC, head)
        f.write(theta.values.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a short or corrupt file raises LayoutError."""
    with open(path, "rb") as f:
        head, layout = read_header(f, _MAGIC, LayoutError, path)
        payload = read_exact(f, layout.size * 8, LayoutError, path)
    return ParameterVector(np.frombuffer(payload, dtype="<f8"), layout), head
