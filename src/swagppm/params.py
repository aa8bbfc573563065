"""Flat parameter vectors with a named-tensor layout, and the binary file
frame that checkpoints and moment files share."""

import json
import math
import numbers
import operator
import struct

import numpy as np


class LayoutError(ValueError):
    pass


def is_integer(value):
    """Whether value is an integer; a bool, which Python counts as one, is
    not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    """Whether value is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Layout:
    """Ordered (name, shape) slots, each dimension a non-negative integer,
    packed into one flat float64 vector; view reads a table built once."""

    def __init__(self, slots):
        self.slots = []
        self._table = {}
        offset = 0
        for name, dims in slots:
            try:
                shape = tuple(map(operator.index, dims))
            except TypeError:
                shape = (-1,)  # not integers: rejected as a negative is
            if min(shape, default=0) < 0:
                raise LayoutError("tensor %r: bad shape %r" % (name, dims))
            size = math.prod(shape)
            self.slots.append((name, shape, offset))
            # a repeated name keeps its first slot
            self._table.setdefault(name, (offset, offset + size, shape))
            offset += size
        self.size = offset

    def __eq__(self, other):
        return isinstance(other, Layout) and self.slots == other.slots

    def __repr__(self):
        return "Layout(%s)" % ", ".join("%s%s@%d" % s for s in self.slots)

    def view(self, values, name):
        try:
            start, stop, shape = self._table[name]
        except KeyError:
            raise LayoutError("no tensor %r in layout" % (name,)) from None
        return values[start:stop].reshape(shape)

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

    def replace(self, values):
        return ParameterVector(values, self.layout)

    def __len__(self):
        return self.values.shape[0]


def write_file(path, magic, head, *arrays):
    """Binary file frame: magic, header length, sorted-key JSON header, then
    each array's values as little-endian float64 in C order."""
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for values in arrays:
            f.write(values.astype("<f8").tobytes())


def read_file(path, magic, error):
    """Inverse of write_file: (header dict, its layout, float64 payload). The
    file is read once, and every length is checked against the bytes it
    holds; a short, overlong or corrupt file raises `error`."""
    with open(path, "rb") as f:
        blob = f.read()
    start = len(magic) + 8
    if blob[:len(magic)] != magic or len(blob) < start:
        raise error("bad magic or truncated frame in %s" % path)
    (hlen,) = struct.unpack_from("<Q", blob, len(magic))
    if hlen > len(blob) - start:
        raise error("header length %d overruns %s" % (hlen, path))
    try:  # a payload of part of a float64 is a ValueError too
        head = json.loads(blob[start:start + hlen].decode("utf-8"))
        layout = Layout.from_json(head["layout"])
        payload = np.frombuffer(blob, "<f8", offset=start + hlen)
    except (KeyError, TypeError, ValueError) as e:  # LayoutError included
        raise error("corrupt %s: %s" % (path, e)) from None
    return head, layout, payload


_MAGIC = b"SWPPMCK1"


def save_checkpoint(path, theta, header=None):
    """Write a checkpoint: the header given plus the layout, and theta."""
    head = dict(header or {})
    head["layout"] = theta.layout.to_json()
    write_file(path, _MAGIC, head, theta.values)


def load_checkpoint(path):
    """Read a checkpoint; a misframed or corrupt file raises LayoutError."""
    head, layout, payload = read_file(path, _MAGIC, LayoutError)
    if payload.size != layout.size:
        raise LayoutError("%s holds %d values, its layout %d"
                          % (path, payload.size, layout.size))
    return ParameterVector(payload, layout), head
