"""Array store: a JSON header plus one raw float64 blob per array, and
the one writer of the package's JSON documents.

Checkpoints and saved datasets are both a directory holding a header file
and one `<name>.bin` per array, little-endian float64 in row-major order.
The header's `blobs` table records each array's `file`, `shape` and
`length`.  `save_arrays` writes whole arrays and `load_arrays` reads them
back whole, checking each blob's table entry and byte size: one write
path and one read path.  `write_json` writes every header, config,
summary, comparator and lemma report.
"""

import json
import math
import os

import numpy as np


def write_json(path, doc):
    """Writes `doc` as strict JSON: indent 1, sorted keys, numpy scalars as
    floats, and a trailing newline.  A NaN or infinite value raises
    ValueError, since strict JSON has no token for it."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True, default=float,
                  allow_nan=False)
        f.write("\n")


def save_arrays(path, header_file, header, arrays):
    """Writes one `<name>.bin` per array, then `header` with its blob table."""
    os.makedirs(path, exist_ok=True)
    blobs = {}
    for name, M in arrays.items():
        M = np.ascontiguousarray(M, dtype="<f8")
        M.tofile(os.path.join(path, name + ".bin"))
        blobs[name] = {"file": name + ".bin", "shape": list(M.shape),
                       "length": M.size}
    write_json(os.path.join(path, header_file), {**header, "blobs": blobs})


_KINDS = {int: "an integer", float: "a number in text", str: "a string",
          dict: "an object"}


def _field(where, header, key, kind):
    """header[key] read as `kind`: int and str as stored, float from its
    `%.17g` text.  Raises IOError naming `where` otherwise."""
    if key not in header:
        raise IOError(f"{where} lacks key {key!r}")
    value = header[key]
    if kind is not float:
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
    elif isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise IOError(f"{where}: {key} must be {_KINDS[kind]}, got {value!r}")


def load_arrays(path, header_file, version, shapes, fields):
    """(values, arrays) from a directory written by `save_arrays`.

    `shapes` maps each expected blob to its dimensions as header keys, e.g.
    {"A": ("m", "d")}; `fields` maps every other header key the caller
    reads to its type, int, float (stored as text) or str.  `values` holds
    the dimensions and fields read.  Raises IOError naming `path` unless
    the header is a JSON object with `format_version` equal to `version`,
    every dimension is a non-negative integer, every field has its type,
    and each expected blob is an object listing `<name>.bin`, the shape
    those dimensions give and that shape's `length`, whose file holds
    exactly 8 bytes per value: a file cut short or carrying stray bytes
    is refused.
    """
    where = os.path.join(path, header_file)
    with open(where) as f:
        try:
            header = json.load(f)
        except ValueError as e:
            raise IOError(f"{where} is not JSON: {e}") from None
    found = header.get("format_version") if isinstance(header, dict) else None
    if found != version:
        raise IOError(f"{where}: format_version {found!r}, expected {version}")
    dims = {key: int for keys in shapes.values() for key in keys}
    values = {key: _field(where, header, key, kind)
              for key, kind in {**dims, **fields}.items()}
    negative = [key for key in dims if values[key] < 0]
    if negative:
        raise IOError(f"{where}: negative dimension {', '.join(negative)}")
    blobs = _field(where, header, "blobs", dict)
    arrays = {}
    for name, keys in shapes.items():
        spec = _field(f"{where} blobs", blobs, name, dict)
        shape = [values[key] for key in keys]
        if spec.get("shape") != shape:
            raise IOError(f"{path}: blob {name} has shape {spec.get('shape')}, "
                          f"expected {shape} ({', '.join(keys)})")
        if spec.get("file") != name + ".bin":
            raise IOError(f"{path}: blob {name} is stored in "
                          f"{spec.get('file')!r}, expected {name + '.bin'!r}")
        count = math.prod(shape)
        if spec.get("length") != count:
            raise IOError(f"{path}: blob {name} has length "
                          f"{spec.get('length')!r}, expected {count}")
        file = os.path.join(path, name + ".bin")
        size = os.path.getsize(file)
        if size != 8 * count:
            # a fraction of a value names stray bytes
            raise IOError(f"{path}: blob {name} has {size / 8:.17g} values, "
                          f"expected {count}")
        arrays[name] = np.fromfile(file, dtype="<f8").reshape(shape)
    return values, arrays
