"""The digit map of numeric.radix in bulk, and serialization of sets.

A cube vector v = (v_1, ..., v_k) with digits in [0, y-1] encodes to
v_hat = sum_i v_{i+1} * radix(y)^i.  Codes add without carries (see
numeric.radix), which is what makes the map transport midpoints: if
v_hat = (u_hat + w_hat)/2 for cube vectors then v = (u + w)/2 coordinate by
coordinate.

encode_all takes k-coordinate integer sequences or the rows of an (N, k)
integer array, and decode_all returns the points of codes as an (N, k) array;
each is one numpy body, in int64 while radix(y)^k < 2^62 and in Python ints
(object dtype) above.  encode_all forms the codes by Horner's rule, one column
at a time, so it never copies the whole (N, k) block.  Coordinates, codes and
set elements all pass numeric.integer_array, the one integer gate.

An APFreeSet holds its elements once, as one sorted read-only array in
numeric.int_dtype(n): 8 bytes an element in int64 below 2^62, Python ints
(object dtype) above.  Its elements attribute is a SortedCodes, which gives
that array the face of a tuple of ints: len, indexing and iteration yield
Python ints, a slice is a tuple, ==, hash and in agree with the equal tuple,
and np.asarray returns the array itself.  APFreeSet.from_points is the one
tail of both constructions: points to codes by Horner's rule, sorted in
place, held as they are.

Sets are interchanged as JSON files (schema "apfree-set/1") with elements as
decimal strings, since codes routinely exceed 64 bits.  write_json writes the
bytes json.dump(doc, indent=2) and a newline would, but the element strings go
out a chunk at a time instead of all being built first; read_set parses them
straight into the held array.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral
from typing import IO

import numpy as np

from .errors import ApfreeError, CoordOutOfRange, DigitOutOfRange, SetFormatError
from .numeric import ConstructionParams, int_dtype, integer_array, radix

SCHEMA = "apfree-set/1"

_METHODS = ("behrend", "elkin", "exact", "external")

#: Elements formatted, written, iterated or order-checked at a time.
_JSON_CHUNK = 1 << 12


def encode_all(vectors: Sequence[Sequence[int]], y: int, k: int) -> list[int]:
    """Codes of k-dimensional integer coordinate sequences or of the rows of an
    (N, k) integer array, as ints."""
    return _codes(vectors, y, k).tolist()


def _codes(vectors: Sequence[Sequence[int]], y: int, k: int) -> np.ndarray:
    """encode_all's codes as an array in int_dtype(radix(y)^k)."""
    coords = integer_array(vectors, CoordOutOfRange, "coordinates")
    coords = coords.reshape(len(vectors), k)
    if coords.size and (coords.min() < 0 or coords.max() > y - 1):
        raise CoordOutOfRange(f"coordinates outside [0, {y - 1}]")
    base = radix(y)
    # Horner from the last coordinate, one column added in place at a time:
    # no (N, k) copy and no column copy.  The loop's dtype is named, since
    # int64 += uint64 would run in float64; object codes get Python ints.
    dtype = int_dtype(base**k)
    codes = np.zeros(len(coords), dtype=dtype)
    for j in range(k - 1, -1, -1):
        codes *= base
        np.add(codes, coords[:, j], out=codes, dtype=dtype)
    return codes


def decode_all(codes: Sequence[int], k: int, y: int) -> np.ndarray:
    """Digits of each code as an (N, k) array in int_dtype(y); encode_all's inverse."""
    rem = integer_array(codes, DigitOutOfRange, "codes")
    if rem.min(initial=0) < 0:
        raise DigitOutOfRange("negative values cannot be cube vector codes")
    base = radix(y)
    rem = rem.astype(int_dtype(max(rem.max(initial=0), base)), copy=False)
    digits = np.empty((len(rem), k), dtype=int_dtype(y))
    for i in range(k):
        digits[:, i] = rem % base
        rem = rem // base  # not //=: rem may be the caller's array
    bad = (rem != 0) | (digits >= y).any(axis=1)
    if bad.any():
        culprit = codes[int(np.flatnonzero(bad)[0])]
        raise DigitOutOfRange(f"{culprit} is not the code of a cube vector")
    return digits


class SortedCodes(Sequence):
    """A set's elements: one sorted read-only array with the face of a tuple of
    ints.  An item is a Python int and a slice a tuple; iteration converts
    _JSON_CHUNK elements at a time; ==, hash and in agree with the equal tuple,
    and np.asarray gives the array itself, with no copy."""

    __slots__ = ("_codes",)

    def __init__(self, codes: np.ndarray) -> None:
        codes.flags.writeable = False
        self._codes = codes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._codes, dtype=dtype, copy=copy)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._codes[index].tolist())
        return int(self._codes[index])

    def __iter__(self):
        for start in range(0, len(self._codes), _JSON_CHUNK):
            yield from self._codes[start : start + _JSON_CHUNK].tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedCodes):
            return bool(np.array_equal(self._codes, other._codes))
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class APFreeSet:
    """A progression-free set of integers in [1, n] with provenance.

    n is an integer >= 1 (a numpy one is held as int), and elements must be
    integers, strictly increasing, in [1, n], held as a SortedCodes over one
    array in int_dtype(n); an integer array given as elements is taken over,
    not copied, and made read-only.  method records how the set was produced;
    params_echo carries the construction parameters if known.
    """

    n: int
    elements: SortedCodes
    method: str
    params_echo: ConstructionParams | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        # a float, bool or string n would be written as no set file can read
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):
            raise ValueError(f"the bound n must be an integer, got {self.n!r:.40}")
        object.__setattr__(self, "n", int(self.n))  # numpy integers too
        if self.n < 1:
            raise ValueError(f"the interval bound n must be >= 1, got {self.n}")
        codes = integer_array(self.elements, ValueError, "set elements")
        if codes.ndim != 1:
            raise ValueError(f"set elements must be one row, got shape {codes.shape}")
        # strict increase over windows of _JSON_CHUNK + 1 codes that overlap by
        # one, so the check never builds an N-byte mask
        starts = range(0, len(codes), _JSON_CHUNK)
        windows = (codes[i : i + _JSON_CHUNK + 1] for i in starts)
        if len(codes) and (codes[0] < 1 or any((w[1:] <= w[:-1]).any() for w in windows)):
            raise ValueError("elements must be strictly increasing and >= 1")
        if len(codes) and codes[-1] > self.n:
            raise ValueError(f"element {codes[-1]} exceeds the interval bound {self.n}")
        codes = codes.astype(int_dtype(self.n), copy=False)
        object.__setattr__(self, "elements", SortedCodes(codes))

    @classmethod
    def from_points(
        cls, points: np.ndarray, method: str, params: ConstructionParams
    ) -> APFreeSet:
        """The set of the codes of points, the rows of an (N, k) integer array:
        encoded by Horner's rule, sorted in place, held as they are."""
        codes = _codes(points, params.y, params.k)
        codes.sort()
        return cls(n=params.n, elements=codes, method=method, params_echo=params)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def density(self) -> float:
        return self.size / self.n

    def _json_doc(self, reproducible: bool, elements: list[str]) -> dict:
        p = self.params_echo
        doc = {
            "schema": SCHEMA,
            "n": str(self.n),
            "method": self.method,
            "k": p.k if p else 0,
            "y": p.y if p else 0,
            "params": {
                "a": p.a if p else None,
                "epsilon": p.epsilon if p else None,
                "g": p.g if p else None,
                "n_effective": str(p.n_effective) if p else None,
            },
            "size": self.size,
            "elements": elements,
        }
        if not reproducible:
            doc["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return doc

    def write_json(self, fh: IO[str], reproducible: bool = False) -> None:
        """json.dump(doc, fh, indent=2), then a newline, for the set's document
        doc with its elements as decimal strings, written _JSON_CHUNK at a time."""
        if not self.elements:  # json writes an empty list as []
            json.dump(self._json_doc(reproducible, []), fh, indent=2)
            fh.write("\n")
            return
        # Two stand-in elements: json's own text before, between and after them.
        stand_in = "\0"
        text = json.dumps(self._json_doc(reproducible, [stand_in] * 2), indent=2)
        head, sep, tail = text.split(json.dumps(stand_in))
        fh.write(head)
        for start in range(0, self.size, _JSON_CHUNK):
            if start:
                fh.write(sep)
            # json.dumps(str(e)) of a decimal string is the digits in quotes
            chunk = self.elements[start : start + _JSON_CHUNK]
            fh.write(sep.join([f'"{e}"' for e in chunk]))
        fh.write(tail + "\n")

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(["index", "element"])
        writer.writerows(enumerate(self.elements))


def _json_int(value) -> int:
    """A non-bool JSON integer or a string of ASCII digits; nothing else."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SetFormatError(f"expected an integer or a digit string, got {value!r:.40}")


def _params_from_json(doc: dict, n: int) -> ConstructionParams | None:
    """The parameters a set file records, or None where it records none (k and
    y are 0 in files of sets built elsewhere) or ones that are not valid."""
    knobs = doc.get("params") if isinstance(doc.get("params"), dict) else {}
    try:
        k, y = _json_int(doc.get("k")), _json_int(doc.get("y"))
        return ConstructionParams(
            n, k, y, **{key: knobs[key] for key in ("a", "epsilon", "g")
                        if knobs.get(key) is not None},
        )
    except (ApfreeError, TypeError):
        return None


def read_set(fh: IO[str]) -> APFreeSet:
    try:
        doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also over-long or too deep
        raise SetFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SetFormatError(f"missing or unsupported schema (expected {SCHEMA!r})")
    if "n" not in doc or not isinstance(doc.get("elements"), list):
        raise SetFormatError("malformed document: needs n and a list of elements")
    items = doc["elements"]
    try:
        n = _json_int(doc["n"])
        try:
            codes = np.fromiter(map(_json_int, items), int_dtype(n), len(items))
        except OverflowError:  # past int64, so outside [1, n]: exact for the message
            codes = np.fromiter(map(_json_int, items), object, len(items))
        return APFreeSet(
            n=n,
            elements=codes,
            method=doc.get("method", "external"),
            params_echo=_params_from_json(doc, n),
        )
    except ValueError as exc:
        raise SetFormatError(str(exc)) from exc

