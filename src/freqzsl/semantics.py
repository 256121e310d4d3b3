"""Ingestion and fusion of per-class semantic embeddings.

Each class carries three embedding kinds: action labels ("AL"), limb
descriptions ("LD"), and global descriptions ("GD"). They arrive via a
line-delimited file of JSON records {"class_id": int, "kind": str,
"vector": [float, ...]} and are fused into a single unit-norm vector by
concatenating in fixed AL, LD, GD order and dividing by the Euclidean norm
of the concatenation. No per-kind normalization happens before the concat.
Text generation and text encoding are out of scope: the file format is the
contract.

parse_json and decode here read every input file (features, embeddings,
split, checkpoint) into its dataclasses, naming a bad item by key path;
write_lines and read_lines are the one JSON-lines codec of the feature and
embedding files.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import operator
import types
import typing
from dataclasses import dataclass
from typing import BinaryIO, Iterable

import numpy as np

from .numkit import Array

KINDS = ("AL", "LD", "GD")


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates the record schema."""


@dataclass(frozen=True)
class EmbeddingRecord:
    class_id: int
    kind: str
    vector: Array

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise EmbeddingFormatError(f"kind must be one of {KINDS}")
        if np.ndim(self.vector) != 1 or not np.size(self.vector):
            raise EmbeddingFormatError("vector must be a non-empty number list")


# all embeddings: class id -> kind -> vector
SemanticTable = dict[int, dict[str, Array]]


def parse_json(raw: bytes | BinaryIO, where: str, error: type[ValueError]):
    """Parse one UTF-8 JSON document for decode; any failure raises `error`
    naming `where`.

    raw is the document's bytes, or a binary file read to its end; a file's
    bytes are dropped once decoded, before parsing starts, and each float
    array becomes an ndarray as soon as its object is parsed (float_arrays).
    Besides malformed JSON this covers bytes that are not UTF-8, integers
    past Python's digit limit and nesting past the recursion limit.
    """
    try:
        text = (raw if isinstance(raw, bytes) else raw.read()).decode("utf-8")
        return json.loads(text, object_hook=float_arrays)
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON ({exc})") from exc


# ---- typed decoding of parsed JSON ----


def _float_array(value):
    """value as a float64 ndarray if it is a non-empty, rectangular JSON array
    of floats, nested to any depth, else value itself.

    Only floats are converted, so a tuple[int] or tuple[float] field still
    refuses an int, a bool or a string under its own key path, and an ndarray
    field refuses a null or a string under the path of the item (decode).
    A nested array is converted as the np.asarray(dtype=float64) call that
    decode makes for an ndarray field would; any other field refuses it as
    an array either way, so converting it early changes no outcome.
    """
    if type(value) is not list:
        return value
    try:  # refuses a ragged array and most items that are no float
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return value
    leaves = value
    for _ in range(arr.ndim - 1):  # a rectangular array of lists, as np.array found
        leaves = itertools.chain.from_iterable(leaves)
    # np.array also takes a bool, an int, a null or a numeric string for a float
    if not arr.size or operator.countOf(map(type, leaves), float) != arr.size:
        return value
    return arr


def float_arrays(obj: dict) -> dict:
    """json object_hook: each float array among obj's values, or among the
    items of a value that is a list of arrays (a network's layer weights, a
    sequence's joints), becomes a float64 ndarray as soon as obj is parsed,
    so a file is read without a tree of Python floats the size of its
    arrays. Everything else is left as parsed, for decode to decode or
    refuse."""
    for key, value in obj.items():
        value = _float_array(value)
        if type(value) is list and all(type(item) is list for item in value):
            value = [_float_array(item) for item in value]
        obj[key] = value
    return obj


# JSON kind of a parsed value by its exact type, and of a scalar hint: an
# ndarray is an array that float_arrays converted, and its items are float64
_KINDS = {dict: "object", list: "array", np.ndarray: "array", str: "string",
          bool: "boolean", int: "integer", float: "number", np.float64: "number"}


def _expect(value, kind: str, path: str, error: type[ValueError]) -> None:
    got = _KINDS.get(type(value), "null")
    if got != kind and (kind, got) != ("number", "integer"):
        raise error(f"{path} must be a JSON {kind}, not {got}")


def _construct(path: str, error: type[ValueError], build, *args, **kwargs):
    """build(*args, **kwargs), its error reported under the top-level key of path."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{'.'.join(path.split('.')[:2])}: {exc}") from None


def _expect_numbers(items: list, path: str, error: type[ValueError]) -> None:
    """Refuse an item of a (nested) JSON array that is not a number; a row
    that float_arrays converted holds floats only."""
    for i, item in enumerate(items):
        if type(item) is list:
            _expect_numbers(item, f"{path}[{i}]", error)
        elif type(item) is not np.ndarray:
            _expect(item, "number", f"{path}[{i}]", error)


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def decode(hint, value, path: str, error: type[ValueError]):
    """value, parsed by parse_json, decoded as type hint.

    hint is a dataclass, whose fields are read as an object's keys and passed
    to its constructor; a dict of key -> hint, read the same way and returned
    as a dict (other keys are ignored); list[X] or tuple[X, ...]; np.ndarray,
    a float64 array of any rank with every entry finite; int, float, str or
    bool; or X | None. A missing key, a value of the wrong JSON kind or a
    refusal by a constructor raises error naming the key path and index,
    as in "line 3.vector[5] must be a JSON number, not string".
    """
    if type(hint) is types.UnionType:  # X | None
        if value is None:
            return None
        hint = hint.__args__[0]
    if type(hint) is dict:
        _expect(value, "object", path, error)
        out = {}
        for key, item in hint.items():
            if key not in value:
                raise error(f"{path} has no key {key!r}")
            out[key] = decode(item, value[key], f"{path}.{key}", error)
        return out
    if hint is np.ndarray:
        _expect(value, "array", path, error)
        arr = value
        if type(value) is list:  # float_arrays left it: one item is no float
            _expect_numbers(value, path, error)
            arr = _construct(path, error, np.asarray, value, dtype=np.float64)
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            index = "".join(f"[{i}]" for i in bad)
            raise error(f"{path}{index} must be a finite number, not {arr[tuple(bad)]}")
        return arr
    kind = _KINDS.get(hint)  # int, float, str or bool
    if kind is not None:
        _expect(value, kind, path, error)
        return _construct(path, error, float, value) if hint is float else value
    if dataclasses.is_dataclass(hint):
        return _construct(path, error, hint, **decode(_field_hints(hint), value, path, error))
    _expect(value, "array", path, error)  # list[X] or tuple[X, ...]
    item = typing.get_args(hint)[0]
    return typing.get_origin(hint)(decode(item, v, f"{path}[{i}]", error)
                                   for i, v in enumerate(value))


def write_json(path, obj) -> None:
    """Write obj as sorted-key, indent-1 JSON plus a newline: every report,
    split file and manifest takes this form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_lines(path, records: Iterable) -> int:
    """Write each record dataclass as one sorted-key JSON line of its fields
    that are not None, arrays and numpy scalars as tolist() gives them;
    returns the count. The feature and embedding files take this form."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
                   for k, v in vars(rec).items() if v is not None}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
            n += 1
    return n


def read_lines(path, error: type[ValueError]):
    """(where, parsed) for each non-blank line of a JSON-lines file, by parse_json."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                where = f"line {lineno}"
                yield where, parse_json(line, where, error)


def load_embeddings(path) -> SemanticTable:
    """Parse an embedding file; every class must carry all three kinds.

    Raises EmbeddingFormatError naming the offending (class_id, kind) on
    duplicates, missing kinds, or per-kind dimension drift.
    """
    vectors: SemanticTable = {}
    dims: dict[str, int] = {}
    for where, obj in read_lines(path, EmbeddingFormatError):
        if type(obj) is not dict or set(obj) != {"class_id", "kind", "vector"}:
            raise EmbeddingFormatError(
                f"{where}: record must have exactly class_id, kind, vector")
        rec = decode(EmbeddingRecord, obj, where, EmbeddingFormatError)
        per_class = vectors.setdefault(rec.class_id, {})
        if rec.kind in per_class:
            raise EmbeddingFormatError(
                f"duplicate record for (class {rec.class_id}, kind {rec.kind})")
        want = dims.setdefault(rec.kind, rec.vector.shape[0])
        if rec.vector.shape[0] != want:
            raise EmbeddingFormatError(
                f"(class {rec.class_id}, kind {rec.kind}): dim "
                f"{rec.vector.shape[0]} != {want} seen earlier for this kind")
        per_class[rec.kind] = rec.vector
    if not vectors:
        raise EmbeddingFormatError("embedding file holds no records")
    for cid, per_class in vectors.items():
        for kind in KINDS:
            if kind not in per_class:
                raise EmbeddingFormatError(f"missing (class {cid}, kind {kind})")
    return vectors


def fuse(table: SemanticTable, class_id: int) -> Array:
    """Concat AL, LD, GD in that order and scale to unit Euclidean norm."""
    if class_id not in table:
        raise KeyError(f"class {class_id} has no semantic embeddings")
    cat = np.concatenate([table[class_id][k] for k in KINDS])
    norm = float(np.linalg.norm(cat))
    if norm == 0.0:
        raise ValueError(f"class {class_id}: all-zero concatenated embedding")
    return cat / norm


def fuse_all(table: SemanticTable) -> dict[int, Array]:
    """Fused vector per class, for batch assembly."""
    return {cid: fuse(table, cid) for cid in sorted(table)}
