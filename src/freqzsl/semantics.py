"""Ingestion and fusion of per-class semantic embeddings.

Each class carries three embedding kinds: action labels ("AL"), limb
descriptions ("LD"), and global descriptions ("GD"). They arrive via a
line-delimited file of JSON records {"class_id": int, "kind": str,
"vector": [float, ...]} and are fused into a single unit-norm vector by
concatenating in fixed AL, LD, GD order and dividing by the Euclidean norm
of the concatenation. No per-kind normalization happens before the concat.
Text generation and text encoding are out of scope: the file format is the
contract.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

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


@dataclass
class SemanticTable:
    """All embeddings keyed by (class, kind), with per-kind dims locked."""

    vectors: dict[int, dict[str, Array]]
    dims: dict[str, int]

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.vectors))

    def get(self, class_id: int, kind: str) -> Array:
        return self.vectors[class_id][kind]


def parse_json(raw: bytes, where: str, error: type[ValueError]):
    """Decode one UTF-8 JSON document; any failure raises `error` naming `where`.

    Besides malformed JSON this covers bytes that are not UTF-8, integers
    past Python's digit limit and nesting past the recursion limit.
    """
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON ({exc})") from exc


def _parse_record(obj, lineno: int) -> EmbeddingRecord:
    if not isinstance(obj, dict) or set(obj) != {"class_id", "kind", "vector"}:
        raise EmbeddingFormatError(
            f"line {lineno}: record must have exactly class_id, kind, vector")
    cid = obj["class_id"]
    if isinstance(cid, bool) or not isinstance(cid, int):
        raise EmbeddingFormatError(f"line {lineno}: class_id must be an integer")
    kind = obj["kind"]
    if kind not in KINDS:
        raise EmbeddingFormatError(f"line {lineno}: kind must be one of {KINDS}")
    vec = obj["vector"]
    if (not isinstance(vec, list) or not vec
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in vec)):
        raise EmbeddingFormatError(f"line {lineno}: vector must be a non-empty number list")
    try:
        arr = np.asarray(vec, dtype=np.float64)
    except OverflowError as exc:
        raise EmbeddingFormatError(f"line {lineno}: vector entry out of float64 range") from exc
    if not np.all(np.isfinite(arr)):
        raise EmbeddingFormatError(f"line {lineno}: vector has non-finite entries")
    return EmbeddingRecord(cid, kind, arr)


def load_embeddings(path) -> SemanticTable:
    """Parse an embedding file; every class must carry all three kinds.

    Raises EmbeddingFormatError naming the offending (class_id, kind) on
    duplicates, missing kinds, or per-kind dimension drift.
    """
    vectors: dict[int, dict[str, Array]] = {}
    dims: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = _parse_record(parse_json(line, f"line {lineno}", EmbeddingFormatError),
                                lineno)
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
    return SemanticTable(vectors, dims)


def write_embeddings(path, records: Iterable[EmbeddingRecord]) -> int:
    """Serialize records in the load_embeddings format; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {"class_id": int(rec.class_id), "kind": rec.kind,
                   "vector": [float(v) for v in rec.vector]}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
            n += 1
    return n


def fuse(table: SemanticTable, class_id: int) -> Array:
    """Concat AL, LD, GD in that order and scale to unit Euclidean norm."""
    if class_id not in table.vectors:
        raise KeyError(f"class {class_id} has no semantic embeddings")
    cat = np.concatenate([table.get(class_id, k) for k in KINDS])
    norm = float(np.linalg.norm(cat))
    if norm == 0.0:
        raise ValueError(f"class {class_id}: all-zero concatenated embedding")
    return cat / norm


def fuse_all(table: SemanticTable) -> dict[int, Array]:
    """Fused vector per class, for batch assembly."""
    return {cid: fuse(table, cid) for cid in table.classes()}
