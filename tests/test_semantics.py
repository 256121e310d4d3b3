"""Embedding-file parsing, serialization round trips, and fusion rules."""

import json

import numpy as np
import pytest

from freqzsl import numkit, semantics


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_line(cid, kind, vec):
    return json.dumps({"class_id": cid, "kind": kind, "vector": list(vec)})


def full_table_lines(n_classes=2, dims=(3, 2, 4)):
    lines = []
    for cid in range(n_classes):
        for kind, d in zip(semantics.KINDS, dims):
            lines.append(record_line(cid, kind, [float(cid + 1)] * d))
    return lines


class TestLoad:
    def test_round_trip_through_writer(self, tmp_path):
        rng = numkit.make_rng(0)
        records = [semantics.EmbeddingRecord(cid, kind, rng.standard_normal(4))
                   for cid in range(3) for kind in semantics.KINDS]
        path = tmp_path / "emb.jsonl"
        assert semantics.write_embeddings(path, records) == 9
        table = semantics.load_embeddings(path)
        assert table.classes() == (0, 1, 2)
        for rec in records:
            np.testing.assert_allclose(table.get(rec.class_id, rec.kind),
                                       rec.vector, atol=1e-15)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        lines = full_table_lines(1)
        write_lines(path, [lines[0], "", lines[1], "   ", lines[2]])
        table = semantics.load_embeddings(path)
        assert table.classes() == (0,)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, ["{not json"])
        with pytest.raises(semantics.EmbeddingFormatError, match="line 1"):
            semantics.load_embeddings(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [record_line(0, "XX", [1.0])])
        with pytest.raises(semantics.EmbeddingFormatError, match="kind"):
            semantics.load_embeddings(path)

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        bad = json.dumps({"class_id": 0, "kind": "AL", "vector": [1.0], "note": "x"})
        write_lines(path, [bad])
        with pytest.raises(semantics.EmbeddingFormatError, match="exactly"):
            semantics.load_embeddings(path)

    def test_boolean_class_id_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [json.dumps({"class_id": True, "kind": "AL",
                                       "vector": [1.0]})])
        with pytest.raises(semantics.EmbeddingFormatError, match="class_id"):
            semantics.load_embeddings(path)

    def test_empty_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [record_line(0, "AL", [])])
        with pytest.raises(semantics.EmbeddingFormatError, match="vector"):
            semantics.load_embeddings(path)

    def test_non_finite_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, ['{"class_id": 0, "kind": "AL", "vector": [1e999]}'])
        with pytest.raises(semantics.EmbeddingFormatError,
                           match=r"^line 1\.vector\[0\] must be a finite number, not inf$"):
            semantics.load_embeddings(path)

    def test_duplicate_record_names_class_and_kind(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        lines = full_table_lines(1) + [record_line(0, "AL", [9.0, 9.0, 9.0])]
        write_lines(path, lines)
        with pytest.raises(semantics.EmbeddingFormatError,
                           match=r"class 0, kind AL"):
            semantics.load_embeddings(path)

    def test_missing_kind_names_class_and_kind(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [record_line(5, "AL", [1.0]), record_line(5, "LD", [1.0])])
        with pytest.raises(semantics.EmbeddingFormatError,
                           match=r"class 5, kind GD"):
            semantics.load_embeddings(path)

    def test_dimension_drift_within_kind_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        lines = full_table_lines(1) + [record_line(1, "AL", [1.0, 2.0]),
                                       record_line(1, "LD", [1.0, 2.0]),
                                       record_line(1, "GD", [1.0] * 4)]
        write_lines(path, lines)
        with pytest.raises(semantics.EmbeddingFormatError, match="dim"):
            semantics.load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(semantics.EmbeddingFormatError, match="no records"):
            semantics.load_embeddings(path)


class TestFuse:
    def test_concat_order_and_unit_norm(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [record_line(0, "GD", [0.0, 4.0]),
                           record_line(0, "AL", [3.0]),
                           record_line(0, "LD", [0.0])])
        table = semantics.load_embeddings(path)
        fused = semantics.fuse(table, 0)
        # AL then LD then GD regardless of file order; norm 5 divides out
        np.testing.assert_allclose(fused, [0.6, 0.0, 0.0, 0.8], atol=1e-15)
        assert np.linalg.norm(fused) == pytest.approx(1.0, abs=1e-12)
        assert fused.shape == (4,)

    def test_missing_class_raises_keyerror(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, full_table_lines(1))
        table = semantics.load_embeddings(path)
        with pytest.raises(KeyError):
            semantics.fuse(table, 99)

    def test_zero_embedding_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, [record_line(0, k, [0.0]) for k in semantics.KINDS])
        table = semantics.load_embeddings(path)
        with pytest.raises(ValueError, match="all-zero"):
            semantics.fuse(table, 0)

    def test_fuse_all_covers_every_class(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, full_table_lines(3))
        table = semantics.load_embeddings(path)
        fused = semantics.fuse_all(table)
        assert sorted(fused) == [0, 1, 2]
        for cid, vec in fused.items():
            np.testing.assert_allclose(vec, semantics.fuse(table, cid),
                                       atol=0)
