"""Embedding-file parsing, serialization round trips, and fusion rules."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqzsl import numkit, pipeline, semantics


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
        assert semantics.write_lines(path, records) == 9
        table = semantics.load_embeddings(path)
        assert sorted(table) == [0, 1, 2]
        for rec in records:
            np.testing.assert_allclose(table[rec.class_id][rec.kind],
                                       rec.vector, atol=1e-15)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        lines = full_table_lines(1)
        write_lines(path, [lines[0], "", lines[1], "   ", lines[2]])
        table = semantics.load_embeddings(path)
        assert sorted(table) == [0]

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


FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
CLASS_IDS = st.integers(0, 2 ** 40).flatmap(lambda c: st.sampled_from([c, np.int64(c)]))


def float_arrays(shape):
    return st.lists(FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda xs: np.asarray(xs, dtype=np.float64).reshape(shape))


feature_records = st.one_of(
    st.builds(lambda sid, cid, part, vec: pipeline.FeatureRecord(sid, cid, part, vector=vec),
              st.text(), CLASS_IDS, st.sampled_from(pipeline.PARTITIONS),
              st.integers(1, 5).flatmap(lambda n: float_arrays((n,)))),
    st.builds(lambda sid, cid, part, seq: pipeline.FeatureRecord(sid, cid, part, sequence=seq),
              st.text(), CLASS_IDS, st.sampled_from(pipeline.PARTITIONS),
              st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4)).flatmap(
                  float_arrays)))
embedding_records = st.builds(
    semantics.EmbeddingRecord, CLASS_IDS, st.sampled_from(semantics.KINDS),
    st.integers(1, 5).flatmap(lambda n: float_arrays((n,))))


def explicit_feature_line(rec):
    """The dict the feature-file writer spelled out before write_lines."""
    obj = {"sample_id": rec.sample_id, "class_id": int(rec.class_id),
           "partition": rec.partition}
    if rec.vector is not None:
        obj["vector"] = [float(v) for v in rec.vector]
    else:
        obj["sequence"] = np.asarray(rec.sequence, dtype=np.float64).tolist()
    return obj


def explicit_embedding_line(rec):
    """The dict the embedding-file writer spelled out before write_lines."""
    return {"class_id": int(rec.class_id), "kind": rec.kind,
            "vector": [float(v) for v in rec.vector]}


class TestWriteLines:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.one_of(
        st.lists(feature_records.map(lambda r: (r, explicit_feature_line(r))), max_size=4),
        st.lists(embedding_records.map(lambda r: (r, explicit_embedding_line(r))),
                 max_size=4)))
    def test_each_line_is_the_sorted_dump_of_the_explicit_record(self, tmp_path, records):
        # so no null payload key is written and no numpy scalar reaches json
        path = tmp_path / "records.jsonl"
        assert semantics.write_lines(path, (rec for rec, _ in records)) == len(records)
        want = "".join(json.dumps(obj, sort_keys=True) + "\n" for _, obj in records)
        assert path.read_text(encoding="utf-8") == want
