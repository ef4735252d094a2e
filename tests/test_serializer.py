"""Tests for the pickle-free checkpoint serializer."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.storage.serializer import (
    MAGIC,
    pack_tree,
    pack_tree_into,
    pack_tree_with_crc,
    serialized_size,
    unpack_tree,
)


def arrays_strategy():
    dtype = st.sampled_from(["float64", "float32", "int32", "int64", "uint8", "bool"])
    shape = st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple)

    def build(args):
        dt, sh = args
        count = int(np.prod(sh)) if sh else 1
        data = np.arange(count).reshape(sh) if sh else np.array(7)
        return data.astype(dt)

    return st.tuples(dtype, shape).map(build)


def tree_strategy():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-2**31, 2**31),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20),
    )
    return st.recursive(
        st.one_of(scalars, arrays_strategy()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=10,
    )


def trees_equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and \
            a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and set(a) == set(b) and \
            all(trees_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(trees_equal(x, y) for x, y in zip(a, b))
    return a == b


class TestRoundTrip:
    def test_simple_state_dict(self, rng):
        tree = {"model": {"w": rng.normal(size=(3, 4))}, "step": 7}
        out = unpack_tree(pack_tree(tree))
        assert trees_equal(tree, out)

    def test_nested_optimizer_state(self, rng):
        tree = {
            "type": "Adam", "lr": 1e-3, "step_count": 42,
            "slots": {"w": {"m": rng.normal(size=(5,)), "v": rng.normal(size=(5,))}},
        }
        assert trees_equal(tree, unpack_tree(pack_tree(tree)))

    def test_dtype_and_shape_preserved(self):
        tree = {"a": np.zeros((0, 3), dtype=np.float32),
                "b": np.array(True), "c": np.int16([1, 2]).astype(np.int16)}
        out = unpack_tree(pack_tree(tree))
        assert out["a"].dtype == np.float32 and out["a"].shape == (0, 3)
        assert out["c"].dtype == np.int16

    def test_tuples_distinct_from_lists(self):
        tree = {"t": (1, 2), "l": [1, 2]}
        out = unpack_tree(pack_tree(tree))
        assert isinstance(out["t"], tuple) and isinstance(out["l"], list)

    @given(tree_strategy())
    @settings(max_examples=100)
    def test_property_roundtrip(self, tree):
        assert trees_equal(tree, unpack_tree(pack_tree(tree)))

    def test_serialized_size_matches(self, rng):
        tree = {"w": rng.normal(size=(100,))}
        assert serialized_size(tree) == len(pack_tree(tree))


class TestSafety:
    def test_rejects_bad_magic(self):
        data = b"NOTMAGIC" + b"\x00" * 100
        with pytest.raises(ValueError):
            unpack_tree(data)

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            unpack_tree(MAGIC[:4])

    def test_rejects_truncated_blob(self, rng):
        data = pack_tree({"w": rng.normal(size=(100,))})
        with pytest.raises(ValueError):
            unpack_tree(data[:-10])

    def test_rejects_truncated_manifest(self, rng):
        data = pack_tree({"w": rng.normal(size=(10,))})
        with pytest.raises(ValueError):
            unpack_tree(data[:12])

    def test_rejects_unserializable_object(self):
        with pytest.raises(TypeError):
            pack_tree({"fn": lambda x: x})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            pack_tree({1: "a"})

    def test_rejects_object_dtype(self):
        with pytest.raises(TypeError):
            pack_tree({"a": np.array([object()])})

    def test_numpy_scalars_coerced(self):
        out = unpack_tree(pack_tree({"i": np.int64(5), "f": np.float32(2.5)}))
        assert out["i"] == 5 and out["f"] == 2.5


class TestPayloadCodec:
    def test_sparse_roundtrip(self, rng):
        from repro.compression import SparseGradient, TopKCompressor
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = TopKCompressor(0.3).compress({"w": rng.normal(size=(20,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        assert isinstance(restored, SparseGradient)
        np.testing.assert_array_equal(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_dense_roundtrip(self, rng):
        from repro.compression import DenseGradient
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = DenseGradient({"w": rng.normal(size=(5,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        np.testing.assert_array_equal(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_quantized_roundtrip(self, rng):
        from repro.compression import UniformQuantizer
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        payload = UniformQuantizer(127).compress({"w": rng.normal(size=(9,))})
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(payload))))
        np.testing.assert_allclose(
            restored.decompress()["w"], payload.decompress()["w"])

    def test_state_delta_roundtrip(self, rng):
        from repro.core.differential import StateDelta
        from repro.compression import TopKCompressor
        from repro.storage.payload_codec import payload_to_tree, tree_to_payload
        delta = StateDelta(
            params=TopKCompressor(0.5).compress({"w": rng.normal(size=(6,))}),
            optimizer_slots={"w/m": rng.normal(size=(6,))},
            step_count_delta=3,
        )
        restored = tree_to_payload(
            unpack_tree(pack_tree(payload_to_tree(delta))))
        assert isinstance(restored, StateDelta)
        assert restored.step_count_delta == 3
        np.testing.assert_allclose(restored.optimizer_slots["w/m"],
                                   delta.optimizer_slots["w/m"])

    def test_unknown_kind_rejected(self):
        from repro.storage.payload_codec import tree_to_payload
        with pytest.raises(ValueError):
            tree_to_payload({"kind": "mystery"})

    def test_unencodable_payload_rejected(self):
        from repro.storage.payload_codec import payload_to_tree
        with pytest.raises(TypeError):
            payload_to_tree(42)


class TestIntegrity:
    def test_bit_flip_in_blob_detected(self, rng):
        data = bytearray(pack_tree({"w": rng.normal(size=(64,))}))
        data[-7] ^= 0xFF  # corrupt a byte deep inside the blob region
        with pytest.raises(ValueError, match="CRC"):
            unpack_tree(bytes(data))

    def test_verify_can_be_skipped(self, rng):
        data = bytearray(pack_tree({"w": rng.normal(size=(64,))}))
        data[-7] ^= 0xFF
        # verify=False loads the (corrupt) array without raising.
        tree = unpack_tree(bytes(data), verify=False)
        assert tree["w"].shape == (64,)

    def test_clean_data_passes_crc(self, rng):
        tree = {"w": rng.normal(size=(64,))}
        out = unpack_tree(pack_tree(tree))
        assert np.array_equal(out["w"], tree["w"])


ALLOWED_DTYPES = ["float64", "float32", "float16", "int64", "int32", "int16",
                  "int8", "uint64", "uint32", "uint16", "uint8", "bool"]


def layout_arrays_strategy():
    """Arrays of every allowed dtype, empty ones included, in C order or
    as non-contiguous views (transposed, strided)."""
    array = st.sampled_from(ALLOWED_DTYPES).flatmap(lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=5)))
    layout = st.sampled_from(["c", "transposed", "strided"])

    def apply(args):
        data, how = args
        if how == "transposed":
            return data.T
        if how == "strided" and data.ndim:
            return data[..., ::2]
        return data

    return st.tuples(array, layout).map(apply)


def crc_tree_strategy():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**31, 2**31),
                        st.text(max_size=8))
    return st.recursive(
        st.one_of(scalars, layout_arrays_strategy()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    )


def golden_tree():
    """A fixed tree whose packed container and whole-blob CRC are pinned
    below: the wire format and checksum of existing checkpoints must not
    move."""
    grid = np.arange(12, dtype=np.float32).reshape(3, 4)
    return {
        "step": 7,
        "model": {"w": grid[:, ::2], "b": np.array([1, -2, 3], dtype=np.int16)},
        "moments": [np.zeros(0, dtype=np.float64), np.array([True, False])],
        "meta": ("lowdiff", 2.5, None, np.int64(9)),
    }


GOLDEN_CRC = 3686989967
GOLDEN_HEX = (
    "4c4f5744494646329102000000000000cd02000000000000d29b19777b22726f6f74223a"
    "7b225f5f6b696e645f5f223a2264696374222c226974656d73223a7b2273746570223a7b"
    "225f5f6b696e645f5f223a227363616c6172222c2276616c7565223a377d2c226d6f6465"
    "6c223a7b225f5f6b696e645f5f223a2264696374222c226974656d73223a7b2277223a7b"
    "225f5f6b696e645f5f223a226e646172726179222c226474797065223a22666c6f617433"
    "32222c227368617065223a5b332c325d2c22626c6f62223a307d2c2262223a7b225f5f6b"
    "696e645f5f223a226e646172726179222c226474797065223a22696e743136222c227368"
    "617065223a5b335d2c22626c6f62223a317d7d7d2c226d6f6d656e7473223a7b225f5f6b"
    "696e645f5f223a226c697374222c226974656d73223a5b7b225f5f6b696e645f5f223a22"
    "6e646172726179222c226474797065223a22666c6f61743634222c227368617065223a5b"
    "305d2c22626c6f62223a327d2c7b225f5f6b696e645f5f223a226e646172726179222c22"
    "6474797065223a22626f6f6c222c227368617065223a5b325d2c22626c6f62223a337d5d"
    "7d2c226d657461223a7b225f5f6b696e645f5f223a227475706c65222c226974656d7322"
    "3a5b7b225f5f6b696e645f5f223a227363616c6172222c2276616c7565223a226c6f7764"
    "696666227d2c7b225f5f6b696e645f5f223a227363616c6172222c2276616c7565223a32"
    "2e357d2c7b225f5f6b696e645f5f223a227363616c6172222c2276616c7565223a6e756c"
    "6c7d2c7b225f5f6b696e645f5f223a22696e74222c2276616c7565223a397d5d7d7d7d2c"
    "22626c6f625f73697a6573223a5b32342c362c302c325d2c22626c6f625f63726373223a"
    "5b323534333338343637382c323330383037363733322c302c313438393131383134325d"
    "7d0000000000000040000080400000c04000000041000020410100feff03000100"
)


class TestCrcContract:
    @given(crc_tree_strategy())
    @settings(max_examples=80, deadline=None)
    def test_crc_is_the_crc_of_the_packed_bytes(self, tree):
        view, crc = pack_tree_into(tree, bytearray())
        packed = bytes(view)
        view.release()
        assert crc == zlib.crc32(packed)
        assert pack_tree_with_crc(tree) == (packed, crc)

    @given(crc_tree_strategy())
    @settings(max_examples=40, deadline=None)
    def test_grown_pool_buffer_checksums_only_the_new_record(self, tree):
        buffer = bytearray()
        big, _ = pack_tree_into({"w": np.arange(4096, dtype=np.float64)},
                                buffer)
        big.release()
        view, crc = pack_tree_into(tree, buffer)
        packed = bytes(view)
        view.release()
        assert len(packed) < len(buffer)
        assert crc == zlib.crc32(packed) == pack_tree_with_crc(tree)[1]

    def test_golden_container_unchanged(self):
        data, crc = pack_tree_with_crc(golden_tree())
        assert data.hex() == GOLDEN_HEX
        assert crc == GOLDEN_CRC == zlib.crc32(bytes.fromhex(GOLDEN_HEX))
        assert trees_equal(unpack_tree(data), {
            **golden_tree(), "meta": ("lowdiff", 2.5, None, 9)})
