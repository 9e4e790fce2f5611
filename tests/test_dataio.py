"""Audio IO, manifests, splits, and the binary containers."""

import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from scenefuse import dataio
from scenefuse.cdl import (
    covariance_descriptor,
    fit_cdl,
    load_cdl_model,
    log_embed,
    save_cdl_model,
)
from scenefuse.dataio import (
    AudioClip,
    ChecksumError,
    DatasetManifest,
    FeatureStore,
    FeatureStoreError,
    fnv1a64,
    load_features,
    load_manifest,
    pack_model_header,
    pack_str,
    pack_u32,
    pack_u64,
    read_wav,
    resolve_clip_path,
    save_features,
    save_manifest,
    split_dataset,
    write_wav,
)
from scenefuse.gmm import fit_gmm_bank, load_gmm_bank, save_gmm_bank


def reference_fnv1a64(data) -> int:
    """The per-byte FNV-1a loop, the oracle for the block-wise numpy version."""
    h = 0xCBF29CE484222325
    for b in bytes(data):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestFnv1a64:
    def test_known_vectors(self):
        # published FNV-1a 64-bit values
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_distinguishes_payloads(self):
        assert fnv1a64(b"abc") != fnv1a64(b"acb")

    def test_fits_in_64_bits(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data = rng.integers(0, 256, size=rng.integers(0, 300)).astype(np.uint8)
            assert 0 <= fnv1a64(data.tobytes()) < 2**64

    def test_matches_reference_at_block_edges(self):
        block = dataio._FNV_BLOCK
        lengths = [*range(18), 8191, 8192, 8193, block - 1, block, block + 1, 2 * block + 7]
        rng = np.random.default_rng(5)
        for n in lengths:
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            assert fnv1a64(data) == reference_fnv1a64(data), n

    def test_matches_reference_on_float_payload(self):
        data = np.random.default_rng(6).standard_normal(37_500).tobytes()
        assert fnv1a64(data) == reference_fnv1a64(data)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_accepts_buffer_types(self, kind):
        data = np.random.default_rng(7).integers(0, 256, size=1000, dtype=np.uint8).tobytes()
        assert fnv1a64(kind(data)) == reference_fnv1a64(data)


class TestAudioClip:
    def test_basic_properties(self):
        clip = AudioClip(np.zeros(8000), 16000, "x")
        assert len(clip) == 8000
        assert clip.duration == pytest.approx(0.5)
        assert clip.samples.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(0), 16000)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((10, 2)), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(10), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        samples = np.zeros(10)
        samples[3] = bad
        with pytest.raises(ValueError, match="'x'.*non-finite"):
            AudioClip(samples, 16000, "x")


class TestWavRoundTrip:
    def test_int16(self, tmp_path):
        rng = np.random.default_rng(2)
        clip = AudioClip(0.7 * rng.standard_normal(4000).clip(-1, 1), 22050, "c")
        path = tmp_path / "c.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate == 22050
        assert back.source_id == "c.wav"
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 32768 + 1e-12

    def test_float32(self, tmp_path):
        clip = AudioClip(np.linspace(-0.9, 0.9, 500), 8000)
        path = tmp_path / "f.wav"
        write_wav(path, clip, sample_format="float32")
        back = read_wav(path)
        assert np.abs(back.samples - clip.samples).max() < 1e-6

    def test_int32(self, tmp_path):
        clip = AudioClip(np.linspace(-0.5, 0.5, 300), 16000)
        path = tmp_path / "i.wav"
        write_wav(path, clip, sample_format="int32")
        back = read_wav(path)
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 2**31 + 1e-12

    def test_stereo_is_averaged(self, tmp_path):
        left = np.full(100, 0.25, dtype=np.float32)
        right = np.full(100, 0.75, dtype=np.float32)
        wavfile.write(str(tmp_path / "s.wav"), 16000, np.stack([left, right], axis=1))
        back = read_wav(tmp_path / "s.wav")
        assert back.samples.shape == (100,)
        assert np.allclose(back.samples, 0.5)

    def test_uint8_scaling(self, tmp_path):
        data = np.array([0, 128, 255], dtype=np.uint8)
        wavfile.write(str(tmp_path / "u.wav"), 8000, data)
        back = read_wav(tmp_path / "u.wav")
        assert back.samples[1] == 0.0
        assert back.samples[0] == -1.0
        assert back.samples[2] == pytest.approx(127 / 128)

    def test_nan_sample_names_the_file(self, tmp_path):
        data = np.linspace(-0.5, 0.5, 400, dtype=np.float32)
        data[123] = np.nan
        wavfile.write(str(tmp_path / "bad.wav"), 16000, data)
        with pytest.raises(ValueError, match="bad.wav.*non-finite"):
            read_wav(tmp_path / "bad.wav")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_bad_sample_format(self, tmp_path):
        clip = AudioClip(np.zeros(10), 8000)
        with pytest.raises(ValueError):
            write_wav(tmp_path / "x.wav", clip, sample_format="int24")


class TestManifest:
    def test_load_save_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "# comment\n"
            "a/one.wav\tpark\n"
            "a/two.wav\tstreet\n"
            "\n"
            "b/three.wav\tpark\n"
        )
        m = load_manifest(path)
        assert m.entries == [
            ("a/one.wav", "park"),
            ("a/two.wav", "street"),
            ("b/three.wav", "park"),
        ]
        # class order follows first appearance
        assert m.class_names == ["park", "street"]
        out = tmp_path / "copy.tsv"
        save_manifest(m, out)
        again = load_manifest(out)
        assert again.entries == m.entries
        assert again.class_names == m.class_names

    def test_label_indices(self, tmp_path):
        m = DatasetManifest(
            entries=[("a", "x"), ("b", "y"), ("c", "x")], class_names=["x", "y"]
        )
        assert m.label_indices().tolist() == [0, 1, 0]
        assert m.class_index("y") == 1

    def test_subset_keeps_class_order(self):
        m = DatasetManifest(
            entries=[("a", "x"), ("b", "y"), ("c", "x")], class_names=["x", "y"]
        )
        sub = m.subset([1])
        assert sub.entries == [("b", "y")]
        assert sub.class_names == ["x", "y"]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            DatasetManifest(entries=[("a", "zzz")], class_names=["x"])

    def test_duplicate_class_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DatasetManifest(entries=[], class_names=["x", "x"])

    def test_load_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only-one-field\n")
        with pytest.raises(ValueError, match="expected 'path<TAB>label'"):
            load_manifest(path)

    def test_load_rejects_duplicate_paths(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a.wav\tx\na.wav\ty\n")
        with pytest.raises(ValueError, match="duplicate clip path"):
            load_manifest(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="empty manifest"):
            load_manifest(path)

    def test_resolve_relative_to_manifest_dir(self, tmp_path):
        manifest_path = tmp_path / "sub" / "m.tsv"
        assert resolve_clip_path(manifest_path, "clips/a.wav") == tmp_path / "sub" / "clips" / "a.wav"
        assert resolve_clip_path(manifest_path, "/abs/a.wav") == Path("/abs/a.wav")


class TestSplitDataset:
    def make(self, counts):
        entries = []
        for name, n in counts.items():
            entries.extend((f"{name}_{i}.wav", name) for i in range(n))
        return DatasetManifest(entries=entries, class_names=list(counts))

    def test_quarter_split_counts(self):
        m = self.make({"a": 8, "b": 8})
        train, test = split_dataset(m, 0.25, seed=3)
        assert len(train) == 4 and len(test) == 12
        for name in ("a", "b"):
            assert sum(1 for _, lab in train.entries if lab == name) == 2

    def test_round_half_up(self):
        # 0.25 * 6 = 1.5 rounds up to 2 per class
        m = self.make({"a": 6})
        train, _ = split_dataset(m, 0.25, seed=0)
        assert len(train) == 2

    def test_minimum_one_train_clip(self):
        m = self.make({"a": 20})
        train, _ = split_dataset(m, 0.01, seed=0)
        assert len(train) == 1

    def test_disjoint_and_complete(self):
        m = self.make({"a": 7, "b": 5, "c": 9})
        train, test = split_dataset(m, 0.3, seed=11)
        got = sorted(train.entries + test.entries)
        assert got == sorted(m.entries)
        assert not set(p for p, _ in train.entries) & set(p for p, _ in test.entries)

    def test_deterministic(self):
        m = self.make({"a": 10, "b": 10})
        first = split_dataset(m, 0.25, seed=7)
        second = split_dataset(m, 0.25, seed=7)
        assert first[0].entries == second[0].entries
        assert first[1].entries == second[1].entries

    def test_seed_changes_selection(self):
        m = self.make({"a": 30})
        one = split_dataset(m, 0.5, seed=1)[0].entries
        two = split_dataset(m, 0.5, seed=2)[0].entries
        assert one != two

    def test_entries_keep_manifest_order(self):
        m = self.make({"a": 6, "b": 6})
        train, test = split_dataset(m, 0.5, seed=5)
        order = {path: i for i, (path, _) in enumerate(m.entries)}
        for part in (train, test):
            positions = [order[p] for p, _ in part.entries]
            assert positions == sorted(positions)

    def test_rejects_tiny_class(self):
        m = self.make({"a": 1, "b": 4})
        with pytest.raises(ValueError, match="at least 2"):
            split_dataset(m, 0.5, seed=0)

    def test_rejects_bad_fraction(self):
        m = self.make({"a": 4})
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_dataset(m, frac, seed=0)


class TestFeatureStore:
    def test_add_get(self):
        store = FeatureStore()
        mat = np.arange(12, dtype=np.float64).reshape(3, 4)
        store.add("clip1", "mfcc", mat)
        assert ("clip1", "mfcc") in store
        assert np.array_equal(store.get("clip1", "mfcc"), mat)
        assert store.source_ids() == ["clip1"]
        assert store.extractors() == ["mfcc"]

    def test_rejects_1d(self):
        store = FeatureStore()
        with pytest.raises(ValueError, match="2-D"):
            store.add("c", "mfcc", np.zeros(5))

    def test_rejects_dim_mismatch_per_extractor(self):
        store = FeatureStore()
        store.add("c1", "mfcc", np.zeros((2, 4)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            store.add("c2", "mfcc", np.zeros((2, 5)))
        # a different extractor may use its own width
        store.add("c1", "plp", np.zeros((2, 5)))

    def test_missing_record_names_clip_and_families(self):
        store = FeatureStore()
        store.add("c1", "mfcc", np.zeros((2, 4)))
        store.add("c1", "pncc", np.zeros((2, 3)))
        with pytest.raises(
            FeatureStoreError, match="no 'plp' features for clip 'c1'.*holds: mfcc, pncc"
        ):
            store.get("c1", "plp")

    def test_insertion_order(self):
        store = FeatureStore()
        store.add("b", "mfcc", np.zeros((1, 2)))
        store.add("a", "mfcc", np.zeros((1, 2)))
        store.add("b", "pncc", np.zeros((1, 3)))
        assert store.source_ids() == ["b", "a"]
        assert store.extractors() == ["mfcc", "pncc"]


def feature_store():
    rng = np.random.default_rng(9)
    store = FeatureStore()
    store.add("one.wav", "mfcc", rng.standard_normal((7, 6)))
    store.add("two.wav", "mfcc", rng.standard_normal((3, 6)))
    store.add("one.wav", "plp", rng.standard_normal((7, 5)))
    return store


@pytest.fixture
def hashed(monkeypatch):
    """Lengths of the byte strings dataio hashes, in call order."""
    lengths = []

    def counting(data):
        lengths.append(len(data))
        return fnv1a64(data)

    monkeypatch.setattr(dataio, "fnv1a64", counting)
    return lengths


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        store = feature_store()
        path = tmp_path / "f.sfs"
        save_features(store, path)
        back = load_features(path)
        assert set(back.records) == set(store.records)
        for key, values in store.records.items():
            assert np.array_equal(back.records[key], values)
        # a second save of the loaded store writes identical bytes
        path2 = tmp_path / "g.sfs"
        save_features(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "e.sfs"
        save_features(FeatureStore(), path)
        assert len(load_features(path)) == 0

    def test_version_mismatch(self, tmp_path):
        # version 1 layout: magic, version, count, then per record its
        # header, payload and an FNV-1a checksum of the payload
        values = np.arange(6, dtype="<f8").tobytes()
        blob = b"SFS1" + pack_u32(1) + pack_u32(1)
        blob += pack_str("one.wav") + pack_str("mfcc") + pack_u32(2) + pack_u32(3)
        blob += values + pack_u64(fnv1a64(values))
        path = tmp_path / "old.sfs"
        path.write_bytes(blob)
        with pytest.raises(FeatureStoreError, match="format version 1 does not match expected 4"):
            load_features(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 had version 3's framing but also stored cepscom records
        values = np.arange(6, dtype="<f8").tobytes()
        body = pack_u32(2) + pack_u32(1)
        body += pack_str("one.wav") + pack_str("cepscom") + pack_u32(2) + pack_u32(3) + values
        path = tmp_path / "v2.sfs"
        path.write_bytes(b"SFS1" + body + pack_u64(fnv1a64(body)))
        with pytest.raises(FeatureStoreError, match="format version 2 does not match expected 4"):
            load_features(path)

    def test_version_3_rejected(self, tmp_path):
        # version 3: one container over every record, each naming its family
        records = feature_store().records
        body = pack_u32(3) + pack_u32(len(records))
        for (source_id, family), values in records.items():
            body += pack_str(source_id) + pack_str(family)
            body += pack_u32(values.shape[0]) + pack_u32(values.shape[1]) + values.tobytes()
        path = tmp_path / "v3.sfs"
        path.write_bytes(b"SFS1" + body + pack_u64(fnv1a64(body)))
        with pytest.raises(FeatureStoreError, match="format version 3 does not match expected 4"):
            load_features(path)

    def test_table_of_contents_lists_each_family_block(self, tmp_path):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        blob = path.read_bytes()
        toc_size, count = struct.unpack_from("<II", blob, 8)
        blocks = sfs_blocks(blob)
        assert count == len(blocks) == 2
        assert blocks[0][1] == toc_size
        for (field, start, end), family in zip(blocks, ("mfcc", "plp")):
            # the table names the family and gives its block's size
            assert blob[field - 4 - len(family) : field] == pack_str(family)
            assert struct.unpack_from("<Q", blob, field)[0] == end - start
            assert blob[start : start + 8] == b"SFS1" + pack_u32(4)
            assert blob[start + 8 : end - 8].startswith(pack_str(family))

    def test_named_families_only(self, tmp_path):
        store = feature_store()
        path = tmp_path / "f.sfs"
        save_features(store, path)
        back = load_features(path, families=["plp"])
        assert list(back.records) == [("one.wav", "plp")]
        assert np.array_equal(back.get("one.wav", "plp"), store.get("one.wav", "plp"))
        assert len(load_features(path, families=[])) == 0
        assert set(load_features(path, families=["plp", "mfcc"]).records) == set(store.records)

    def test_named_load_hashes_only_the_table_and_its_blocks(self, tmp_path, hashed):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        blob = path.read_bytes()
        toc_size = struct.unpack_from("<I", blob, 8)[0]
        _, (_, plp_start, plp_end) = sfs_blocks(blob)
        hashed.clear()
        load_features(path, families=["plp"])
        # each container hashes its version and payload: all but magic and checksum
        assert hashed == [toc_size - 12, plp_end - plp_start - 12]
        hashed.clear()
        load_features(path)
        assert sum(hashed) == len(blob) - 3 * 12

    def test_corrupt_block_fails_only_the_loads_that_read_it(self, tmp_path):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        blob = bytearray(path.read_bytes())
        (_, mfcc_start, mfcc_end), _ = sfs_blocks(blob)
        blob[(mfcc_start + mfcc_end) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        assert list(load_features(path, families=["plp"]).records) == [("one.wav", "plp")]
        with pytest.raises(ChecksumError, match="'mfcc' block: checksum mismatch"):
            load_features(path)
        with pytest.raises(ChecksumError):
            load_features(path, families=["mfcc"])

    def test_missing_family_names_file_family_and_holdings(self, tmp_path):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        with pytest.raises(
            FeatureStoreError, match=f"no 'pncc' features in {path}; the file holds: mfcc, plp"
        ):
            load_features(path, families=["mfcc", "pncc"])

    def test_repeated_clip_in_a_block_rejected(self, tmp_path):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        # the mfcc block holds one.wav then two.wav; name both one.wav
        blob = path.read_bytes()
        assert blob.count(pack_str("two.wav")) == 1
        path.write_bytes(reframe("sfs", blob.replace(pack_str("two.wav"), pack_str("one.wav"))))
        with pytest.raises(
            FeatureStoreError, match=f"{path}, 'mfcc' block: clip 'one.wav' appears twice"
        ):
            load_features(path)

    def test_repeated_family_in_the_table_rejected(self, tmp_path):
        store = FeatureStore()
        store.add("one.wav", "mfcc", np.zeros((2, 3)))
        store.add("one.wav", "pncc", np.ones((2, 3)))
        path = tmp_path / "f.sfs"
        save_features(store, path)
        blob = path.read_bytes()
        toc_size = struct.unpack_from("<I", blob, 8)[0]
        toc = blob[:toc_size].replace(pack_str("pncc"), pack_str("mfcc"))
        path.write_bytes(reframe("sfs", toc + blob[toc_size:]))
        with pytest.raises(FeatureStoreError, match="lists 'mfcc' twice"):
            load_features(path)

    def test_block_family_must_match_the_table(self, tmp_path):
        store = FeatureStore()
        store.add("one.wav", "mfcc", np.zeros((2, 3)))
        store.add("one.wav", "pncc", np.ones((2, 3)))
        path = tmp_path / "f.sfs"
        save_features(store, path)
        blob = path.read_bytes()
        _, (_, pncc_start, _) = sfs_blocks(blob)
        head, block = blob[:pncc_start], blob[pncc_start:]
        path.write_bytes(reframe("sfs", head + block.replace(pack_str("pncc"), pack_str("mfcc"))))
        with pytest.raises(FeatureStoreError, match="'pncc' block: holds 'mfcc' features"):
            load_features(path)
        assert list(load_features(path, families=["mfcc"]).records) == [("one.wav", "mfcc")]

    def test_size_is_checked_before_any_block_is_read(self, tmp_path, hashed):
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        blob = path.read_bytes()
        toc_size = struct.unpack_from("<I", blob, 8)[0]
        for edited, message in ((blob + b"x", "trailing bytes after the last block"),
                                (blob[:-1], "truncated")):
            path.write_bytes(edited)
            hashed.clear()
            with pytest.raises(FeatureStoreError, match=message):
                load_features(path, families=["plp"])
            assert hashed == [toc_size - 12]
        # a table size past the end of the file is refused before it is read
        path.write_bytes(blob[:8] + pack_u32(2**32 - 1) + blob[12:])
        hashed.clear()
        with pytest.raises(FeatureStoreError, match="truncated"):
            load_features(path)
        assert hashed == []


def _cdl_model():
    rng = np.random.default_rng(21)
    embeddings = [
        log_embed(covariance_descriptor(rng.standard_normal((50, 3)) * scale))
        for scale in ([1, 1, 1], [3, 1, 1]) for _ in range(3)
    ]
    return fit_cdl(embeddings, [0, 0, 0, 1, 1, 1])


def _gmm_bank():
    rng = np.random.default_rng(11)
    feats = [rng.standard_normal((100, 4)), rng.standard_normal((100, 4)) + 2]
    return fit_gmm_bank(feats, 3, seeds=[5, 6])


def sfs_blocks(blob) -> list:
    """``[size field offset, start, end]`` of each family block of a feature
    store, read off its table of contents.  The last block runs to the end
    of the file, so an edit that changes its length keeps it whole."""
    toc_size, count = struct.unpack_from("<II", blob, 8)
    pos, start, blocks = 16, toc_size, []
    for _ in range(count):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        size = struct.unpack_from("<Q", blob, pos)[0]
        blocks.append([pos, start, start + size])
        pos, start = pos + 8, start + size
    if blocks:
        blocks[-1][2] = len(blob)
    return blocks


def containers(fmt, blob) -> list:
    """``(start, end)`` of each container of a file: a model file is one; a
    feature store is its table of contents, then one per family."""
    if fmt != "sfs":
        return [(0, len(blob))]
    toc_size = struct.unpack_from("<I", blob, 8)[0]
    return [(0, toc_size)] + [(start, end) for _, start, end in sfs_blocks(blob)]


def reframe(fmt, blob) -> bytes:
    """Recompute every checksum, and a feature store's block sizes, so only
    the edit under test is wrong."""
    blob = bytearray(blob)
    if fmt == "sfs":
        for field, start, end in sfs_blocks(blob):
            blob[field : field + 8] = pack_u64(end - start)
    for start, end in containers(fmt, blob):
        blob[end - 8 : end] = pack_u64(fnv1a64(bytes(blob[start + 4 : end - 8])))
    return bytes(blob)


#: format -> (write a sample file, read it back)
CONTAINERS = {
    "sfs": (lambda path: save_features(feature_store(), path), load_features),
    "sfg": (lambda path: save_gmm_bank(path, _gmm_bank(), "mfcc", ["a", "b"]), load_gmm_bank),
    "sfc": (lambda path: save_cdl_model(path, _cdl_model(), "cepscom", ["a", "b"]), load_cdl_model),
}


@pytest.mark.parametrize("fmt", sorted(CONTAINERS))
class TestContainer:
    """The framing every binary file shares: magic, version, payload, checksum.

    A feature store's first container is its table of contents, and its
    last one its last family block."""

    def written(self, fmt, tmp_path):
        write, read = CONTAINERS[fmt]
        path = tmp_path / f"file.{fmt}"
        write(path)
        read(path)
        return path, bytearray(path.read_bytes()), read

    def test_stored_checksum_is_fnv1a_of_version_and_payload(self, fmt, tmp_path):
        _, blob, _ = self.written(fmt, tmp_path)
        for start, end in containers(fmt, blob):
            assert int.from_bytes(blob[end - 8 : end], "little") == reference_fnv1a64(
                blob[start + 4 : end - 8]
            )

    def test_bad_magic(self, fmt, tmp_path):
        path, blob, read = self.written(fmt, tmp_path)
        for start, _ in containers(fmt, blob):
            path.write_bytes(blob[:start] + b"NOPE" + blob[start + 4 :])
            with pytest.raises(FeatureStoreError, match="bad magic"):
                read(path)

    def test_truncation_detected(self, fmt, tmp_path):
        path, blob, read = self.written(fmt, tmp_path)
        for cut in (blob[:10], reframe(fmt, blob[:-16] + blob[-8:])):
            path.write_bytes(cut)
            with pytest.raises(FeatureStoreError, match="truncated"):
                read(path)
        path.write_bytes(blob[:-5])
        if fmt == "sfs":
            # a feature store checks its size against its table of contents
            # before it reads a block
            with pytest.raises(FeatureStoreError, match="truncated"):
                read(path)
        else:
            with pytest.raises(ChecksumError):
                read(path)

    def test_corruption_detected(self, fmt, tmp_path):
        path, blob, read = self.written(fmt, tmp_path)
        for start, end in containers(fmt, blob):
            corrupt = bytearray(blob)
            corrupt[min(start + 30, end - 9)] ^= 0x01
            path.write_bytes(bytes(corrupt))
            with pytest.raises(ChecksumError):
                read(path)

    def test_trailing_bytes_rejected(self, fmt, tmp_path):
        path, blob, read = self.written(fmt, tmp_path)
        path.write_bytes(reframe(fmt, blob[:-8] + b"x" + blob[-8:]))
        with pytest.raises(FeatureStoreError, match="trailing bytes after payload"):
            read(path)

    def test_version_mismatch(self, fmt, tmp_path):
        path, blob, read = self.written(fmt, tmp_path)
        for start, _ in containers(fmt, blob):
            version = int.from_bytes(blob[start + 4 : start + 8], "little")
            edited = bytearray(blob)
            edited[start + 4 : start + 8] = pack_u32(version + 1)
            path.write_bytes(reframe(fmt, edited))
            with pytest.raises(FeatureStoreError, match=f"version {version + 1} does not match"):
                read(path)


@pytest.mark.parametrize("fmt, family", [("sfg", "mfcc"), ("sfc", "cepscom")])
def test_version_1_model_file_rejected(fmt, family, tmp_path):
    # version 1 stored the same payload without the leading names block
    write, read = CONTAINERS[fmt]
    path = tmp_path / f"old.{fmt}"
    write(path)
    blob = path.read_bytes()
    header = pack_model_header(family, ["a", "b"], 2)
    assert blob[8 : 8 + len(header)] == header
    body = pack_u32(1) + blob[8 + len(header) : -8]
    path.write_bytes(blob[:4] + body + pack_u64(fnv1a64(body)))
    with pytest.raises(FeatureStoreError, match="format version 1 does not match expected 2"):
        read(path)
