"""Audio IO, manifests, splits, and the binary containers."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from scenefuse import dataio
from scenefuse.cdl import (
    centre_embeddings,
    covariance_descriptor,
    fit_cdl,
    load_cdl_model,
    log_embed,
    save_cdl_model,
)
from scenefuse.dataio import (
    FEATURE_STORE_MAGIC,
    FEATURE_STORE_VERSION,
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
    write_container,
    write_wav,
)
from scenefuse.features import DELTA_WINDOW
from scenefuse.gmm import GmmBank, fit_gmm, load_gmm_bank, save_gmm_bank
from scenefuse.pipeline import extract_for_manifest


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


def riff(fmt: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    """A RIFF/WAVE file from a fmt chunk body, data bytes and raw chunks between."""
    body = b"WAVE" + b"fmt " + pack_u32(len(fmt)) + fmt + before_data
    body += b"data" + pack_u32(len(data)) + data + b"\0" * (len(data) & 1)
    return b"RIFF" + pack_u32(len(body)) + body


def pcm_fmt(channels, rate, width, bits=None, tag=1):
    bits = 8 * width if bits is None else bits
    return struct.pack("<HHIIHH", tag, channels, rate, rate * channels * width,
                       channels * width, bits)


def extensible_fmt(channels, rate, width, tag, bits=None):
    head = pcm_fmt(channels, rate, width, bits, tag=0xFFFE)
    guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return head + struct.pack("<HHI", 22, 8 * width if bits is None else bits, 3) + guid


def packed_24bit(values: np.ndarray) -> bytes:
    """Little-endian 3-byte samples of int values in [-2^23, 2^23)."""
    return values.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def scipy_clip(path) -> np.ndarray:
    """The mono float64 samples read_wav made through scipy.io.wavfile: the oracle."""
    _, data = wavfile.read(str(path))
    full_scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in full_scale:
        samples = data.astype(np.float64) / full_scale[data.dtype]
    else:
        samples = data.astype(np.float64)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


class TestWavCodecAgainstScipy:
    @pytest.mark.parametrize("dtype", ["u1", "<i2", "<i4", "<f4", "<f8"])
    @pytest.mark.parametrize("channels", [1, 2, 6])
    def test_decodes_what_scipy_writes(self, tmp_path, dtype, channels):
        rng = np.random.default_rng(channels)
        values = rng.uniform(-0.9, 0.9, (257, channels))
        if dtype == "u1":
            data = (128 + 127 * values).astype(np.uint8)
        elif dtype[1] == "i":
            data = (values * np.iinfo(dtype).max).astype(dtype)
        else:
            data = values.astype(dtype)
        path = tmp_path / "w.wav"
        wavfile.write(str(path), 22050, data[:, 0] if channels == 1 else data)
        clip = read_wav(path)
        assert clip.sample_rate == 22050
        assert np.array_equal(clip.samples, scipy_clip(path))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_24_bit(self, tmp_path, channels):
        values = np.random.default_rng(3).integers(-(2**23), 2**23, (300, channels))
        values[:4, 0] = [-(2**23), 2**23 - 1, -1, 0]
        path = tmp_path / "p24.wav"
        path.write_bytes(riff(pcm_fmt(channels, 48000, 3), packed_24bit(values.ravel())))
        _, want = wavfile.read(str(path))
        assert want.dtype == np.int32 and np.array_equal(want.reshape(300, -1) >> 8, values)
        assert np.array_equal(read_wav(path).samples, scipy_clip(path))

    @pytest.mark.parametrize(
        "tag, width, bits", [(1, 2, 16), (1, 3, 24), (1, 3, 20), (1, 4, 32), (3, 4, 32), (3, 8, 64)]
    )
    def test_extensible_header(self, tmp_path, tag, width, bits):
        rng = np.random.default_rng(width)
        if tag == 3:
            data = rng.uniform(-1, 1, 200).astype(f"<f{width}").tobytes()
        elif width == 3:
            data = packed_24bit(rng.integers(-(2**23), 2**23, 200))
        else:
            data = rng.integers(-(2**15), 2**15, 200).astype(f"<i{width}").tobytes()
        path = tmp_path / "ext.wav"
        path.write_bytes(riff(extensible_fmt(2, 44100, width, tag, bits), data))
        clip = read_wav(path)
        assert clip.samples.shape == (100,)
        assert np.array_equal(clip.samples, scipy_clip(path))

    def test_skips_unknown_chunks_and_their_pad_bytes(self, tmp_path):
        data = np.arange(-50, 50, dtype="<i2").tobytes()
        odd = b"junk" + pack_u32(3) + b"abc\0" + b"LIST" + pack_u32(4) + b"INFO"
        path = tmp_path / "chunks.wav"
        path.write_bytes(riff(pcm_fmt(1, 8000, 2), data, before_data=odd))
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            want = scipy_clip(path)
        assert np.array_equal(read_wav(path).samples, want)
        assert np.array_equal(want, np.arange(-50, 50) / 32768.0)

    def test_write_is_byte_identical_to_scipy(self, tmp_path):
        clip = AudioClip(np.random.default_rng(4).uniform(-1, 1, 1001), 44100)
        write_wav(tmp_path / "ours.wav", clip)
        data = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(str(tmp_path / "scipy.wav"), 44100, data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


class TestWavErrorsNameTheFile:
    def expect(self, tmp_path, blob, match):
        path = tmp_path / "broken.wav"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"broken.wav.*{match}"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        # scipy warns and returns 849 of the 1,000 samples
        path = tmp_path / "full.wav"
        write_wav(path, AudioClip(np.linspace(-0.5, 0.5, 1000), 16000))
        self.expect(tmp_path, path.read_bytes()[:-301], "'data' chunk declares 2000 bytes")

    def test_truncated_unknown_chunk(self, tmp_path):
        blob = riff(pcm_fmt(1, 8000, 2), b"\0\0")[:12] + b"fmt " + pack_u32(16) + b"\0" * 10
        self.expect(tmp_path, blob, "'fmt ' chunk declares 16 bytes")

    def test_not_riff(self, tmp_path):
        self.expect(tmp_path, b"RIFX" + b"\0" * 40, "not a RIFF/WAVE file")

    def test_no_data_chunk(self, tmp_path):
        blob = riff(pcm_fmt(1, 8000, 2), b"")
        self.expect(tmp_path, blob[: blob.index(b"data")], "no data chunk")

    def test_data_before_fmt(self, tmp_path):
        blob = b"RIFF" + pack_u32(14) + b"WAVE" + b"data" + pack_u32(2) + b"\0\0"
        self.expect(tmp_path, blob, "no fmt chunk")

    def test_short_fmt_chunk(self, tmp_path):
        self.expect(tmp_path, riff(pcm_fmt(1, 8000, 2)[:14], b"\0\0"), "fmt chunk of 14 bytes")

    def test_zero_channels(self, tmp_path):
        self.expect(tmp_path, riff(pcm_fmt(0, 8000, 2), b"\0\0"), "invalid fmt chunk")

    @pytest.mark.parametrize("fmt", [
        pcm_fmt(1, 8000, 2, tag=2),  # ADPCM
        pcm_fmt(1, 8000, 8, tag=1),  # 64-bit PCM
        pcm_fmt(1, 8000, 4, bits=24, tag=3),  # 24-bit float
    ], ids=["adpcm", "pcm64", "float24"])
    def test_unsupported_format(self, tmp_path, fmt):
        self.expect(tmp_path, riff(fmt, b"\0" * 8), "unsupported WAV sample format")

    def test_bad_extensible_guid(self, tmp_path):
        fmt = extensible_fmt(1, 8000, 2, 1)[:-1] + b"\x00"
        self.expect(tmp_path, riff(fmt, b"\0\0"), "WAVE_FORMAT_EXTENSIBLE")

    def test_partial_frame(self, tmp_path):
        self.expect(tmp_path, riff(pcm_fmt(2, 8000, 2), b"\0" * 6), "whole number of 4-byte frames")

    def test_zero_length(self, tmp_path):
        self.expect(tmp_path, riff(pcm_fmt(1, 8000, 2), b""), "zero-length audio")


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

    @pytest.mark.parametrize("line, what", [
        ("a,b.wav\tx", "clip path 'a,b.wav'"),
        ("a.wav\trumble,low", "label 'rumble,low'"),
    ], ids=["path", "label"])
    def test_load_rejects_a_comma(self, tmp_path, line, what):
        # the score and weight files could not carry it
        path = tmp_path / "m.tsv"
        path.write_text(f"# clips\nok.wav\tx\n{line}\n")
        with pytest.raises(ValueError, match=rf"m.tsv:3: {what} may not contain commas"):
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

    def test_rejects_a_split_that_leaves_a_class_untested(self):
        # 0.75 * 2 rounds up to 2: both clips of 'a' would train, and its
        # accuracy would read 0 with no clip to test
        m = self.make({"a": 2, "b": 10})
        with pytest.raises(ValueError, match="class 'a' has 2 clips; train_fraction 0.75"):
            split_dataset(m, 0.75, seed=0)

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
        assert list(store.records) == [("clip1", "mfcc")]
        assert store.extractors() == ["mfcc"]

    def test_rejects_1d(self):
        store = FeatureStore()
        with pytest.raises(FeatureStoreError, match=re.escape(
            "clip 'c' has a 1-D 'mfcc' record; a feature matrix is 2-D (frames x dims)"
        )):
            store.add("c", "mfcc", np.zeros(5))

    def test_rejects_dim_mismatch_per_extractor(self):
        store = FeatureStore()
        store.add("c1", "mfcc", np.zeros((2, 4)))
        with pytest.raises(
            FeatureStoreError, match="'mfcc' dimension mismatch for clip 'c2': 4 vs 5"
        ):
            store.add("c2", "mfcc", np.zeros((2, 5)))
        # a different extractor may use its own width
        store.add("c1", "plp", np.zeros((2, 5)))

    @pytest.mark.parametrize("values, fault", [
        (np.zeros((0, 2)), "has no frames"),
        (np.zeros((5, 0)), "has no columns"),
        (np.array([[0.0, 1.0], [np.nan, 1.0], [2.0, np.inf]]), "has non-finite feature values"),
    ], ids=["no-frames", "no-columns", "non-finite"])
    def test_refuses_a_record_no_feature_file_holds(self, tmp_path, values, fault):
        store = FeatureStore()
        with pytest.raises(
            FeatureStoreError, match=re.escape(f"clip 'c1' {fault} in its 'mfcc' record")
        ):
            store.add("c1", "mfcc", values)
        # nothing of the record is kept, so save_features cannot write it
        assert len(store) == 0
        store.add("c1", "mfcc", np.zeros((1, 3)))
        save_features(store, tmp_path / "f.sfs")
        assert list(load_features(tmp_path / "f.sfs").records) == [("c1", "mfcc")]

    def test_missing_record_names_clip_and_families(self):
        store = FeatureStore()
        store.add("c1", "mfcc", np.zeros((2, 4)))
        store.add("c1", "pncc", np.zeros((2, 3)))
        with pytest.raises(
            FeatureStoreError, match="no 'plp' features for clip 'c1'.*holds: mfcc, pncc"
        ):
            store.get("c1", "plp")

    def test_a_record_is_never_replaced(self):
        store = FeatureStore()
        first = np.zeros((2, 4))
        store.add("c1", "mfcc", first)
        with pytest.raises(
            FeatureStoreError, match="already holds 'mfcc' features for clip 'c1'"
        ):
            store.add("c1", "mfcc", np.ones((2, 4)))
        assert store.get("c1", "mfcc") is first
        # another family of the clip, or the family of another clip, is a new record
        store.add("c1", "pncc", np.ones((2, 4)))
        store.add("c2", "mfcc", np.ones((2, 4)))

    def test_insertion_order(self):
        store = FeatureStore()
        store.add("b", "mfcc", np.zeros((1, 2)))
        store.add("a", "mfcc", np.zeros((1, 2)))
        store.add("b", "pncc", np.zeros((1, 3)))
        assert list(store.records) == [("b", "mfcc"), ("a", "mfcc"), ("b", "pncc")]
        assert store.extractors() == ["mfcc", "pncc"]


def feature_store():
    """Static columns, as extraction stores them: mfcc 2 wide, plp 1."""
    rng = np.random.default_rng(9)
    store = FeatureStore()
    store.add("one.wav", "mfcc", rng.standard_normal((7, 2)))
    store.add("two.wav", "mfcc", rng.standard_normal((3, 2)))
    store.add("one.wav", "plp", rng.standard_normal((7, 1)))
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
        with pytest.raises(FeatureStoreError, match="format version 1 does not match expected 5"):
            load_features(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 had version 3's framing but also stored cepscom records
        values = np.arange(6, dtype="<f8").tobytes()
        body = pack_u32(2) + pack_u32(1)
        body += pack_str("one.wav") + pack_str("cepscom") + pack_u32(2) + pack_u32(3) + values
        path = tmp_path / "v2.sfs"
        path.write_bytes(b"SFS1" + body + pack_u64(fnv1a64(body)))
        with pytest.raises(FeatureStoreError, match="format version 2 does not match expected 5"):
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
        with pytest.raises(FeatureStoreError, match="format version 3 does not match expected 5"):
            load_features(path)

    def test_version_4_rejected(self, tmp_path):
        # version 4: version 5's table of contents and family blocks, but
        # each block header gave the full width and each record stored every
        # column
        def container(payload):
            body = pack_u32(4) + payload
            return b"SFS1" + body + pack_u64(fnv1a64(body))

        by_family = {}
        for (source_id, family), values in feature_store().records.items():
            by_family.setdefault(family, []).append((source_id, values))
        blocks = {}
        for family, records in by_family.items():
            payload = pack_str(family) + pack_u32(records[0][1].shape[1]) + pack_u32(len(records))
            for source_id, values in records:
                payload += pack_str(source_id) + pack_u32(values.shape[0]) + values.tobytes()
            blocks[family] = container(payload)
        entries = b"".join(pack_str(family) + pack_u64(len(b)) for family, b in blocks.items())
        toc = container(pack_u32(16 + 8 + len(entries)) + pack_u32(len(blocks)) + entries)
        path = tmp_path / "v4.sfs"
        path.write_bytes(toc + b"".join(blocks.values()))
        with pytest.raises(FeatureStoreError, match="format version 4 does not match expected 5"):
            load_features(path)

    def test_records_store_only_their_static_columns(self, tmp_path):
        store = feature_store()
        path = tmp_path / "f.sfs"
        save_features(store, path)
        blob = path.read_bytes()
        (_, mfcc_start, mfcc_end), _ = sfs_blocks(blob)
        block = blob[mfcc_start + 8 : mfcc_end - 8]
        header = pack_str("mfcc") + pack_u32(2) + pack_u32(DELTA_WINDOW) + pack_u32(2)
        assert block.startswith(header)
        static = store.get("one.wav", "mfcc")
        record = pack_str("one.wav") + pack_u32(7) + static.astype("<f8").tobytes()
        assert block[len(header) :].startswith(record)

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
            assert blob[start : start + 8] == b"SFS1" + pack_u32(5)
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
        with pytest.raises(FeatureStoreError, match=re.escape(
            f"{path}, 'mfcc' block: the feature store already holds 'mfcc' features "
            "for clip 'one.wav'"
        )):
            load_features(path)

    @pytest.mark.parametrize("values, fault", [
        (np.zeros((0, 2)), "has no frames"),
        (np.zeros((5, 0)), "has no columns"),
        (np.array([[0.0, 1.0], [np.nan, 1.0], [2.0, np.inf]]), "has non-finite feature values"),
    ], ids=["no-frames", "no-columns", "non-finite"])
    def test_a_bad_record_is_refused_naming_file_family_and_clip(self, tmp_path, values, fault):
        # FeatureStore.add refuses the record, so the file is packed without one
        blocks = {}
        for (source_id, family), good in feature_store().records.items():
            blocks.setdefault(family, []).append((source_id, good))
        path = tmp_path / "f.sfs"
        write_sfs(path, blocks)
        save_features(feature_store(), tmp_path / "saved.sfs")
        assert path.read_bytes() == (tmp_path / "saved.sfs").read_bytes()
        # first in its block, so the block's width is the bad record's own
        blocks["mfcc"].insert(0, ("three.wav", values))
        write_sfs(path, blocks)
        with pytest.raises(
            FeatureStoreError, match=re.escape(f"{path}, 'mfcc' block: clip 'three.wav' {fault}")
        ):
            load_features(path)
        assert list(load_features(path, families=["plp"]).records) == [("one.wav", "plp")]

    def test_repeated_family_in_the_table_rejected(self, tmp_path):
        store = FeatureStore()
        store.add("one.wav", "mfcc", np.zeros((2, 1)))
        store.add("one.wav", "pncc", np.ones((2, 1)))
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
        store.add("one.wav", "mfcc", np.zeros((2, 1)))
        store.add("one.wav", "pncc", np.ones((2, 1)))
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

    def test_delta_window_other_than_the_recipes_rejected(self, tmp_path):
        # the records would be read with deltas at DELTA_WINDOW, not at the
        # window they were written for
        path = tmp_path / "f.sfs"
        save_features(feature_store(), path)
        blob = bytearray(path.read_bytes())
        _, (_, plp_start, _) = sfs_blocks(blob)
        field = plp_start + 8 + len(pack_str("plp")) + 4
        assert blob[field : field + 4] == pack_u32(DELTA_WINDOW)
        for window in (0, 1, DELTA_WINDOW + 1):
            blob[field : field + 4] = pack_u32(window)
            path.write_bytes(reframe("sfs", blob))
            with pytest.raises(
                FeatureStoreError,
                match=re.escape(
                    f"{path}, 'plp' block: delta window {window}, but features are "
                    f"read with window {DELTA_WINDOW}"
                ),
            ):
                load_features(path)
            # a load that skips the block never reads its window
            assert set(load_features(path, families=["mfcc"]).records) == {
                ("one.wav", "mfcc"), ("two.wav", "mfcc")
            }


def test_a_load_reproduces_extraction_bit_for_bit(mini_dataset, tmp_path):
    manifest = load_manifest(mini_dataset).subset(range(0, 24, 4))
    families = ["mfcc", "plp", "pncc", "rcgcc", "spcc"]
    store = extract_for_manifest(manifest, mini_dataset, families)
    path = tmp_path / "f.sfs"
    save_features(store, path)
    back = load_features(path)
    assert set(back.records) == set(store.records)
    assert {family for _, family in back.records} == set(families)
    for key, values in store.records.items():
        assert np.array_equal(back.records[key], values), key


def _cdl_model():
    rng = np.random.default_rng(21)
    embeddings = [
        log_embed(covariance_descriptor(rng.standard_normal((50, 3)) * scale))
        for scale in ([1, 1, 1], [3, 1, 1]) for _ in range(3)
    ]
    return fit_cdl(centre_embeddings(np.array(embeddings)), [0, 0, 0, 1, 1, 1], 2)


def _gmm_bank():
    rng = np.random.default_rng(11)
    feats = [rng.standard_normal((100, 4)), rng.standard_normal((100, 4)) + 2]
    return GmmBank([fit_gmm(f, 3, seed) for f, seed in zip(feats, [5, 6])])


def write_sfs(path, blocks) -> None:
    """An ``.sfs`` of ``{family: [(clip, static columns), ...]}``, packed
    record by record as ``save_features`` packs a store, but with no
    ``FeatureStore`` to check the records."""
    payloads = {
        family: [pack_str(family), pack_u32(records[0][1].shape[1]), pack_u32(DELTA_WINDOW),
                 pack_u32(len(records))]
        + [part for clip, values in records
           for part in (pack_str(clip), pack_u32(len(values)), values.astype("<f8").tobytes())]
        for family, records in blocks.items()
    }
    # a container adds 16 bytes to its payload: magic, version and checksum
    entries = b"".join(
        pack_str(family) + pack_u64(16 + sum(len(part) for part in parts))
        for family, parts in payloads.items()
    )
    with open(path, "wb") as fh:
        write_container(fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION,
                        [pack_u32(16 + 8 + len(entries)), pack_u32(len(payloads)), entries])
        for parts in payloads.values():
            write_container(fh, FEATURE_STORE_MAGIC, FEATURE_STORE_VERSION, parts)


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
