"""Config parsing, per-system training glue, and the full run."""

import re
import shutil
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import scenefuse.fusion
import scenefuse.pipeline
from scenefuse import cdl as cdl_mod
from scenefuse.dataio import (
    DatasetManifest,
    FeatureStore,
    FeatureStoreError,
    load_manifest,
    read_wav,
    resolve_clip_path,
    split_dataset,
    write_wav,
)
from scenefuse.features import (
    CEPSCOM_PARTS,
    DELTA_WINDOW,
    EXTRACTOR_NAMES,
    expected_dim,
    extract_selected,
)
from scenefuse.fusion import load_score_csv, load_weights_csv, stratified_folds
from scenefuse.gmm import GmmBank, fit_gmm
from scenefuse.pipeline import (
    ALL_SYSTEMS,
    DEFAULT_FUSED,
    SYSTEMS,
    PipelineConfig,
    PipelineError,
    TrainingSet,
    TrainOptions,
    clip_features,
    estimate_weights,
    extract_for_manifest,
    fit_system,
    load_system_model,
    parse_config,
    required_extractors,
    run_pipeline,
    save_system_model,
    score_system,
)
from scenefuse.spectral import FeatureMatrix, append_deltas

#: short framing that keeps the pipeline tests fast
FAST = {"frame_len": 512, "hop": 256}


class TestParseConfig:
    def test_full_file(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# comment line\n"
            "\n"
            "manifest = data/manifest.tsv\n"
            "out_dir = /tmp/abs-out\n"
            "train_fraction = 0.5\n"
            "split_seed = 3\n"
            "weights_folds = 2\n"
            "mixtures_cepstral = 8\n"
            "systems = cepscom-gmm, plp-gmm\n"
            "fused = plp-gmm\n"
        )
        config = parse_config(cfg_path)
        assert config.manifest == tmp_path / "data" / "manifest.tsv"
        assert str(config.out_dir) == "/tmp/abs-out"
        assert config.train_fraction == 0.5
        assert config.split_seed == 3
        assert config.weights_folds == 2
        assert config.mixtures_cepstral == 8
        assert config.systems == ("cepscom-gmm", "plp-gmm")
        assert config.fused == ("plp-gmm",)
        # untouched keys keep their defaults
        assert config.mixtures_plp == 4
        assert config.hop == 1024

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest = m.tsv\nout_dir = o\nwhat = 3\n")
        with pytest.raises(ValueError, match=":3: unknown key 'what'"):
            parse_config(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest = a\nmanifest = b\nout_dir = o\n")
        with pytest.raises(ValueError, match=":2: duplicate key"):
            parse_config(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest m.tsv\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config(cfg)

    def test_missing_required(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest = m.tsv\n")
        with pytest.raises(ValueError, match="missing required key 'out_dir'"):
            parse_config(cfg)

    @pytest.mark.parametrize("line, want", [
        ("split_seed = abc", "key 'split_seed' expects an integer, got 'abc'"),
        ("hop = 2.5", "key 'hop' expects an integer, got '2.5'"),
        ("train_fraction = half", "key 'train_fraction' expects a number, got 'half'"),
    ])
    def test_wrong_type_names_line_key_and_type(self, tmp_path, line, want):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"manifest = m.tsv\nout_dir = o\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: {want}$"):
            parse_config(cfg)

    @pytest.mark.parametrize("line, want", [
        ("weights_folds = 1", "need at least 2 folds, got 1"),
        ("systems = mfcc-svm", "unknown system 'mfcc-svm'"),
        ("hop = 0", "need 0 < hop <= frame_len, got hop=0"),
    ])
    def test_out_of_range_value_names_the_file(self, tmp_path, line, want):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"manifest = m.tsv\nout_dir = o\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{cfg}: {want}')}"):
            parse_config(cfg)


class TestPipelineConfig:
    def good(self, **kwargs):
        base = dict(manifest="m.tsv", out_dir="out")
        base.update(kwargs)
        return PipelineConfig(**base)

    def test_defaults(self):
        config = self.good()
        assert config.systems == ALL_SYSTEMS
        assert config.fused == DEFAULT_FUSED

    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system 'mfcc-svm'"):
            self.good(systems=("mfcc-svm",))

    def test_duplicate_systems(self):
        with pytest.raises(ValueError, match="system 'plp-gmm' is named more than once"):
            self.good(systems=("plp-gmm", "plp-gmm"), fused=("plp-gmm",))

    def test_empty_systems(self):
        with pytest.raises(ValueError, match="empty system list"):
            self.good(systems=())

    def test_fused_must_be_subset(self):
        with pytest.raises(ValueError, match="unknown fused system 'mfcc-gmm'"):
            self.good(systems=("plp-gmm",), fused=("mfcc-gmm",))

    def test_empty_fused(self):
        with pytest.raises(ValueError, match="empty fused system list"):
            self.good(fused=())

    def test_bad_weights_method(self, tmp_path):
        # cross-validation is the one weights rule: the key that chose is gone
        cfg = tmp_path / "old.cfg"
        cfg.write_text("manifest = m.tsv\nout_dir = o\nweights_method = cv\n")
        with pytest.raises(ValueError, match=":3: unknown key 'weights_method'"):
            parse_config(cfg)

    def test_bad_cdl_mode(self, tmp_path):
        # one CDL scoring rule: the key that chose between two is gone
        cfg = tmp_path / "old.cfg"
        cfg.write_text("manifest = m.tsv\nout_dir = o\ncdl_mode = centroid\n")
        with pytest.raises(ValueError, match=":3: unknown key 'cdl_mode'"):
            parse_config(cfg)

    def test_bad_folds_and_mixtures(self):
        with pytest.raises(ValueError, match="at least 2"):
            self.good(weights_folds=1)
        with pytest.raises(ValueError, match="positive"):
            self.good(mixtures_plp=0)

    def test_bad_framing(self):
        with pytest.raises(ValueError, match="got hop=1024, frame_len=512"):
            self.good(frame_len=512)
        with pytest.raises(ValueError, match="got hop=-1, frame_len=2048"):
            self.good(hop=-1)


class TestRequiredExtractors:
    def test_dedupe_and_order(self):
        # both cepscom systems read its stored parts, once; canonical order
        # holds no matter how the systems are listed
        got = required_extractors(("cepscom-cdl", "spcc-gmm", "cepscom-gmm", "mfcc-gmm"))
        assert got == ["mfcc", "pncc", "rcgcc", "spcc"]
        assert required_extractors(("spcc-gmm", "mfcc-gmm")) == ["mfcc", "spcc"]

    def test_all_systems(self):
        got = required_extractors(ALL_SYSTEMS)
        assert got == ["mfcc", "plp", "pncc", "rcgcc", "spcc"]


@pytest.fixture(scope="module")
def small_store(mini_dataset):
    manifest = load_manifest(mini_dataset)
    store = extract_for_manifest(manifest, mini_dataset, ["mfcc"], **FAST)
    return manifest, store


class TestExtractAndFit:
    def test_store_keys_are_entry_paths(self, small_store):
        manifest, store = small_store
        assert [source_id for source_id, _ in store.records] == [e[0] for e in manifest.entries]
        assert store.extractors() == ["mfcc"]
        first = store.get(manifest.entries[0][0], "mfcc")
        assert first.shape[1] == 20

    def test_fit_and_score_gmm(self, small_store):
        manifest, store = small_store
        train, test = split_dataset(manifest, 0.5, seed=1)
        opts = TrainOptions(mixtures_cepstral=2, gmm_seed=5)
        model = fit_system("mfcc-gmm", TrainingSet(store, train), opts)
        assert isinstance(model.model, GmmBank)
        assert model.class_names == manifest.class_names
        scores = score_system(model, store, test)
        assert scores.values.shape == (len(test), 3)
        assert scores.clip_ids == [e[0] for e in test.entries]
        assert not scores.normalized
        again = score_system(fit_system("mfcc-gmm", TrainingSet(store, train), opts), store, test)
        assert np.array_equal(scores.values, again.values)

    def test_fit_rejects_giant_mixture_count(self, small_store):
        manifest, store = small_store
        train, _ = split_dataset(manifest, 0.5, seed=1)
        with pytest.raises(ValueError, match="fewer than 100000 mixture"):
            fit_system(
                "mfcc-gmm", TrainingSet(store, train), TrainOptions(mixtures_cepstral=100000)
            )

    def test_estimate_weights_cv(self, small_store):
        manifest, store = small_store
        train, _ = split_dataset(manifest, 0.5, seed=1)
        opts = TrainOptions(mixtures_cepstral=2)
        weights = estimate_weights(TrainingSet(store, train), ["mfcc-gmm"], opts, folds=2, seed=0)
        assert weights.system_ids == ["mfcc-gmm"]
        assert weights.values.shape == (1, 3)
        assert np.all((weights.values >= 0.0) & (weights.values <= 1.0))


def add_cepscom(store, path, values):
    """Store a frames x 4 matrix as four 1-dim cepscom parts."""
    for name, column in zip(CEPSCOM_PARTS, values.T):
        store.add(path, name, column[:, None])


def embedding_store(rng, n_per_class=4, frames=30):
    """Random 4-dim cepscom: two classes told apart by their covariance."""
    store = FeatureStore()
    entries = []
    for label, scale in (("park", [1.0, 1.0, 1.0, 1.0]), ("bus", [3.0, 1.0, 1.0, 1.0])):
        for j in range(n_per_class):
            path = f"{label}/{j}.wav"
            add_cepscom(store, path, rng.standard_normal((frames, 4)) * scale)
            entries.append((path, label))
    return store, DatasetManifest(entries=entries, class_names=["park", "bus"])


def fresh_embedding(values, source_id=""):
    return cdl_mod.log_embed(cdl_mod.covariance_descriptor(values, source_id=source_id))


def model_bytes(tmp_path, model):
    path = tmp_path / "model.sfc"
    cdl_mod.save_cdl_model(path, model, "cepscom", ["park", "bus"])
    return path.read_bytes()


class TestComputeOnce:
    def test_run_embeds_each_clip_once(self, mini_dataset, tmp_path, monkeypatch):
        embedded = Counter()
        original = cdl_mod.log_embed

        def counting(desc):
            embedded[desc.source_id] += 1
            return original(desc)

        monkeypatch.setattr(cdl_mod, "log_embed", counting)
        config = PipelineConfig(
            manifest=mini_dataset,
            out_dir=tmp_path / "o",
            train_fraction=0.5,
            weights_folds=2,
            mixtures_plp=2,
            systems=("plp-gmm", "cepscom-cdl"),
            fused=("plp-gmm", "cepscom-cdl"),
        )
        run_pipeline(config)
        # training clips through the CV folds and the final fit, test clips once
        paths = [entry_path for entry_path, _ in load_manifest(mini_dataset).entries]
        assert embedded == Counter(paths)

    def test_kept_embeddings_fit_the_same_model(self, tmp_path):
        store, train = embedding_store(np.random.default_rng(40))
        opts = TrainOptions()
        kept = TrainingSet(store, train)
        estimate_weights(kept, ["cepscom-cdl"], opts, folds=2, seed=0)
        # the final fit centres the matrix the folds filled, in place; the
        # rows must have been left as the clips' own embeddings
        final = fit_system("cepscom-cdl", kept, opts)
        alone = fit_system("cepscom-cdl", TrainingSet(store, train), opts)
        fresh = cdl_mod.fit_cdl(
            cdl_mod.centre_embeddings(np.array(
                [fresh_embedding(clip_features(store, p, "cepscom")) for p, _ in train.entries]
            )),
            train.label_indices(),
            n_classes=2,
        )
        blobs = [model_bytes(tmp_path, model) for model in (final.model, alone.model, fresh)]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_fit_input_embeds_each_clip_once(self, monkeypatch):
        store, train = embedding_store(np.random.default_rng(43))
        embedded = Counter()
        original = cdl_mod.log_embed

        def counting(desc):
            embedded[desc.source_id] += 1
            return original(desc)

        monkeypatch.setattr(cdl_mod, "log_embed", counting)
        kept = TrainingSet(store, train)
        # the final fit's input, asked for twice: the matrix stays held
        first = kept.embeddings("cepscom")
        second = kept.embeddings("cepscom")
        assert embedded == Counter(entry_path for entry_path, _ in train.entries)
        assert second is first

    def test_one_fold_assignment_per_estimate(self, monkeypatch):
        store, train = embedding_store(np.random.default_rng(44))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return stratified_folds(*args, **kwargs)

        monkeypatch.setattr(scenefuse.pipeline, "stratified_folds", counted)
        monkeypatch.setattr(scenefuse.fusion, "stratified_folds", counted)
        estimate_weights(TrainingSet(store, train), ["cepscom-gmm", "cepscom-cdl"],
                         TrainOptions(mixtures_cepstral=2), folds=2, seed=0)
        # every system's folds are the one assignment the estimate made
        assert len(calls) == 1

    def test_the_kept_matrix_cannot_go_stale(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(41)
        store, train = embedding_store(rng)
        opts = TrainOptions()
        kept = TrainingSet(store, train)
        estimate_weights(kept, ["cepscom-cdl"], opts, folds=2, seed=0)
        path = train.entries[0][0]
        # the store refuses to replace a part the clip's kept row was made of
        with pytest.raises(FeatureStoreError, match=f"'rcgcc' features for clip '{path}'"):
            store.add(path, "rcgcc", 5.0 * rng.standard_normal((30, 1)))
        # so the final fit takes the matrix the folds made, embedding nothing again
        embedded = []
        original = cdl_mod.log_embed
        monkeypatch.setattr(
            cdl_mod, "log_embed", lambda desc: embedded.append(desc) or original(desc)
        )
        model = fit_system("cepscom-cdl", kept, opts)
        assert embedded == []
        unkept = fit_system("cepscom-cdl", TrainingSet(store, train), opts)
        assert model_bytes(tmp_path, model.model) == model_bytes(tmp_path, unkept.model)

    def test_scoring_error_names_the_clip(self):
        store, train = embedding_store(np.random.default_rng(42))
        model = fit_system("cepscom-cdl", TrainingSet(store, train), TrainOptions())
        bad = np.ones((30, 4))
        bad[3, 1] = np.nan
        add_cepscom(store, "bus/broken.wav", bad)
        clips = DatasetManifest(entries=[("bus/broken.wav", "bus")], class_names=["park", "bus"])
        with pytest.raises(ValueError, match="'bus/broken.wav'.*non-finite"):
            score_system(model, store, clips)


def fits_on_rows_and_alone(mini_dataset, system_id):
    """The system fitted on a fold's rows of the training set, as the CV
    fits it, and on a training set of the fold's clips alone."""
    train, _ = split_dataset(load_manifest(mini_dataset), 0.5, seed=1)
    store = extract_for_manifest(train, mini_dataset, required_extractors([system_id]), **FAST)
    rows = np.flatnonzero(stratified_folds(train.label_indices(), 2, seed=0) != 0)
    opts = TrainOptions(mixtures_plp=2)
    return (fit_system(system_id, TrainingSet(store, train), opts, rows),
            fit_system(system_id, TrainingSet(store, train.subset(rows)), opts))


def test_a_gmm_fit_on_rows_writes_the_model_of_their_clips_alone(mini_dataset, tmp_path):
    paths = [tmp_path / "rows.sfg", tmp_path / "alone.sfg"]
    for path, model in zip(paths, fits_on_rows_and_alone(mini_dataset, "plp-gmm")):
        save_system_model(path, model)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_a_cdl_fit_on_rows_is_the_fit_on_their_clips_alone(mini_dataset):
    # the rows are centred on the mean of every training clip, the clips
    # alone on their own mean: the same fit, rounded apart in the last bits
    on_rows, alone = fits_on_rows_and_alone(mini_dataset, "cepscom-cdl")
    assert on_rows.class_names == alone.class_names
    for name in ("projection", "class_centroids", "train_mean"):
        got, want = getattr(on_rows.model, name), getattr(alone.model, name)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max()), name


@pytest.fixture(scope="module")
def static_store(mini_dataset):
    manifest = load_manifest(mini_dataset).subset(range(0, 24, 8))
    return manifest, extract_for_manifest(manifest, mini_dataset, EXTRACTOR_NAMES, **FAST)


def test_store_holds_static_columns(static_store):
    _, store = static_store
    widths = {family: values.shape[1] for (_, family), values in store.records.items()}
    assert widths == {"mfcc": 20, "plp": 13, "pncc": 20, "rcgcc": 20, "spcc": 20}


@pytest.mark.parametrize("name", EXTRACTOR_NAMES)
def test_clip_features_derives_deltas_of_the_stored_parts(static_store, name):
    manifest, store = static_store
    parts = CEPSCOM_PARTS if name == "cepscom" else (name,)
    for entry_path, _ in manifest.entries:
        want = np.hstack([
            append_deltas(FeatureMatrix(store.get(entry_path, part)), DELTA_WINDOW).values
            for part in parts
        ])
        got = clip_features(store, entry_path, name)
        assert got.shape[1] == expected_dim(name)
        assert np.array_equal(got, want), entry_path


@pytest.mark.parametrize("frame_len, hop", [(2048, 1024), (512, 256)])
def test_joined_cepscom_deltas_equal_the_per_part_derivation(mini_dataset, frame_len, hop):
    # one derivation over the 80 joined static columns, regrouped per part
    manifest = load_manifest(mini_dataset).subset(range(0, 24, 4))
    store = extract_for_manifest(
        manifest, mini_dataset, ["cepscom"], frame_len=frame_len, hop=hop
    )
    for entry_path, _ in manifest.entries:
        want = np.hstack([
            append_deltas(FeatureMatrix(store.get(entry_path, part)), DELTA_WINDOW).values
            for part in CEPSCOM_PARTS
        ])
        got = clip_features(store, entry_path, "cepscom")
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), entry_path


class TestCepscomRows:
    def test_joined_rows_equal_the_stored_concatenation(self, mini_dataset):
        # the rows equal what version 2 stores held for cepscom: the
        # extracted [mfcc | pncc | rcgcc | spcc] matrices with their deltas,
        # hstacked
        manifest = load_manifest(mini_dataset)
        store = extract_for_manifest(manifest, mini_dataset, ["cepscom"], **FAST)
        assert store.extractors() == ["mfcc", "pncc", "rcgcc", "spcc"]
        for entry_path, _ in manifest.entries[:3]:
            clip = read_wav(resolve_clip_path(mini_dataset, entry_path))
            parts = extract_selected(clip, ["mfcc", "pncc", "rcgcc", "spcc"], **FAST)
            stored = np.hstack([
                append_deltas(parts[n], DELTA_WINDOW).values
                for n in ("mfcc", "pncc", "rcgcc", "spcc")
            ])
            rows = clip_features(store, entry_path, "cepscom")
            assert rows.shape == (stored.shape[0], 240)
            assert np.array_equal(rows, stored)

    def test_parts_of_unequal_length_are_named(self):
        store = FeatureStore()
        for name, frames in zip(CEPSCOM_PARTS, (10, 10, 10, 9)):
            store.add("park/a.wav", name, np.ones((frames, 1)))
        with pytest.raises(ValueError, match=r"clip 'park/a.wav'.*\[10, 10, 10, 9\] frames"):
            clip_features(store, "park/a.wav", "cepscom")

    def test_parts_of_unequal_width_are_named(self):
        store = FeatureStore()
        for name, width in zip(CEPSCOM_PARTS, (1, 1, 1, 2)):
            store.add("park/a.wav", name, np.ones((10, width)))
        with pytest.raises(ValueError, match=r"clip 'park/a.wav'.*\[1, 1, 1, 2\] columns"):
            clip_features(store, "park/a.wav", "cepscom")


@pytest.mark.parametrize("system_id", ["cepscom-gmm", "cepscom-cdl"])
def test_loaded_model_scores_in_the_given_class_order(system_id, tmp_path):
    # the class order given at training: the loaded model scores as the saved one
    store, train = embedding_store(np.random.default_rng(43))
    model = fit_system(system_id, TrainingSet(store, train), TrainOptions(mixtures_cepstral=2))
    path = tmp_path / "model.bin"
    save_system_model(path, model)
    back = load_system_model(path)
    # the model is the system its family and back-end build
    assert (back.system_id, back.class_names) == (system_id, train.class_names)
    assert np.array_equal(
        score_system(back, store, train).values, score_system(model, store, train).values
    )


def test_unnamed_model_no_system_builds_is_rejected(tmp_path):
    store, train = embedding_store(np.random.default_rng(44))
    model = fit_system("cepscom-cdl", TrainingSet(store, train), TrainOptions())
    path = tmp_path / "model.sfc"
    cdl_mod.save_cdl_model(path, model.model, "mfcc", train.class_names)
    with pytest.raises(ValueError, match="no system is built from mfcc features with a cdl"):
        load_system_model(path)


def test_each_system_is_one_family_and_back_end():
    # a model file names its family and back-end, which name its system
    assert len(set(SYSTEMS.values())) == len(SYSTEMS)


def traced_peak(fn, *args, **kwargs):
    """``(result, peak)``: what ``fn`` returns, and the most bytes it held
    at once of what it allocated, numpy buffers included."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_final_cdl_fit_makes_no_copy_of_the_embeddings(
        self, mini_dataset, tmp_path, monkeypatch
    ):
        # the run's final fit, on all 12 training clips, after the CV folds
        # (6 clips each) have embedded every one of them
        original = scenefuse.pipeline.fit_system
        peaks = []

        def traced(system_id, data, opts, rows=None):
            if rows is not None:
                return original(system_id, data, opts, rows)
            model, peak = traced_peak(original, system_id, data, opts)
            peaks.append(peak)
            return model

        monkeypatch.setattr(scenefuse.pipeline, "fit_system", traced)
        config = PipelineConfig(
            manifest=mini_dataset,
            out_dir=tmp_path / "o",
            train_fraction=0.5,
            weights_folds=2,
            systems=("cepscom-cdl",),
            fused=("cepscom-cdl",),
        )
        run_pipeline(config)
        matrix_bytes = 12 * cdl_mod.half_vec_length(240) * 8
        assert len(peaks) == 1
        assert peaks[0] < 0.5 * matrix_bytes

    def test_cdl_fold_fit_makes_no_copy_of_the_rows(self):
        rng = np.random.default_rng(44)
        store = FeatureStore()
        entries = []
        for label, scale in (("park", 1.0), ("bus", 3.0)):
            for j in range(20):
                path = f"{label}/{j}.wav"
                for name in CEPSCOM_PARTS:  # 240 dims, as cepscom has
                    store.add(path, name, scale * rng.standard_normal((30, 20)))
                entries.append((path, label))
        train = DatasetManifest(entries=entries, class_names=["park", "bus"])
        fold_of = stratified_folds(train.label_indices(), 4, seed=0)
        opts = TrainOptions()
        kept = TrainingSet(store, train)
        # the first fold's fit embeds every clip; the second's is traced
        fit_system("cepscom-cdl", kept, opts, np.flatnonzero(fold_of != 0))
        fold = np.flatnonzero(fold_of != 1)
        _, peak = traced_peak(fit_system, "cepscom-cdl", kept, opts, fold)
        d_vec = cdl_mod.half_vec_length(240)
        assert peak < len(fold) * d_vec * 8 // 4

    def test_no_final_gmm_fit_runs_beside_the_kept_matrix(
        self, mini_dataset, tmp_path, monkeypatch
    ):
        matrices, gmm_fits = [], []
        centre = cdl_mod.centre_embeddings

        def remembered(embeddings):
            data = centre(embeddings)
            matrices.append(weakref.ref(data.centred))
            return data

        original = scenefuse.pipeline.fit_system

        def spy(system_id, data, opts, rows=None):
            if rows is None and SYSTEMS[system_id].backend == "gmm":
                gmm_fits.append([ref() is not None for ref in matrices])
            return original(system_id, data, opts, rows)

        monkeypatch.setattr(cdl_mod, "centre_embeddings", remembered)
        monkeypatch.setattr(scenefuse.pipeline, "fit_system", spy)
        run_pipeline(PipelineConfig(
            manifest=mini_dataset,
            out_dir=tmp_path / "o",
            train_fraction=0.5,
            weights_folds=2,
            mixtures_cepstral=4,
            mixtures_plp=2,
            systems=MINI_SYSTEMS,
            fused=MINI_SYSTEMS,
        ))
        # the CV made the matrix once, and no final GMM fit saw it alive
        assert len(matrices) == 1
        assert gmm_fits == [[False], [False]]

    def test_training_stages_see_the_training_clips_only(
        self, mini_dataset, tmp_path, monkeypatch
    ):
        config = mini_config(mini_dataset, tmp_path / "o")
        train, _ = split_dataset(
            load_manifest(mini_dataset), config.train_fraction, config.split_seed
        )
        seen = []  # (what was called, the clips its store held)

        def spy(name, data_at):
            original = getattr(scenefuse.pipeline, name)

            def called(*args, **kwargs):
                seen.append((name, {source_id for source_id, _ in args[data_at].store.records}))
                return original(*args, **kwargs)

            monkeypatch.setattr(scenefuse.pipeline, name, called)

        spy("estimate_weights", 0)
        spy("fit_system", 1)
        run_pipeline(config)
        assert {name for name, _ in seen} == {"estimate_weights", "fit_system"}
        train_paths = {entry_path for entry_path, _ in train.entries}
        for _, clips in seen:
            assert clips == train_paths

    def test_no_more_than_one_test_clip_is_held_at_once(
        self, mini_dataset, tmp_path, monkeypatch
    ):
        config = mini_config(mini_dataset, tmp_path / "o")
        _, test = split_dataset(load_manifest(mini_dataset), config.train_fraction,
                                config.split_seed)
        test_paths = {entry_path for entry_path, _ in test.entries}
        # every store that was written to, while it lives
        stores = weakref.WeakValueDictionary()
        held, scored = [], set()

        def count_held():
            held.append(len({source_id for store in stores.values()
                             for source_id, _ in store.records if source_id in test_paths}))

        add = FeatureStore.add

        def counted_add(store, *args, **kwargs):
            stores[id(store)] = store
            add(store, *args, **kwargs)
            count_held()

        clip_scores = scenefuse.pipeline._clip_scores

        def counted_scores(model, store, entry_path):
            scored.add(entry_path)
            count_held()
            return clip_scores(model, store, entry_path)

        monkeypatch.setattr(FeatureStore, "add", counted_add)
        monkeypatch.setattr(scenefuse.pipeline, "_clip_scores", counted_scores)
        run_pipeline(config)
        # every test clip was scored, and at every store write and every
        # scoring the live stores held the records of one test clip at most
        assert test_paths <= scored
        assert max(held) == 1

    def test_gmm_fit_holds_one_class_matrix_at_a_time(self, mini_dataset):
        manifest = load_manifest(mini_dataset)
        train, _ = split_dataset(manifest, 0.5, seed=1)
        store = extract_for_manifest(train, mini_dataset, CEPSCOM_PARTS, **FAST)
        opts = TrainOptions(mixtures_cepstral=4)
        class_bytes, em_bytes = 0, 0
        for c, class_name in enumerate(train.class_names):
            matrix = np.vstack([
                clip_features(store, entry_path, "cepscom")
                for entry_path, label in train.entries if label == class_name
            ])
            seed = scenefuse.pipeline._gmm_seed(opts.gmm_seed, "cepscom-gmm", c)
            _, peak = traced_peak(fit_gmm, matrix, opts.mixtures_cepstral, seed)
            class_bytes, em_bytes = max(class_bytes, matrix.nbytes), max(em_bytes, peak)
        del matrix
        # one class's frames, what EM allocates on them, and a small margin
        # for one clip's rows as they are written in
        _, peak = traced_peak(fit_system, "cepscom-gmm", TrainingSet(store, train), opts)
        assert peak < class_bytes + em_bytes + class_bytes // 4


MINI_SYSTEMS = ("cepscom-gmm", "plp-gmm", "cepscom-cdl")


def mini_config(manifest, out_dir):
    """A small run of the three default fused systems."""
    return PipelineConfig(
        manifest=manifest,
        out_dir=out_dir,
        train_fraction=0.5,
        weights_folds=2,
        mixtures_cepstral=4,
        mixtures_plp=2,
        systems=MINI_SYSTEMS,
        fused=MINI_SYSTEMS,
    )


@pytest.fixture(scope="module")
def mini_run(mini_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    config = mini_config(mini_dataset, root / "run1")
    return config, run_pipeline(config), root


class TestRunPipeline:
    def test_reports_and_classes(self, mini_run):
        config, result, _ = mini_run
        assert result.class_names == ["rumble", "chime", "drone"]
        assert set(result.reports) == set(MINI_SYSTEMS)
        assert result.fusion_report.system_id == "fusion"
        assert result.fusion_report.n_clips == 12
        # separable classes, so even this tiny setup should mostly work
        assert result.fusion_report.average_accuracy >= 0.5

    def test_artifact_tree(self, mini_run):
        config, result, _ = mini_run
        out = config.out_dir
        expected = [
            "train_manifest.tsv",
            "test_manifest.tsv",
            "weights.csv",
            "summary.txt",
            "models/cepscom-gmm.sfg",
            "models/plp-gmm.sfg",
            "models/cepscom-cdl.sfc",
            "scores/cepscom-gmm.csv",
            "scores/plp-gmm.csv",
            "scores/cepscom-cdl.csv",
            "scores/fusion.csv",
            "reports/cepscom-gmm.txt",
            "reports/plp-gmm.txt",
            "reports/cepscom-cdl.txt",
            "reports/fusion.txt",
        ]
        for rel in expected:
            assert (out / rel).is_file(), rel
        assert result.artifact_paths["out_dir"] == out

    def test_artifacts_parse_back(self, mini_run):
        config, result, _ = mini_run
        out = config.out_dir
        weights = load_weights_csv(out / "weights.csv")
        assert weights.system_ids == list(MINI_SYSTEMS)
        assert np.array_equal(weights.values, result.weights.values)
        (scores,) = load_score_csv(out / "scores" / "plp-gmm.csv")
        assert scores.values.shape == (12, 3)
        train = load_manifest(out / "train_manifest.tsv")
        test = load_manifest(out / "test_manifest.tsv")
        assert len(train) == 12 and len(test) == 12
        assert train.class_names == ["rumble", "chime", "drone"]

    def test_summary_content(self, mini_run):
        config, _, _ = mini_run
        text = (config.out_dir / "summary.txt").read_text()
        assert "clips: 24 (train 12, test 12)" in text
        assert "classes: rumble, chime, drone" in text
        assert "weights method: cv (2 folds)" in text
        assert "fusion" in text

    def test_rerun_reproduces_artifacts_byte_for_byte(self, mini_run):
        config, _, root = mini_run
        from dataclasses import replace

        second = replace(config, out_dir=root / "run2")
        run_pipeline(second)
        first_files = sorted(
            p.relative_to(config.out_dir)
            for p in config.out_dir.rglob("*")
            if p.is_file()
        )
        second_files = sorted(
            p.relative_to(second.out_dir)
            for p in second.out_dir.rglob("*")
            if p.is_file()
        )
        assert first_files == second_files
        for rel in first_files:
            assert (config.out_dir / rel).read_bytes() == (
                second.out_dir / rel
            ).read_bytes(), rel


class TestStageTags:
    def test_config_stage(self, tmp_path):
        with pytest.raises(PipelineError, match=r"\[config\]"):
            run_pipeline(tmp_path / "missing.cfg")

    def test_bad_framing_fails_before_any_file_is_written(self, mini_dataset, tmp_path):
        # a manifest that loads and splits, so the framing is all that is wrong
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {mini_dataset}\nout_dir = out\nhop = 0\n")
        with pytest.raises(
            PipelineError,
            match=rf"\[config\] {re.escape(str(cfg))}: "
                  r"need 0 < hop <= frame_len, got hop=0, frame_len=2048",
        ):
            run_pipeline(cfg)
        assert not (tmp_path / "out").exists()

    def test_load_stage(self, tmp_path):
        config = PipelineConfig(manifest=tmp_path / "nope.tsv", out_dir=tmp_path / "o")
        with pytest.raises(PipelineError, match=r"\[load\]"):
            run_pipeline(config)

    def test_comma_in_the_manifest_fails_before_extraction(self, tmp_path, monkeypatch):
        # the label would get through the cross-validation, then fail the
        # weights file and leave it empty
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(
            f"{label.split(',')[0]}/{j}.wav\t{label}\n"
            for label in ("park", "rumble,low") for j in range(4)
        ))

        def no_extraction(*args, **kwargs):
            raise AssertionError("extraction reached")

        monkeypatch.setattr(scenefuse.pipeline, "extract_for_manifest", no_extraction)
        config = PipelineConfig(manifest=manifest, out_dir=tmp_path / "o")
        with pytest.raises(
            PipelineError,
            match=r"\[load\] .*manifest.tsv:5: label 'rumble,low' may not contain commas",
        ):
            run_pipeline(config)

    def test_split_stage(self, mini_dataset, tmp_path):
        config = PipelineConfig(
            manifest=mini_dataset, out_dir=tmp_path / "o", train_fraction=0.0
        )
        with pytest.raises(PipelineError, match=r"\[split\]"):
            run_pipeline(config)

    def test_weights_stage(self, mini_dataset, tmp_path):
        # 4 train clips per class cannot fill 13 folds
        config = PipelineConfig(
            manifest=mini_dataset,
            out_dir=tmp_path / "o",
            train_fraction=0.5,
            weights_folds=13,
            systems=("mfcc-gmm",),
            fused=("mfcc-gmm",),
            mixtures_cepstral=2,
        )
        with pytest.raises(
            PipelineError,
            match=r"\[weights\] class 'rumble' has 4 training clips, fewer than 13 folds",
        ):
            run_pipeline(config)

    @pytest.mark.parametrize("damage", ["truncated", "too short"])
    def test_a_bad_test_clip_fails_in_extract_before_any_fit(
        self, damage, mini_dataset, tmp_path, monkeypatch
    ):
        # classify extracts the test clips; the extract stage still reads
        # each of them first
        data = tmp_path / "data"
        shutil.copytree(mini_dataset.parent, data)
        config = mini_config(data / mini_dataset.name, tmp_path / "o")
        _, test = split_dataset(load_manifest(config.manifest), config.train_fraction,
                                config.split_seed)
        entry_path = test.entries[-1][0]
        wav = resolve_clip_path(config.manifest, entry_path)
        if damage == "truncated":
            wav.write_bytes(wav.read_bytes()[:-100])
            match = rf"\[extract\] .*{re.escape(entry_path)}: .*'data' chunk declares"
        else:
            # one frame: enough for mfcc, not for cepscom's spcc
            clip = read_wav(wav)
            write_wav(wav, replace(clip, samples=clip.samples[:2048]))
            match = (rf"\[extract\] clip '{re.escape(entry_path)}' has 2048 samples.*"
                     r"spcc and cepscom need at least 2 frames")

        def no_fit(*args, **kwargs):
            raise AssertionError("a system was fitted")

        monkeypatch.setattr(scenefuse.pipeline, "fit_system", no_fit)
        with pytest.raises(PipelineError, match=match):
            run_pipeline(config)
