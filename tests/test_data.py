import json
import math
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mmfusion.data import (DatasetIOError, SyntheticSpec, _assign_groups, _unsampled,
                           generate, load_dataset, make_image_batch, make_text_batch,
                           save_dataset)
from mmfusion.fields import ConfigError


def tiny_spec(**kw):
    base = dict(n_classes=4, samples_per_class=10, image_size=8, patch_size=4,
                vocab_size=16, sentence_len=(4, 6), noise_level=0.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_deterministic_regeneration(self):
        a = generate(tiny_spec())
        b = generate(tiny_spec())
        for sa, sb in zip(a.samples, b.samples):
            assert sa.tokens == sb.tokens
            assert sa.label == sb.label
            assert np.array_equal(sa.image, sb.image)

    def test_full_informativeness_gives_perfect_unimodal_rules(self):
        ds = generate(tiny_spec(image_informativeness=1.0, text_informativeness=1.0))
        assert ds.self_check["image_rule_accuracy"] == 1.0
        assert ds.self_check["text_rule_accuracy"] == 1.0

    def test_half_informativeness_caps_unimodal_rules(self):
        ds = generate(tiny_spec())
        assert ds.self_check["image_rule_accuracy"] <= 0.75
        assert ds.self_check["text_rule_accuracy"] <= 0.75
        assert ds.self_check["bimodal_rule_accuracy"] == 1.0
        assert ds.self_check["image_unrecoverable_classes"] == 2
        assert ds.self_check["text_unrecoverable_classes"] == 2

    def test_splits_are_stratified_and_disjoint(self):
        ds = generate(tiny_spec())
        for label in range(4):
            rows = [s for s in ds.samples if s.label == label]
            by_split = {name: sum(s.split == name for s in rows)
                        for name in ("train", "val", "test")}
            assert by_split == {"train": 6, "val": 1, "test": 3}
        assert len(ds.split("train")) + len(ds.split("val")) + len(ds.split("test")) \
            == len(ds.samples)

    def test_pixels_in_range_and_tokens_in_vocab(self):
        ds = generate(tiny_spec(noise_level=0.3))
        for s in ds.samples:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert all(0 <= t < ds.spec.vocab_size for t in s.tokens)

    def test_keyword_present_without_noise(self):
        ds = generate(tiny_spec())
        for s in ds.samples:
            assert ds.keyword_of[s.label] in s.tokens

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigError, match="vocab"):
            generate(tiny_spec(vocab_size=6))

    def test_odd_class_counts_keep_modalities_ambiguous(self):
        ds = generate(tiny_spec(n_classes=5, image_informativeness=0.8,
                                text_informativeness=0.4))
        assert ds.self_check["image_unrecoverable_classes"] >= 1
        assert ds.self_check["text_unrecoverable_classes"] >= 3


def assign_groups_reference(n_classes, n_unique, from_front):
    """The group assignment as a loop: unique groups first, then pairs, and
    a lone leftover joins the group before it."""
    order = list(range(n_classes)) if from_front else list(range(n_classes))[::-1]
    group = [0] * n_classes
    gid = 0
    for c in order[:n_unique]:
        group[c] = gid
        gid += 1
    shared = order[n_unique:]
    while shared:
        chunk, shared = shared[:2], shared[2:]
        if len(chunk) == 1:
            group[chunk[0]] = gid - 1
            continue
        for c in chunk:
            group[c] = gid
        gid += 1
    return group


def test_group_assignment_matches_the_loop_reference():
    for n in range(2, 70):
        for n_unique in range(n + 1):
            for from_front in (True, False):
                got = _assign_groups(n, n_unique, from_front)
                assert got.tolist() == assign_groups_reference(n, n_unique, from_front)


class TestCoverage:
    """Fractions i and j cover n classes when floor(i*n) + floor(j*n) >= n;
    the (pattern, keyword) pair then identifies every class."""

    def test_two_classes_each_unique_in_one_modality_are_rejected(self):
        # one class is unique by pattern, the other by keyword, and each
        # leftover joins the other's group: both share one pattern and keyword
        with pytest.raises(ConfigError, match="same pattern and keyword"):
            generate(tiny_spec(n_classes=2))
        assert generate(tiny_spec(n_classes=2, image_informativeness=1.0)) \
            .self_check["bimodal_rule_accuracy"] == 1.0

    def test_saved_spec_in_the_rejected_family_fails_to_load(self, tmp_path):
        save_dataset(generate(tiny_spec(n_classes=2, image_informativeness=1.0)), tmp_path)
        doc = json.loads((tmp_path / "dataset.json").read_text())
        doc["spec"]["image_informativeness"] = 0.5
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetIOError, match="invalid spec.*same pattern and keyword"):
            load_dataset(tmp_path)

    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(2, 1000), image=st.floats(0, 1), text=st.floats(0, 1))
    @example(n=2, image=0.5, text=0.5)
    def test_every_valid_spec_keeps_its_certificate(self, n, image, text):
        spec = SyntheticSpec(n_classes=n, vocab_size=n + 6, image_informativeness=image,
                             text_informativeness=text)
        assume(not spec.validate())
        check = _unsampled(spec).self_check     # the self-check raises no DatasetError
        assert check["image_unrecoverable_classes"] >= (1 - image) * n - 1e-9
        assert check["text_unrecoverable_classes"] >= (1 - text) * n - 1e-9
        if math.floor(image * n) + math.floor(text * n) >= n:
            assert check["bimodal_rule_accuracy"] == 1.0


class TestBatching:
    def test_text_batch_pads_to_min_three(self):
        ds = generate(tiny_spec())
        short = ds.samples[0]
        short.tokens = short.tokens[:1]
        batch = make_text_batch([short], ds.spec.vocab_size)
        assert batch.token_ids.shape == (1, 3)
        assert batch.pad_mask.tolist() == [[True, False, False]]

    def test_image_batch_stacks(self):
        ds = generate(tiny_spec())
        batch = make_image_batch(ds.samples[:5])
        assert batch.shape == (5, 8, 8, 1) and batch.dtype == np.float32


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        ds = generate(tiny_spec(samples_per_class=10))
        save_dataset(ds, tmp_path)
        assert_same_dataset(load_dataset(tmp_path), ds)

    def test_only_records_and_pixels_are_stored(self, tmp_path):
        save_dataset(generate(tiny_spec()), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.json", "images.bin"]
        doc = json.loads((tmp_path / "dataset.json").read_text())
        assert list(doc) == ["spec", "samples", "images_crc32"]
        assert all(list(rec) == ["tokens", "label", "split"] for rec in doc["samples"])

    @pytest.mark.parametrize("spec", [tiny_spec(), tiny_spec(n_classes=5, channels=3,
                                                             noise_level=0.3)])
    def test_dataset_in_the_older_layout_loads_the_same(self, tmp_path, spec):
        # datasets were once written with their vocabulary, class tables,
        # self-check, image shape and per-record image offsets, and with a
        # vocab.json beside them; the loader reads past all of it
        ds = generate(spec)
        save_dataset(ds, tmp_path)
        doc = json.loads((tmp_path / "dataset.json").read_text())
        size = spec.image_size ** 2 * spec.channels * 4
        for i, rec in enumerate(doc["samples"]):
            rec.update(offset=i * size, length=size)
        old = {"spec": doc["spec"], "vocab": ds.vocab, "pattern_of": ds.pattern_of,
               "keyword_of": ds.keyword_of, "self_check": ds.self_check,
               "image_shape": [spec.image_size, spec.image_size, spec.channels],
               "samples": doc["samples"], "images_crc32": doc["images_crc32"]}
        (tmp_path / "dataset.json").write_text(json.dumps(old))
        (tmp_path / "vocab.json").write_text(json.dumps(ds.vocab, indent=1))
        assert_same_dataset(load_dataset(tmp_path), ds)

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        save_dataset(generate(tiny_spec()), tmp_path)
        blob = bytearray((tmp_path / "images.bin").read_bytes())
        blob[len(blob) // 2] ^= 1
        (tmp_path / "images.bin").write_bytes(bytes(blob))
        with pytest.raises(DatasetIOError, match="crc32"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("crc", [None, "0", 1.5])
    def test_dataset_without_an_integer_checksum_is_rejected(self, tmp_path, crc):
        import json
        save_dataset(generate(tiny_spec()), tmp_path)
        doc = json.loads((tmp_path / "dataset.json").read_text())
        if crc is None:     # a dataset written before checksums
            del doc["images_crc32"]
        else:
            doc["images_crc32"] = crc
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetIOError, match="images_crc32"):
            load_dataset(tmp_path)

    def test_manifest_count_matches_binary(self, tmp_path):
        ds = generate(tiny_spec())
        save_dataset(ds, tmp_path)
        import json
        doc = json.loads((tmp_path / "dataset.json").read_text())
        blob = (tmp_path / "images.bin").read_bytes()
        per_image = 8 * 8 * 1 * 4
        assert len(blob) == per_image * len(doc["samples"])


@st.composite
def small_specs(draw):
    patch = draw(st.sampled_from([1, 2, 4]))
    n_classes = draw(st.integers(2, 6))
    shortest = draw(st.integers(1, 5))
    spec = SyntheticSpec(
        n_classes=n_classes, samples_per_class=draw(st.integers(1, 6)),
        image_size=patch * draw(st.integers(1, 3)), patch_size=patch,
        channels=draw(st.integers(1, 3)),
        vocab_size=draw(st.integers(n_classes + 6, n_classes + 30)),
        sentence_len=(shortest, shortest + draw(st.integers(0, 4))),
        image_informativeness=draw(st.floats(0, 1)),
        text_informativeness=draw(st.floats(0, 1)),
        noise_level=draw(st.sampled_from([0.0, 0.05, 0.5])),
        seed=draw(st.integers(0, 2**32)),
        split_ratios=draw(st.sampled_from([(0.6, 0.1, 0.3), (0.5, 0.0, 0.5),
                                           (0.4, 0.2, 0.4)])))
    assume(not spec.validate())
    return spec


@settings(deadline=None, max_examples=40)
@given(spec=small_specs())
def test_saved_dataset_loads_as_generated_and_saves_the_same_bytes(spec):
    """What a saved dataset leaves out, its spec rebuilds: the loaded
    dataset equals the generated one, and saving it again writes both files
    byte for byte."""
    ds = generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_dataset(ds, first)
        back = load_dataset(first)
        assert_same_dataset(back, ds)
        save_dataset(back, second)
        for name in ("dataset.json", "images.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def assert_same_dataset(a, b):
    assert (a.spec, a.vocab, a.pattern_of, a.keyword_of, a.self_check) \
        == (b.spec, b.vocab, b.pattern_of, b.keyword_of, b.self_check)
    assert len(a.samples) == len(b.samples)
    for x, y in zip(a.samples, b.samples):
        assert (x.tokens, x.label, x.split) == (y.tokens, y.label, y.split)
        assert x.image.dtype == y.image.dtype and x.image.shape == y.image.shape
        assert x.image.tobytes() == y.image.tobytes()
