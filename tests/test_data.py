import numpy as np
import numpy.testing as npt
import pytest

from mmfusion.data import (DatasetError, DatasetIOError, SyntheticSpec,
                           generate, load_dataset, make_image_batch,
                           make_text_batch, save_dataset)


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
        with pytest.raises(DatasetError, match="vocab"):
            generate(tiny_spec(vocab_size=6))

    def test_odd_class_counts_keep_modalities_ambiguous(self):
        ds = generate(tiny_spec(n_classes=5, image_informativeness=0.8,
                                text_informativeness=0.4))
        assert ds.self_check["image_unrecoverable_classes"] >= 1
        assert ds.self_check["text_unrecoverable_classes"] >= 3


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
        batch = make_image_batch(ds.samples[:5], ds.spec.patch_size)
        assert batch.pixels.shape == (5, 8, 8, 1)


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        ds = generate(tiny_spec(samples_per_class=10))
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.spec == ds.spec
        assert back.vocab == ds.vocab
        assert len(back.samples) == len(ds.samples)
        for a, b in zip(ds.samples, back.samples):
            assert a.tokens == b.tokens
            assert a.label == b.label
            assert a.split == b.split
            assert a.image.tobytes() == b.image.tobytes()

    def test_tampered_offset_reports_corruption(self, tmp_path):
        import json
        ds = generate(tiny_spec())
        save_dataset(ds, tmp_path)
        doc = json.loads((tmp_path / "dataset.json").read_text())
        doc["samples"][-1]["offset"] += 64
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetIOError, match="offset"):
            load_dataset(tmp_path)

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

    @pytest.mark.parametrize("change", [-1, 5000])
    def test_vocabulary_not_the_spec_size_is_rejected(self, tmp_path, change):
        # the model's word embedding is sized from the vocabulary, the
        # parameter budget from the spec's vocab_size
        import json
        save_dataset(generate(tiny_spec()), tmp_path)
        doc = json.loads((tmp_path / "dataset.json").read_text())
        vocab = doc["vocab"]
        if change < 0:
            vocab.popitem()
        else:
            vocab.update({f"extra{i}": len(vocab) + i for i in range(change)})
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetIOError, match="vocab_size is 16"):
            load_dataset(tmp_path)

    def test_manifest_count_matches_binary(self, tmp_path):
        ds = generate(tiny_spec())
        save_dataset(ds, tmp_path)
        import json
        doc = json.loads((tmp_path / "dataset.json").read_text())
        blob = (tmp_path / "images.bin").read_bytes()
        per_image = 8 * 8 * 1 * 4
        assert len(blob) == per_image * len(doc["samples"])
