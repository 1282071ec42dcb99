"""Synthetic image+text dataset with controllable modality informativeness.

Classes are defined by (pattern, keyword) pairs. A modality's informativeness
sets how many classes it identifies uniquely: the remaining classes share a
pattern (or keyword) pairwise, so no lookup rule can separate them from that
modality alone. Pattern-unique and keyword-unique classes are complementary
subsets, which makes the fused pair fully identifying whenever the two
informativeness fractions cover all classes.

The generator certifies this structure before any training run by scoring
exhaustive lookup-table classifiers over its own assignment tables.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoders import PAD_ID, UNK_ID, ImageBatch, TextBatch
from .fields import ConfigError, bounded, field_problems, from_dict, is_int

MIN_TEXT_WIDTH = 3                    # a text batch is padded to this many tokens or more
SPLITS = ("train", "val", "test")     # the splits a sample record may name


class DatasetError(ValueError):
    pass


class DatasetIOError(IOError):
    pass


@dataclass
class SyntheticSpec:
    n_classes: int = bounded(4, lo=2, hi=1000)
    samples_per_class: int = bounded(60, lo=1, hi=10_000)
    image_size: int = bounded(32, lo=1, hi=1024)
    patch_size: int = bounded(8, lo=1, hi=1024)
    channels: int = bounded(1, lo=1, hi=16)
    vocab_size: int = bounded(32, lo=1, hi=100_000)
    sentence_len: tuple[int, int] = bounded((4, 8), lo=1, hi=4096,
                                            label="sentence_len entries")
    image_informativeness: float = bounded(0.5, lo=0, hi=1)
    text_informativeness: float = bounded(0.5, lo=0, hi=1)
    noise_level: float = bounded(0.05, lo=0, hi=1)
    seed: int = bounded(0, lo=0)
    split_ratios: tuple[float, float, float] = bounded(
        (0.6, 0.1, 0.3), lo=0, hi=1, label="split_ratios entries")

    def validate(self):
        problems = field_problems(self)
        if problems:
            return problems
        if self.image_size % self.patch_size:
            problems.append(
                f"patch_size {self.patch_size} does not divide image_size {self.image_size}")
        if self.sentence_len[1] < self.sentence_len[0]:
            problems.append(f"sentence_len range invalid: {self.sentence_len}")
        n_train, _n_val, n_test = split_counts(self)
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            problems.append(f"split ratios must sum to 1, got {self.split_ratios}")
        elif min(n_train, n_test) < 1:
            problems.append(
                f"split ratios {self.split_ratios} leave a class without a train or "
                f"test sample at {self.samples_per_class} samples per class")
        # keyword ids + a handful of filler words must fit the vocabulary
        if self.vocab_size < 2 + self.n_classes + 4:
            problems.append(
                f"vocab_size {self.vocab_size} too small for {self.n_classes} keywords")
        # each size is capped on its own; their products have budgets: 1 GiB
        # of float32 images and 2**24 tokens, and a spec over both is told of
        # the images
        n_samples = self.n_classes * self.samples_per_class
        image_bytes = n_samples * self.image_size ** 2 * self.channels * 4
        n_tokens = n_samples * self.sentence_len[1]
        if image_bytes > 2**30:
            problems.append(
                f"images would take {image_bytes / 2**30:.1f} GiB, over the 1 GiB budget "
                f"(n_classes x samples_per_class x image_size^2 x channels x 4 bytes)")
        elif n_tokens > 2**24:
            problems.append(
                f"token lists could hold {n_tokens:,} tokens, over the budget of 2**24 "
                f"(n_classes x samples_per_class x sentence_len[1])")
        return problems


def split_counts(spec):
    """Per-class (train, val, test) sample counts: the train and val shares
    are rounded, test takes the rest."""
    per = spec.samples_per_class
    n_train = int(round(spec.split_ratios[0] * per))
    n_val = int(round(spec.split_ratios[1] * per))
    return n_train, n_val, per - n_train - n_val


@dataclass
class Sample:
    image: np.ndarray     # [H, W, C] float32 in [0, 1]
    tokens: list
    label: int
    split: str


@dataclass
class Dataset:
    spec: SyntheticSpec
    samples: list
    vocab: dict
    pattern_of: list      # class -> pattern id
    keyword_of: list      # class -> keyword token id
    self_check: dict = field(default_factory=dict)

    def split(self, name):
        return [s for s in self.samples if s.split == name]

    @property
    def n_classes(self):
        return self.spec.n_classes


# ---------------------------------------------------------------------------
# class/group assignment
# ---------------------------------------------------------------------------

def _assign_groups(n_classes, n_unique, from_front):
    """Group labels for one modality: ``n_unique`` classes get their own
    group, the rest share groups pairwise (a lone remainder joins the last
    pair so it can never become accidentally unique)."""
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
            # a lone leftover joins the previous group (shared or unique)
            # so no class sneaks back to being identifiable
            group[chunk[0]] = gid - 1
            continue
        for c in chunk:
            group[c] = gid
        gid += 1
    return group


def _lookup_accuracy(groups, counts):
    """Accuracy of the best deterministic group->class lookup rule."""
    by_group = {}
    for c, g in enumerate(groups):
        by_group.setdefault(g, []).append(c)
    correct = sum(max(counts[c] for c in members) for members in by_group.values())
    return correct / sum(counts)


def _self_check(spec, pattern_groups, keyword_groups):
    counts = [spec.samples_per_class] * spec.n_classes
    pair_groups = [f"{p}/{k}" for p, k in zip(pattern_groups, keyword_groups)]
    image_acc = _lookup_accuracy(pattern_groups, counts)
    text_acc = _lookup_accuracy(keyword_groups, counts)
    both_acc = _lookup_accuracy(pair_groups, counts)

    img_unrecoverable = sum(pattern_groups.count(g) > 1 for g in pattern_groups)
    txt_unrecoverable = sum(keyword_groups.count(g) > 1 for g in keyword_groups)
    n = spec.n_classes
    if img_unrecoverable < (1.0 - spec.image_informativeness) * n - 1e-9:
        raise DatasetError("generator self-check failed: image modality too informative")
    if txt_unrecoverable < (1.0 - spec.text_informativeness) * n - 1e-9:
        raise DatasetError("generator self-check failed: text modality too informative")
    return {
        "image_rule_accuracy": image_acc,
        "text_rule_accuracy": text_acc,
        "bimodal_rule_accuracy": both_acc,
        "image_unrecoverable_classes": int(img_unrecoverable),
        "text_unrecoverable_classes": int(txt_unrecoverable),
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_pattern(pattern_id, size):
    """Deterministic binary pattern on a size x size grid."""
    i, j = np.mgrid[0:size, 0:size]
    variant = pattern_id % 8
    period = max(2, size // 4 // (1 + pattern_id // 8))
    half = period // 2
    if variant == 0:
        return ((i // half) % 2).astype(np.float64)
    if variant == 1:
        return ((j // half) % 2).astype(np.float64)
    if variant == 2:
        return (((i // half) + (j // half)) % 2).astype(np.float64)
    if variant == 3:
        return (((i + j) // half) % 2).astype(np.float64)
    if variant == 4:
        q = size // 4
        return ((i >= q) & (i < size - q) & (j >= q) & (j < size - q)).astype(np.float64)
    if variant == 5:
        r = np.sqrt((i - size / 2 + 0.5) ** 2 + (j - size / 2 + 0.5) ** 2)
        return ((r > size / 6) & (r < size / 3)).astype(np.float64)
    if variant == 6:
        third = size // 3
        return ((abs(i - size // 2) < third // 2) | (abs(j - size // 2) < third // 2)
                ).astype(np.float64)
    return (((i % period) < half // 2 + 1) & ((j % period) < half // 2 + 1)
            ).astype(np.float64)


def _render_sample_image(base, spec, rng):
    """One noisy sample of a class whose binary pattern is ``base``."""
    fg = rng.uniform(0.75, 1.0)
    bg = rng.uniform(0.05, 0.2)
    img = bg + (fg - bg) * base
    if spec.noise_level > 0:
        corrupt = rng.random(img.shape) < spec.noise_level
        img = np.where(corrupt, rng.random(img.shape), img)
    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return np.repeat(img[:, :, None], spec.channels, axis=2)


def _sample_tokens(keyword_id, spec, vocab_lo, vocab_hi, rng):
    lo, hi = spec.sentence_len
    length = int(rng.integers(lo, hi + 1))
    tokens = list(rng.integers(vocab_lo, vocab_hi, length))
    tokens[int(rng.integers(0, length))] = keyword_id
    if spec.noise_level > 0:
        for t in range(length):
            if rng.random() < spec.noise_level:
                tokens[t] = int(rng.integers(2, vocab_hi))
    return [int(t) for t in tokens]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def build_vocab(spec, keyword_groups):
    n_keywords = len(set(keyword_groups))
    vocab = {"<pad>": PAD_ID, "<unk>": UNK_ID}
    for k in range(n_keywords):
        vocab[f"kw{k}"] = 2 + k
    filler_lo = 2 + n_keywords
    for w in range(spec.vocab_size - filler_lo):
        vocab[f"w{w}"] = filler_lo + w
    return vocab, filler_lo


def generate(spec: SyntheticSpec) -> Dataset:
    problems = spec.validate()
    if problems:
        raise DatasetError("invalid synthetic spec: " + "; ".join(problems))
    n = spec.n_classes
    img_unique = int(np.floor(spec.image_informativeness * n))
    txt_unique = int(np.floor(spec.text_informativeness * n))
    pattern_groups = _assign_groups(n, img_unique, from_front=True)
    keyword_groups = _assign_groups(n, txt_unique, from_front=False)
    self_check = _self_check(spec, pattern_groups, keyword_groups)

    vocab, filler_lo = build_vocab(spec, keyword_groups)
    keyword_ids = {g: 2 + i for i, g in enumerate(sorted(set(keyword_groups)))}
    keyword_of = [keyword_ids[g] for g in keyword_groups]

    per = spec.samples_per_class
    n_train, n_val, _n_test = split_counts(spec)

    samples = []
    for label in range(n):
        # the pattern depends only on the class and draws no randomness
        base = render_pattern(pattern_groups[label], spec.image_size)
        for i in range(per):
            rng = np.random.default_rng([spec.seed, label, i])
            image = _render_sample_image(base, spec, rng)
            tokens = _sample_tokens(keyword_of[label], spec, filler_lo,
                                    spec.vocab_size, rng)
            split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
            samples.append(Sample(image=image, tokens=tokens, label=label, split=split))

    return Dataset(spec=spec, samples=samples, vocab=vocab,
                   pattern_of=pattern_groups, keyword_of=keyword_of,
                   self_check=self_check)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def make_text_batch(samples, vocab_size) -> TextBatch:
    width = max(MIN_TEXT_WIDTH, max(len(s.tokens) for s in samples))
    ids = np.full((len(samples), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(samples), width), dtype=bool)
    for r, s in enumerate(samples):
        ids[r, :len(s.tokens)] = s.tokens
        mask[r, :len(s.tokens)] = True
    return TextBatch(token_ids=ids, pad_mask=mask, vocab_size=vocab_size)


def make_image_batch(samples) -> ImageBatch:
    return ImageBatch(np.stack([s.image for s in samples]).astype(np.float32, copy=False))


def labels_of(samples):
    return np.array([s.label for s in samples], dtype=np.int64)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    offset = crc = 0
    with open(os.path.join(out_dir, "images.bin"), "wb") as fh:
        for s in ds.samples:
            raw = np.ascontiguousarray(s.image.astype("<f4")).tobytes()
            records.append({"tokens": s.tokens, "label": s.label, "split": s.split,
                            "offset": offset, "length": len(raw)})
            fh.write(raw)
            offset += len(raw)
            crc = zlib.crc32(raw, crc)
    doc = {
        "spec": asdict(ds.spec),
        "vocab": ds.vocab,
        "pattern_of": ds.pattern_of,
        "keyword_of": ds.keyword_of,
        "self_check": ds.self_check,
        "image_shape": [ds.spec.image_size, ds.spec.image_size, ds.spec.channels],
        "samples": records,
        "images_crc32": crc,
    }
    with open(os.path.join(out_dir, "dataset.json"), "w") as fh:
        json.dump(doc, fh)
    # the vocabulary also ships as a standalone word -> id file
    with open(os.path.join(out_dir, "vocab.json"), "w") as fh:
        json.dump(ds.vocab, fh, indent=1)


# dataset.json's top-level fields and the checks of a sample record's fields
_DOC_FIELDS = {"spec": dict, "vocab": dict, "pattern_of": list, "keyword_of": list,
               "self_check": dict, "image_shape": list, "samples": list,
               "images_crc32": int}
_RECORD_FIELDS = {"offset": is_int, "length": is_int, "label": is_int,
                  "split": lambda v: isinstance(v, str),
                  "tokens": lambda v: isinstance(v, list) and all(map(is_int, v))}


def _record_problem(rec, spec):
    """Why the model cannot consume a well-typed sample record, or None."""
    tokens = rec["tokens"]
    if not 0 <= rec["label"] < spec.n_classes:
        return f"label {rec['label']} outside [0, {spec.n_classes})"
    if rec["split"] not in SPLITS:
        return f"split {rec['split']!r} is not one of {SPLITS}"
    if not 1 <= len(tokens) <= spec.sentence_len[1]:
        return f"{len(tokens)} tokens, not 1 to {spec.sentence_len[1]}"
    if not all(0 <= t < spec.vocab_size for t in tokens):
        return f"token ids {tokens} not all in [0, {spec.vocab_size})"
    return None


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory back.

    Anything that does not describe a whole dataset raises
    ``DatasetIOError``: an unreadable file, a ``dataset.json`` that is not a
    JSON object with the fields ``save_dataset`` writes, an ``images.bin``
    whose ``zlib.crc32`` is not the recorded ``images_crc32``, an embedded spec
    that ``fields.from_dict`` rejects or whose ``validate`` reports a
    problem, a vocabulary whose length is not the spec's ``vocab_size`` (the
    model's word embedding is sized from it), an ``image_shape`` other than
    the spec's, a sample record without an integer
    ``offset``/``length``/``label``, a token list or a ``split`` string, a
    record the model cannot consume (a label outside the spec's classes, a
    split not in ``SPLITS``, an empty token list or one longer than
    ``sentence_len`` allows, a token id outside the vocabulary), image bytes
    that do not fit the record, a pixel value outside [0, 1] or not finite
    (the encoders read pixels in [0, 1]), or no ``train`` or no ``test``
    record (training would take no step, evaluation would read nothing).
    """
    try:
        with open(os.path.join(in_dir, "dataset.json")) as fh:
            doc = json.load(fh)
        with open(os.path.join(in_dir, "images.bin"), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DatasetIOError(f"unreadable dataset at {in_dir}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise DatasetIOError(f"corrupt dataset.json at {in_dir}: {exc}") from exc
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(k), t) for k, t in _DOC_FIELDS.items())):
        raise DatasetIOError(
            f"corrupt dataset.json at {in_dir}: needs a JSON object with fields "
            + ", ".join(f"{k} ({t.__name__})" for k, t in _DOC_FIELDS.items()))
    if zlib.crc32(blob) != doc["images_crc32"]:
        raise DatasetIOError(f"images.bin at {in_dir} fails its crc32 check")
    try:
        spec = from_dict(SyntheticSpec(), doc["spec"])
    except ConfigError as exc:
        raise DatasetIOError(f"corrupt spec in {in_dir}/dataset.json: {exc}") from exc
    problems = spec.validate()
    if problems:
        raise DatasetIOError(f"invalid spec in {in_dir}/dataset.json: {'; '.join(problems)}")
    if len(doc["vocab"]) != spec.vocab_size:
        raise DatasetIOError(
            f"dataset.json at {in_dir} has {len(doc['vocab'])} vocabulary words, "
            f"its spec's vocab_size is {spec.vocab_size}")
    shape = (spec.image_size, spec.image_size, spec.channels)
    if tuple(doc["image_shape"]) != shape:
        raise DatasetIOError(
            f"image_shape {doc['image_shape']!r} in {in_dir} does not match its spec")
    expected = int(np.prod(shape)) * 4
    samples = []
    for i, rec in enumerate(doc["samples"]):
        if not (isinstance(rec, dict)
                and all(k in rec and ok(rec[k]) for k, ok in _RECORD_FIELDS.items())):
            raise DatasetIOError(
                f"corrupt sample record {i}: needs integer offset, length and label, "
                f"a token list and a split name, got {rec!r}")
        problem = _record_problem(rec, spec)
        if problem:
            raise DatasetIOError(f"sample record {i} in {in_dir}: {problem}")
        start, length = rec["offset"], rec["length"]
        if start < 0 or length != expected or start + length > len(blob):
            raise DatasetIOError(
                f"corrupt image record at offset {start}: length {length}, "
                f"file has {len(blob)} bytes")
        img = np.frombuffer(blob, dtype="<f4", count=length // 4, offset=start)
        samples.append(Sample(image=img.reshape(shape).astype(np.float32),
                              tokens=list(rec["tokens"]), label=rec["label"],
                              split=rec["split"]))
    missing = [name for name in ("train", "test") if all(s.split != name for s in samples)]
    if missing:
        raise DatasetIOError(f"dataset at {in_dir} has no {' and no '.join(missing)} records")
    pixels = np.stack([s.image for s in samples])
    bad = ~((pixels >= 0.0) & (pixels <= 1.0))      # NaN fails both
    if bad.any():
        first = int(np.argmax(bad.reshape(len(samples), -1).any(axis=1)))
        raise DatasetIOError(
            f"images.bin at {in_dir} has {int(bad.sum())} pixel values outside "
            f"[0, 1] or not finite, the first in sample record {first}")
    return Dataset(spec=spec, samples=samples, vocab=dict(doc["vocab"]),
                   pattern_of=list(doc["pattern_of"]),
                   keyword_of=list(doc["keyword_of"]),
                   self_check=dict(doc["self_check"]))
