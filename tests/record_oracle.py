"""Slow reference record path: instance -> padded example -> feature dict -> framed bytes.

This is the three-step write path corpusprep shipped before
``pretrain.example_payload`` encoded an instance straight to payload bytes,
kept only as the oracle that ``serialize_example`` must match byte for byte.
``serialize`` pads an instance into a ``SerializedExample`` (with the same
length, mask-budget and id checks), ``payload`` turns that into a
name -> (kind, values) dict for ``codec_oracle.encode_example``, and
``record`` frames it with ``codec_oracle.frame_record``.  Only the feature
names and the example type come from ``corpusprep``.
"""

from __future__ import annotations

import codec_oracle

from corpusprep.bpe import PAD_ID, Vocab
from corpusprep.config import GenerationConfig
from corpusprep.errors import IdOutOfRange
from corpusprep.pretrain import FEATURE_ORDER, PretrainingInstance, SerializedExample, masked_budget


def serialize(
    instance: PretrainingInstance, vocab: Vocab, config: GenerationConfig
) -> SerializedExample:
    """Pad every list of the instance to its fixed length."""
    length = config.max_seq_length
    budget = masked_budget(length, config.masked_lm_prob)
    ids = tuple(instance.tokens)
    if len(ids) > length:
        raise ValueError(f"instance of {len(ids)} tokens exceeds {length}")
    for idx in (min(ids), max(ids), *instance.masked_labels):
        if not 0 <= idx < len(vocab):
            raise IdOutOfRange(f"id {idx} outside vocabulary of {len(vocab)} pieces")
    pad = length - len(ids)
    mask_pad = budget - len(instance.masked_positions)
    if mask_pad < 0:
        raise ValueError(f"{len(instance.masked_positions)} masked positions exceed {budget}")
    return SerializedExample(
        input_ids=ids + (PAD_ID,) * pad,
        input_mask=(1,) * len(ids) + (0,) * pad,
        segment_ids=tuple(instance.segment_ids) + (0,) * pad,
        masked_lm_positions=tuple(instance.masked_positions) + (0,) * mask_pad,
        masked_lm_ids=tuple(instance.masked_labels) + (0,) * mask_pad,
        masked_lm_weights=(1.0,) * len(instance.masked_positions) + (0.0,) * mask_pad,
        next_sentence_labels=1 if instance.is_random_next else 0,
    )


def payload(example: SerializedExample) -> bytes:
    """The example's tf.train.Example payload; the one-value label is a one-item list."""
    features = {}
    for name in FEATURE_ORDER:
        values = getattr(example, name)
        kind = "float" if name == "masked_lm_weights" else "int64"
        features[name] = (kind, values if isinstance(values, tuple) else (values,))
    return codec_oracle.encode_example(features, FEATURE_ORDER)


def record(instance: PretrainingInstance, vocab: Vocab, config: GenerationConfig) -> bytes:
    """The instance's framed shard record."""
    return codec_oracle.frame_record(payload(serialize(instance, vocab, config)))
