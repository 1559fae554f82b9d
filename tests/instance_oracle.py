"""Slow reference instance generation: the documented procedure, one sentence at a time.

This is the generation procedure ``pretrain._instances_for_doc`` runs, written
as the BERT data tool writes it: a chunk is a list of sentences, and segments
grow by one ``extend`` per sentence.  The package runs it on sentence indices
into a packed ``TokenStore`` and takes each segment as one slice.  It is kept
only as the oracle that ``build_instances`` must match instance for instance.
Documents are (id, sentences) pairs and each sentence a sequence of pieces;
instances come back spelled as pieces.  It imports nothing from
``corpusprep``: ``unpack`` reads a store through its three arrays and its id
list alone.
"""

from __future__ import annotations

import hashlib
import math
import random

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")


def doc_rng(seed: int, doc_id: str, dupe: int) -> random.Random:
    """The one generator of a (document, dupe) pair."""
    digest = hashlib.blake2b(f"{doc_id}\x00{dupe}".encode("utf-8"), digest_size=8).digest()
    return random.Random(seed ^ int.from_bytes(digest, "little"))


def masked_budget(max_seq_length: int, masked_lm_prob: float) -> int:
    return math.ceil(round(masked_lm_prob * max_seq_length, 9))


def round_half_up(x: float) -> int:
    return math.floor(round(x + 0.5, 9))


def unpack(store) -> list:
    """A store's documents as (id, sentences) pairs, each sentence a list of piece ids."""
    ids, bounds, docs = store.ids, store.bounds, store.docs
    return [
        (doc_id, [list(ids[bounds[k]:bounds[k + 1]]) for k in range(docs[d], docs[d + 1])])
        for d, doc_id in enumerate(store.doc_ids)
    ]


def instances(docs, config, pieces) -> list:
    """Every instance, dupe-major, as (tokens, segment ids, positions, labels, is_random).

    One generator per (document, dupe): draw the target length, accumulate
    sentences into chunks, split at a_end, flip the next-sentence coin,
    either continue with the document or splice in a foreign document and
    rewind, truncate, then mask.  pieces is the vocabulary's piece list, the
    range of a random replacement.
    """
    out = []
    for dupe in range(config.dupe_factor):
        for doc_index, (doc_id, document) in enumerate(docs):
            rng = doc_rng(config.seed, doc_id, dupe)
            max_num_tokens = config.max_seq_length - 3
            target = max_num_tokens
            if rng.random() < config.short_seq_prob:
                target = rng.randint(2, max_num_tokens)

            chunk, length, i = [], 0, 0
            while i < len(document):
                chunk.append(document[i])
                length += len(document[i])
                if i == len(document) - 1 or length >= target:
                    a_end = 1
                    if len(chunk) >= 2:
                        a_end = rng.randint(1, len(chunk) - 1)
                    tokens_a = [t for seg in chunk[:a_end] for t in seg]
                    is_random = rng.random() < config.random_next_prob
                    tokens_b = []
                    if is_random:
                        want = target - len(tokens_a)
                        while True:
                            other = rng.randint(0, len(docs) - 1)
                            if other != doc_index:
                                break
                        foreign = docs[other][1]
                        start = rng.randint(0, len(foreign) - 1)
                        for seg in foreign[start:]:
                            tokens_b.extend(seg)
                            if len(tokens_b) >= want:
                                break
                        i -= len(chunk) - a_end
                    elif len(chunk) >= 2:
                        tokens_b = [t for seg in chunk[a_end:] for t in seg]
                    if tokens_b:
                        while len(tokens_a) + len(tokens_b) > max_num_tokens:
                            side = tokens_a if len(tokens_a) > len(tokens_b) else tokens_b
                            if rng.random() < 0.5:
                                del side[0]
                            else:
                                side.pop()
                        tokens = ["[CLS]", *tokens_a, "[SEP]", *tokens_b, "[SEP]"]
                        seg_ids = [0] * (len(tokens_a) + 2) + [1] * (len(tokens_b) + 1)
                        cands = [k for k, t in enumerate(tokens) if t not in SPECIALS]
                        budget = masked_budget(config.max_seq_length, config.masked_lm_prob)
                        num = min(budget, max(1, round_half_up(config.masked_lm_prob * len(cands))))
                        positions = sorted(rng.sample(cands, num))
                        labels = []
                        for pos in positions:
                            labels.append(tokens[pos])
                            roll = rng.random()
                            if roll < 0.8:
                                tokens[pos] = "[MASK]"
                            elif roll < 0.9:
                                tokens[pos] = pieces[rng.randint(len(SPECIALS), len(pieces) - 1)]
                        out.append(
                            (tuple(tokens), tuple(seg_ids), tuple(positions), tuple(labels), is_random)
                        )
                    chunk, length = [], 0
                i += 1
    return out
