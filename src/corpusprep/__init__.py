"""Corpus preparation for BERT-style pretraining.

Cleaning (markup stripping, language filtering, exact dedup, heuristic
quality filters, truecasing), BPE subword vocabulary training, MLM+NSP
example generation into TFRecord shards, and the evaluation scorers used on
the downstream tasks.
"""

from .bpe import Vocab, decode, encode, train_bpe
from .cleaning import (
    DropReason,
    dedup_key,
    heuristic_filter,
    load_stopwords,
    strip_markup,
)
from .config import (
    FilterThresholds, GenerationConfig, PipelineConfig, StageToggles, validate_config
)
from .errors import PipelineError
from .ingest import CorpusStats, Document, compute_stats, read_documents, write_documents
from .langid import LanguageProfiles, default_profiles, detect_language
from .metrics import (
    SpanF1Report,
    classification_accuracy,
    ner_span_f1,
    tagging_accuracy,
)
from .pipeline import PipelineReport, run_pipeline
from .pretrain import (
    PretrainingInstance,
    SerializedExample,
    apply_masking,
    build_instances,
    masked_budget,
    read_tfrecords,
    serialize_example,
    tokenize_documents,
    write_tfrecords,
)
from .truecase import CasingLexicon, build_casing_lexicon, truecase

__version__ = "0.1.0"

__all__ = [
    "CasingLexicon",
    "CorpusStats",
    "Document",
    "DropReason",
    "FilterThresholds",
    "GenerationConfig",
    "LanguageProfiles",
    "PipelineConfig",
    "PipelineError",
    "PipelineReport",
    "PretrainingInstance",
    "SerializedExample",
    "SpanF1Report",
    "StageToggles",
    "Vocab",
    "apply_masking",
    "build_casing_lexicon",
    "build_instances",
    "classification_accuracy",
    "compute_stats",
    "decode",
    "dedup_key",
    "default_profiles",
    "detect_language",
    "encode",
    "heuristic_filter",
    "load_stopwords",
    "masked_budget",
    "ner_span_f1",
    "read_documents",
    "read_tfrecords",
    "run_pipeline",
    "serialize_example",
    "strip_markup",
    "tagging_accuracy",
    "tokenize_documents",
    "train_bpe",
    "truecase",
    "validate_config",
    "write_documents",
    "write_tfrecords",
]
