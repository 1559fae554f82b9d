"""Sectioned key=value pipeline configuration with full diagnostics.

The format is line oriented: `[section]` headers, `key = value` entries,
blank lines and '#' comments.  Validation never stops at the first problem;
every unknown section or key (with a closest-match suggestion), bad value,
and out-of-range number is collected with its line number and raised
together in one ConfigError.  Command-line overrides pass through the same
checks as file entries.

The settings dataclasses live here.  One table, ``_KEYS``, maps each
(section, key) to the dataclass field it fills; a key's kind is its field's
default's type (bool, int, float, else a non-empty str; ``input.format``
must also be one of FORMATS).  Each numeric bound is declared once, beside
its field's default; ``bound_errors`` checks it for the dataclasses, config
files and command-line flags alike.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import Field, dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import ConfigError, UnreadableFile
from .ingest import FORMATS, read_lines


def bounded(default, low, high=float("inf")):
    """A field whose value must lie in [low, high]."""
    return field(default=default, metadata={"bounds": (low, high)})


def bound_errors(cls, values: Dict[str, object], prefix: str = "") -> List[str]:
    """In field-name order, a message for each value (keyed by field) outside its bounds."""
    errors = []
    for f in sorted(fields(cls), key=lambda f: f.name):
        if "bounds" not in f.metadata or f.name not in values:
            continue
        (low, high), value = f.metadata["bounds"], values[f.name]
        if not low <= value <= high:
            limit = f">= {low:g}" if high == float("inf") else f"in [{low:g}, {high:g}]"
            shown = value if isinstance(value, int) else f"{value:g}"
            errors.append(f"{prefix}{f.name} must be {limit}, got {shown}")
    return errors


def _check_bounds(self) -> None:
    """A settings dataclass's __post_init__: one ValueError listing every violated bound."""
    errors = bound_errors(type(self), vars(self))
    if errors:
        raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class StageToggles:
    strip: bool = True
    langfilter: bool = True
    dedup: bool = True
    heuristics: bool = True
    truecase: bool = True

    def enabled(self) -> List[str]:
        """Enabled stage names in canonical pipeline order."""
        return [stage for stage in STAGE_ORDER if getattr(self, stage)]


STAGE_ORDER = tuple(f.name for f in fields(StageToggles))


@dataclass(frozen=True)
class FilterThresholds:
    min_words: int = bounded(10, 1)
    max_stopword_ratio: float = bounded(0.6, 0, 1)
    max_punct_ratio: float = bounded(0.3, 0, 1)
    lang_confidence_min: float = bounded(0.95, 0, 1)
    stopwords: FrozenSet[str] = frozenset()

    __post_init__ = _check_bounds


@dataclass(frozen=True)
class GenerationConfig:
    max_seq_length: int = bounded(128, 5)  # [CLS] a [SEP] b [SEP]
    masked_lm_prob: float = bounded(0.15, 0, 1)
    random_next_prob: float = bounded(0.5, 0, 1)
    short_seq_prob: float = bounded(0.1, 0, 1)
    dupe_factor: int = bounded(10, 1)
    shards: int = bounded(4, 1, 512)  # every shard file is open at once
    seed: int = 12345

    __post_init__ = _check_bounds


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    input_format: str = "json-lines"
    out_dir: str = "out"
    report_path: Optional[str] = None
    stages: StageToggles = StageToggles()
    target_lang: str = "et"
    thresholds: FilterThresholds = FilterThresholds()
    stopwords_path: Optional[str] = None
    truecase_lexicon_path: Optional[str] = None
    vocab_size: int = bounded(50000, 6)
    generation: GenerationConfig = GenerationConfig()

    __post_init__ = _check_bounds


_SECTION_RE = re.compile(r"^\[([^\]]*)\]$")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def numeric_fields(cls) -> List[Field]:
    """The fields of a settings dataclass with an int or float default."""
    return [f for f in fields(cls) if type(f.default) in (int, float)]


# (section, key) -> (settings dataclass, field) it fills; the nested sections
# name their keys as the fields, [filter] fills PipelineConfig too
_KEYS: Dict[Tuple[str, str], Tuple[type, str]] = {
    ("input", "path"): (PipelineConfig, "input_path"),
    ("input", "format"): (PipelineConfig, "input_format"),
    ("output", "dir"): (PipelineConfig, "out_dir"),
    ("output", "report"): (PipelineConfig, "report_path"),
    ("filter", "target_lang"): (PipelineConfig, "target_lang"),
    ("filter", "stopwords"): (PipelineConfig, "stopwords_path"),
    ("truecase", "lexicon"): (PipelineConfig, "truecase_lexicon_path"),
    ("vocab", "vocab_size"): (PipelineConfig, "vocab_size"),
    **{("stages", stage): (StageToggles, stage) for stage in STAGE_ORDER},
    **{("filter", f.name): (FilterThresholds, f.name) for f in numeric_fields(FilterThresholds)},
    **{("examples", f.name): (GenerationConfig, f.name) for f in numeric_fields(GenerationConfig)},
}
_SECTIONS = {section: section for section, _ in _KEYS}  # as _suggest's options


def _suggest(word: str, options: Dict[str, str]) -> str:
    """A hint naming the option closest to word, as options maps it for display."""
    import difflib  # only a failing config needs it

    close = difflib.get_close_matches(word, list(options), n=1, cutoff=0.6)
    return f" (did you mean {options[close[0]]!r}?)" if close else ""


def _convert(cls, name: str, raw: str) -> object:
    """raw as its field's default's type: bool, int, float, or else a non-empty str."""
    kind = type(cls.__dataclass_fields__[name].default)
    if kind is bool:
        if raw.lower() in _TRUE | _FALSE:
            return raw.lower() in _TRUE
        raise ValueError(f"not a boolean: {raw!r}")
    if kind in (int, float):
        return kind(raw)
    if not raw:
        raise ValueError("must not be empty")
    if name == "input_format" and raw not in FORMATS:
        raise ValueError(f"must be one of {', '.join(FORMATS)}")
    return raw


def parse_config_text(
    text: str, overrides: Optional[Dict[Tuple[str, str], str]] = None
) -> PipelineConfig:
    """Parse and validate; raises ConfigError carrying every diagnostic."""
    diagnostics: List[str] = []
    # (section, settings dataclass) -> field -> value
    given: Dict[Tuple[str, type], Dict[str, object]] = defaultdict(dict)

    def put(where: str, section: str, key: str, raw: str) -> None:
        cls, name = _KEYS[section, key]
        try:
            given[section, cls][name] = _convert(cls, name, raw)
        except ValueError as exc:
            diagnostics.append(f"{where}: bad value for {key}: {exc}")

    section: Optional[str] = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        header = _SECTION_RE.match(stripped)
        if header:
            section = header.group(1).strip()
            if section not in _SECTIONS:
                diagnostics.append(
                    f"line {line_no}: unknown section [{section}]" + _suggest(section, _SECTIONS)
                )
                section = None
            continue
        if "=" not in stripped:
            diagnostics.append(f"line {line_no}: expected key = value, got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if section is None:
            diagnostics.append(f"line {line_no}: key {key!r} outside any known section")
        elif (section, key) not in _KEYS:
            # the section's own keys bare, another section's keys named with it
            pool = {k: f"{s}.{k}" for s, k in _KEYS if s != section}
            pool.update((k, k) for s, k in _KEYS if s == section)
            diagnostics.append(
                f"line {line_no}: unknown key {key!r} in [{section}]" + _suggest(key, pool)
            )
        else:
            put(f"line {line_no}", section, key, raw.strip())

    for (section, key), raw in (overrides or {}).items():
        if (section, key) in _KEYS:
            put("override", section, key, str(raw))
        else:
            diagnostics.append(f"override: unknown key {section}.{key}")

    # a bound's message is prefixed with its key's section; sorted by section, then field
    diagnostics += sorted(
        error for (section, cls), named in given.items()
        for error in bound_errors(cls, named, section + ".")
    )

    if "input_path" not in given["input", PipelineConfig]:
        diagnostics.append("missing required key: input.path")

    if diagnostics:
        raise ConfigError(diagnostics)

    # keys not given fall back to the dataclass defaults
    settings: Dict[type, Dict[str, object]] = defaultdict(dict)
    for (_, cls), named in given.items():
        settings[cls].update(named)
    return PipelineConfig(
        stages=StageToggles(**settings[StageToggles]),
        thresholds=FilterThresholds(**settings[FilterThresholds]),
        generation=GenerationConfig(**settings[GenerationConfig]),
        **settings[PipelineConfig],
    )


def validate_config(
    path: str, overrides: Optional[Dict[Tuple[str, str], str]] = None
) -> PipelineConfig:
    """Read a config file and validate it; see parse_config_text."""
    try:
        text = "\n".join(line for _, line in read_lines(path))
    except UnreadableFile as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from exc
    return parse_config_text(text, overrides)
