"""Sectioned key=value pipeline configuration with full diagnostics.

The format is line oriented: `[section]` headers, `key = value` entries,
blank lines and '#' comments.  Validation never stops at the first problem;
every unknown section or key (with a closest-match suggestion), bad value,
and out-of-range number is collected with its line number and raised
together in one ConfigError.  Command-line overrides pass through the same
schema checks as file entries.

The settings dataclasses live here.  Each numeric bound is declared once,
beside its field's default; ``bound_errors`` checks it for the dataclasses,
config files and command-line flags alike.
"""

from __future__ import annotations

import difflib
import re
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


def _kinds(cls) -> Dict[str, str]:
    return {f.name: type(f.default).__name__ for f in numeric_fields(cls)}


# section -> key -> kind: str | int | float | bool | format
_SCHEMA: Dict[str, Dict[str, str]] = {
    "input": {"path": "str", "format": "format"},
    "output": {"dir": "str", "report": "str"},
    "stages": {stage: "bool" for stage in STAGE_ORDER},
    "filter": {"target_lang": "str", **_kinds(FilterThresholds), "stopwords": "str"},
    "truecase": {"lexicon": "str"},
    "vocab": {"vocab_size": "int"},
    "examples": _kinds(GenerationConfig),
}

# section -> the nested dataclass it fills, keys named as fields; every
# other section fills PipelineConfig through _FIELDS
_NESTED = {"stages": StageToggles, "filter": FilterThresholds, "examples": GenerationConfig}

# (section, key) -> PipelineConfig field; [filter] also fills FilterThresholds
_FIELDS: Dict[Tuple[str, str], str] = {
    ("input", "path"): "input_path",
    ("input", "format"): "input_format",
    ("output", "dir"): "out_dir",
    ("output", "report"): "report_path",
    ("filter", "target_lang"): "target_lang",
    ("filter", "stopwords"): "stopwords_path",
    ("truecase", "lexicon"): "truecase_lexicon_path",
    ("vocab", "vocab_size"): "vocab_size",
}


def _suggest(word: str, options: List[str]) -> str:
    close = difflib.get_close_matches(word, options, n=1, cutoff=0.6)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _convert(kind: str, raw: str) -> object:
    if kind == "str":
        return raw
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "format":
        if raw not in FORMATS:
            raise ValueError(f"must be one of {', '.join(FORMATS)}")
        return raw
    raise AssertionError(kind)


def parse_config_text(
    text: str, overrides: Optional[Dict[Tuple[str, str], str]] = None
) -> PipelineConfig:
    """Parse and validate; raises ConfigError carrying every diagnostic."""
    diagnostics: List[str] = []
    values: Dict[Tuple[str, str], object] = {}
    section: Optional[str] = None
    all_keys = sorted({key for keys in _SCHEMA.values() for key in keys})

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        header = _SECTION_RE.match(stripped)
        if header:
            name = header.group(1).strip()
            if name not in _SCHEMA:
                diagnostics.append(
                    f"line {line_no}: unknown section [{name}]"
                    + _suggest(name, list(_SCHEMA))
                )
                section = None
            else:
                section = name
            continue
        if "=" not in stripped:
            diagnostics.append(f"line {line_no}: expected key = value, got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if section is None:
            diagnostics.append(f"line {line_no}: key {key!r} outside any known section")
            continue
        if key not in _SCHEMA[section]:
            pool = list(_SCHEMA[section]) + all_keys
            diagnostics.append(
                f"line {line_no}: unknown key {key!r} in [{section}]"
                + _suggest(key, pool)
            )
            continue
        kind = _SCHEMA[section][key]
        try:
            value = _convert(kind, raw)
        except ValueError as exc:
            diagnostics.append(f"line {line_no}: bad value for {key}: {exc}")
            continue
        values[(section, key)] = value

    for (section_name, key), raw in (overrides or {}).items():
        if section_name not in _SCHEMA or key not in _SCHEMA[section_name]:
            diagnostics.append(f"override: unknown key {section_name}.{key}")
            continue
        kind = _SCHEMA[section_name][key]
        try:
            values[(section_name, key)] = _convert(kind, str(raw))
        except ValueError as exc:
            diagnostics.append(f"override: bad value for {key}: {exc}")

    # a bounded key is named as its field in the dataclass its section fills
    for name in sorted(_SCHEMA):
        given = {key: value for (section, key), value in values.items() if section == name}
        diagnostics += bound_errors(_NESTED.get(name, PipelineConfig), given, name + ".")

    if ("input", "path") not in values:
        diagnostics.append("missing required key: input.path")

    if diagnostics:
        raise ConfigError(diagnostics)

    # keys not given fall back to the dataclass defaults
    top: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {name: {} for name in _NESTED}
    for (section_name, key), value in values.items():
        if (section_name, key) in _FIELDS:
            top[_FIELDS[section_name, key]] = value
        else:
            nested[section_name][key] = value
    return PipelineConfig(
        stages=StageToggles(**nested["stages"]),
        thresholds=FilterThresholds(**nested["filter"]),
        generation=GenerationConfig(**nested["examples"]),
        **top,
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
