"""Sectioned key=value configuration parsing and diagnostics."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import pytest

from corpusprep.config import (
    _KEYS,
    STAGE_ORDER,
    FilterThresholds,
    GenerationConfig,
    PipelineConfig,
    StageToggles,
    parse_config_text,
    validate_config,
)
from corpusprep.errors import ConfigError

MINIMAL = "[input]\npath = corpus.jsonl\n"


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        config = parse_config_text(MINIMAL, {})
        assert config.input_path == "corpus.jsonl"
        assert config.input_format == "json-lines"
        assert config.out_dir == "out"
        assert config.report_path is None
        assert config.stages == StageToggles()
        assert config.target_lang == "et"
        assert config.thresholds.min_words == 10
        assert config.thresholds.max_stopword_ratio == 0.6
        assert config.thresholds.max_punct_ratio == 0.3
        assert config.vocab_size == 50000
        assert config.generation.max_seq_length == 128
        assert config.generation.masked_lm_prob == 0.15
        assert config.generation.dupe_factor == 10
        assert config.generation.shards == 4
        assert config.generation.seed == 12345

    def test_stage_order_constant(self):
        assert STAGE_ORDER == ("strip", "langfilter", "dedup", "heuristics", "truecase")

    def test_all_stages_enabled_by_default(self):
        assert StageToggles().enabled() == list(STAGE_ORDER)

    def test_enabled_respects_canonical_order(self):
        toggles = StageToggles(strip=False, dedup=False)
        assert toggles.enabled() == ["langfilter", "heuristics", "truecase"]


class TestParsing:
    def test_full_config(self):
        text = """
# cleanup run for the web corpus
[input]
path = /data/web.vert
format = vert-xml

[output]
dir = /data/out
report = /data/out/report.jsonl

[stages]
strip = true
langfilter = yes
dedup = on
heuristics = 1
truecase = false

[filter]
target_lang = et
min_words = 5
max_stopword_ratio = 0.5
max_punct_ratio = 0.2
lang_confidence_min = 0.9
stopwords = /data/stop.txt

[truecase]
lexicon = /data/lex.tsv

[vocab]
vocab_size = 1000

[examples]
max_seq_length = 64
masked_lm_prob = 0.2
random_next_prob = 0.4
short_seq_prob = 0.05
dupe_factor = 3
shards = 2
seed = 7
"""
        config = parse_config_text(text, {})
        assert config.input_format == "vert-xml"
        assert config.stages.truecase is False
        assert config.stages.enabled() == ["strip", "langfilter", "dedup", "heuristics"]
        assert config.thresholds.min_words == 5
        assert config.thresholds.lang_confidence_min == 0.9
        assert config.stopwords_path == "/data/stop.txt"
        assert config.truecase_lexicon_path == "/data/lex.tsv"
        assert config.vocab_size == 1000
        assert config.generation.seed == 7
        assert config.generation.shards == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[input]\n# another\npath = a.jsonl\n\n"
        assert parse_config_text(text, {}).input_path == "a.jsonl"

    def test_boolean_spellings(self):
        for raw, expected in [("true", True), ("YES", True), ("on", True), ("1", True),
                              ("false", False), ("No", False), ("off", False), ("0", False)]:
            text = f"[input]\npath = x\n[stages]\ndedup = {raw}\n"
            assert parse_config_text(text, {}).stages.dedup is expected


class TestDiagnostics:
    def _diags(self, text, overrides=None):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text, overrides or {})
        return exc.value.diagnostics

    def test_unknown_key_suggests_closest_match(self):
        diags = self._diags("[input]\npath = x\n[examples]\nmaxseq = 64\n")
        [diag] = diags
        assert "line 4" in diag
        assert "maxseq" in diag
        assert "did you mean 'max_seq_length'?" in diag

    def test_unknown_key_names_the_section_of_another_sections_key(self):
        diags = self._diags("[input]\npath = x\n[filter]\nformat = x\nmin_word = 3\n")
        assert diags == [
            "line 4: unknown key 'format' in [filter] (did you mean 'input.format'?)",
            "line 5: unknown key 'min_word' in [filter] (did you mean 'min_words'?)",
        ]

    def test_unknown_section_suggested(self):
        diags = self._diags("[input]\npath = x\n[exampels]\nshards = 2\n")
        assert any("unknown section [exampels]" in d and "examples" in d for d in diags)

    def test_key_outside_section(self):
        diags = self._diags("path = x\n")
        assert any("outside any known section" in d for d in diags)
        assert any("missing required key: input.path" in d for d in diags)

    def test_bad_value_reports_line(self):
        diags = self._diags("[input]\npath = x\n[vocab]\nvocab_size = paar\n")
        assert any(d.startswith("line 4: bad value for vocab_size") for d in diags)

    def test_range_violations(self):
        diags = self._diags(
            "[input]\npath = x\n[examples]\nmasked_lm_prob = 1.5\nmax_seq_length = 3\n"
        )
        assert any("examples.masked_lm_prob must be in [0, 1], got 1.5" in d for d in diags)
        assert any("examples.max_seq_length must be >= 5" in d for d in diags)

    def test_unknown_format_value(self):
        diags = self._diags("[input]\npath = x\nformat = csv\n")
        assert any("bad value for format" in d for d in diags)

    def test_missing_input_path(self):
        diags = self._diags("[output]\ndir = o\n")
        assert diags == ["missing required key: input.path"]

    def test_all_problems_collected_not_just_first(self):
        text = """[inptu]
x = 1
[input]
pth = a
[examples]
shards = null
masked_lm_prob = 7
"""
        diags = self._diags(text)
        # unknown section, key outside section, unknown key with suggestion,
        # bad value, range violation, and the missing path: all present at once
        assert len(diags) == 6
        assert any("unknown section [inptu]" in d for d in diags)
        assert any("outside any known section" in d for d in diags)
        assert any("unknown key 'pth'" in d for d in diags)
        assert any("bad value for shards" in d for d in diags)
        assert any("masked_lm_prob must be in [0, 1]" in d for d in diags)
        assert any("missing required key: input.path" in d for d in diags)

    def test_line_without_equals(self):
        diags = self._diags("[input]\npath = x\nbroken line\n")
        assert any("expected key = value" in d for d in diags)


# field -> (lowest accepted, highest accepted or None); every numeric bound
BOUNDS = {
    (FilterThresholds, "min_words"): (1, None),
    (FilterThresholds, "max_stopword_ratio"): (0, 1),
    (FilterThresholds, "max_punct_ratio"): (0, 1),
    (FilterThresholds, "lang_confidence_min"): (0, 1),
    (PipelineConfig, "vocab_size"): (6, None),
    (GenerationConfig, "max_seq_length"): (5, None),
    (GenerationConfig, "masked_lm_prob"): (0, 1),
    (GenerationConfig, "random_next_prob"): (0, 1),
    (GenerationConfig, "short_seq_prob"): (0, 1),
    (GenerationConfig, "dupe_factor"): (1, None),
    (GenerationConfig, "shards"): (1, 512),
}


def _make(cls, **values):
    return cls("x", **values) if cls is PipelineConfig else cls(**values)


class TestBounds:
    @pytest.mark.parametrize("cls, name", sorted(BOUNDS, key=lambda k: k[1]))
    def test_each_bound_holds_at_its_edges(self, cls, name):
        low, high = BOUNDS[cls, name]
        assert getattr(_make(cls, **{name: low}), name) == low
        limit = f">= {low}" if high is None else f"in \\[{low}, {high}\\]"
        with pytest.raises(ValueError, match=f"^{name} must be {limit}, got "):
            _make(cls, **{name: low - 1})
        if high is not None:
            assert getattr(_make(cls, **{name: high}), name) == high
            # one past high for an int field, half past for a float one
            past = high + 1 if type(getattr(_make(cls), name)) is int else high + 0.5
            with pytest.raises(ValueError, match=f"^{name} must be {limit}, got {past}$"):
                _make(cls, **{name: past})
            with pytest.raises(ValueError):
                _make(cls, **{name: float("nan")})

    def test_dataclass_lists_every_violated_bound(self):
        with pytest.raises(ValueError) as exc:
            FilterThresholds(min_words=0, max_punct_ratio=2.0)
        assert str(exc.value) == (
            "max_punct_ratio must be in [0, 1], got 2; min_words must be >= 1, got 0"
        )
        with pytest.raises(ValueError) as exc:
            GenerationConfig(max_seq_length=4, masked_lm_prob=1.5, shards=0, dupe_factor=0)
        assert str(exc.value).split("; ") == [
            "dupe_factor must be >= 1, got 0",
            "masked_lm_prob must be in [0, 1], got 1.5",
            "max_seq_length must be >= 5, got 4",
            "shards must be in [1, 512], got 0",
        ]

    def test_config_reports_every_bound_with_its_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(
                "[input]\npath = x\n[vocab]\nvocab_size = 5\n"
                "[filter]\nmin_words = 0\nmax_stopword_ratio = 1.5\n"
                "max_punct_ratio = -1\nlang_confidence_min = 2\n"
                "[examples]\nmax_seq_length = 4\nmasked_lm_prob = 1.5\nrandom_next_prob = -0.5\n"
                "short_seq_prob = 3\ndupe_factor = 0\nshards = 0\n"
            )
        assert exc.value.diagnostics == [
            "examples.dupe_factor must be >= 1, got 0",
            "examples.masked_lm_prob must be in [0, 1], got 1.5",
            "examples.max_seq_length must be >= 5, got 4",
            "examples.random_next_prob must be in [0, 1], got -0.5",
            "examples.shards must be in [1, 512], got 0",
            "examples.short_seq_prob must be in [0, 1], got 3",
            "filter.lang_confidence_min must be in [0, 1], got 2",
            "filter.max_punct_ratio must be in [0, 1], got -1",
            "filter.max_stopword_ratio must be in [0, 1], got 1.5",
            "filter.min_words must be >= 1, got 0",
            "vocab.vocab_size must be >= 6, got 5",
        ]


    def test_shard_count_above_512_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[input]\npath = x\n[examples]\nshards = 513\n")
        assert exc.value.diagnostics == ["examples.shards must be in [1, 512], got 513"]

    def test_large_int_printed_as_given(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[input]\npath = x\n[examples]\ndupe_factor = -1000000\n")
        assert exc.value.diagnostics == ["examples.dupe_factor must be >= 1, got -1000000"]


class TestOverrides:
    def test_override_wins_over_file_value(self):
        config = parse_config_text(
            "[input]\npath = x\n[vocab]\nvocab_size = 100\n",
            {("vocab", "vocab_size"): "200"},
        )
        assert config.vocab_size == 200

    def test_override_supplies_missing_required_key(self):
        config = parse_config_text("[output]\ndir = o\n", {("input", "path"): "c.jsonl"})
        assert config.input_path == "c.jsonl"

    def test_override_checked_against_schema(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL, {("vocab", "vocabsize"): "100"})
        assert any("override: unknown key vocab.vocabsize" in d for d in exc.value.diagnostics)

    def test_override_value_converted_and_ranged(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL, {("examples", "shards"): "0"})
        assert any("examples.shards must be in [1, 512]" in d for d in exc.value.diagnostics)


SETTINGS = (StageToggles, FilterThresholds, GenerationConfig, PipelineConfig)

# settings dataclass -> where a parsed PipelineConfig keeps it
PLACE = {
    StageToggles: lambda config: config.stages,
    FilterThresholds: lambda config: config.thresholds,
    GenerationConfig: lambda config: config.generation,
    PipelineConfig: lambda config: config,
}


class TestKeyTable:
    def test_each_settings_field_is_filled_by_exactly_one_key(self):
        filled = list(_KEYS.values())
        assert len(filled) == len(set(filled))
        every = {
            (cls, f.name) for cls in SETTINGS for f in fields(cls) if not is_dataclass(f.default)
        }
        # the stopword list is read from the file that filter.stopwords names
        assert every - set(filled) == {(FilterThresholds, "stopwords")}
        assert set(filled) <= every

    @pytest.mark.parametrize("section, key", sorted(_KEYS))
    def test_each_key_fills_its_field(self, section, key):
        cls, name = _KEYS[section, key]
        default = next(f.default for f in fields(cls) if f.name == name)
        value = {
            bool: lambda: not default,
            int: lambda: default + 1,
            float: lambda: default / 2,
        }.get(type(default), lambda: "vert-xml" if key == "format" else "given")()
        text = f"[input]\npath = x\n[{section}]\n{key} = {value}\n"
        assert getattr(PLACE[cls](parse_config_text(text)), name) == value

    def test_filter_bound_after_a_pipeline_key_is_reported(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[input]\npath = x\n[filter]\ntarget_lang = et\nmin_words = 0\n")
        assert exc.value.diagnostics == ["filter.min_words must be >= 1, got 0"]

    def test_empty_string_values_rejected_with_every_diagnostic(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(
                "[input]\npath = x\nformat =\n[output]\ndir =\n[vocab]\nvocab_size =\n",
                {("output", "report"): "", ("filter", "stopwords"): ""},
            )
        assert exc.value.diagnostics == [
            "line 3: bad value for format: must not be empty",
            "line 5: bad value for dir: must not be empty",
            "line 7: bad value for vocab_size: invalid literal for int() with base 10: ''",
            "override: bad value for report: must not be empty",
            "override: bad value for stopwords: must not be empty",
        ]


class TestValidateConfig:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(MINIMAL, encoding="utf-8")
        config = validate_config(str(p), {})
        assert isinstance(config, PipelineConfig)
        assert config.input_path == "corpus.jsonl"

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(str(tmp_path / "absent.conf"), {})

    def test_non_utf8_file_is_a_config_error_naming_it(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_bytes(b"[input]\npath = caf\xe9.jsonl\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(str(p), {})
        [diag] = exc.value.diagnostics
        assert diag.startswith(f"cannot read config file: cannot decode {p}: ")
