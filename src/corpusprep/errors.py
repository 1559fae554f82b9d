"""Exception types shared across the pipeline stages."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for every error this package raises on purpose."""


# --- ingest ---------------------------------------------------------------

class UnreadableFile(PipelineError):
    pass


class MalformedRecord(PipelineError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IoError(PipelineError):
    pass


# --- cleaning -------------------------------------------------------------

class TextTooShort(PipelineError):
    """Raised by language detection when the text has no alphabetic content."""


class MissingLemmas(PipelineError):
    """Raised when a casing lexicon is requested from unannotated documents."""


# --- bpe ------------------------------------------------------------------

class VocabSizeTooSmall(PipelineError):
    pass


class EmptyCorpus(PipelineError):
    pass


class IdOutOfRange(PipelineError):
    pass


# --- pretraining examples ---------------------------------------------------

class CorpusTooSmall(PipelineError):
    pass


class NoMaskableTokens(PipelineError):
    pass


class CorruptRecord(PipelineError):
    def __init__(self, path: str, offset: int, which_crc: str, message: str = ""):
        detail = f" ({message})" if message else ""
        where = f"{path} at byte {offset}"
        super().__init__(f"corrupt record in {where}: {which_crc} check failed{detail}")
        self.path = path
        self.offset = offset
        self.which_crc = which_crc


# --- metrics ----------------------------------------------------------------

class LengthMismatch(PipelineError):
    def __init__(self, index: int, message: str = ""):
        detail = message or f"sequences disagree at index {index}"
        super().__init__(detail)
        self.index = index


class MalformedTag(PipelineError):
    def __init__(self, tag: str):
        super().__init__(f"malformed span tag: {tag!r}")
        self.tag = tag


class Empty(PipelineError):
    pass


# --- configuration ----------------------------------------------------------

class ConfigError(PipelineError):
    """Carries every diagnostic collected while parsing a config file."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class StageError(PipelineError):
    """Wraps an error raised inside a pipeline stage with stage attribution."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
