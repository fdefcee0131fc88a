"""Corpus statistics for note and word usage: rank-frequency tables,
occurrence spectra, a one-parameter rank-law fit, and a generative
preferential-reuse simulator, with MIDI and plain-text front ends."""

from .analysis import analyze_tokens, read_tokens
from .errors import NoteZipfError
from .fit import fit_nu
from .notes import tokenize
from .simulate import SimConfig, simulate, verify_zipf
from .smf import extract_notes
from .stats import count_tokens

__version__ = "0.1.0"

__all__ = [
    "NoteZipfError",
    "SimConfig",
    "analyze_tokens",
    "count_tokens",
    "extract_notes",
    "fit_nu",
    "read_tokens",
    "simulate",
    "tokenize",
    "verify_zipf",
]
