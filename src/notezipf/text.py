"""Word tokenization for plain-text corpora.

A word is a maximal run of letters possibly joined by internal ASCII
apostrophes or hyphens; everything else splits.  Text is lowercased first,
so tokenization is case-insensitive, and leading/trailing joiners never
survive (the regex only admits them between letter runs).  Hyphenated
compounds therefore count as single words.
"""

from __future__ import annotations

import re

# letters only: \w minus digits and underscore, Unicode-aware
_WORD = re.compile(r"[^\W\d_]+(?:['-][^\W\d_]+)*")


def tokenize_text(text: str) -> list[str]:
    """Lowercased word tokens of a character stream, in order."""
    return _WORD.findall(text.lower())

