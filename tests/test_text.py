import random
import string
import tracemalloc
from collections import Counter

import pytest

from notezipf import analysis
from notezipf.analysis import read_tokens
from notezipf.errors import DecodeError, EmptyCorpus
from notezipf.stats import count_tokens
from notezipf.text import tokenize_text


class TestTokenizeText:
    def test_basic_split_and_casefold(self):
        tokens = tokenize_text("The cat the dog")
        assert tokens == ["the", "cat", "the", "dog"]
        table = count_tokens(tokens)
        assert (table.V, table.T) == (3, 4)

    def test_internal_apostrophe_kept_dash_splits(self):
        assert tokenize_text("don't—stop") == ["don't", "stop"]

    def test_hyphenated_compound_is_one_token(self):
        assert tokenize_text("first-rate work") == ["first-rate", "work"]

    def test_leading_trailing_joiners_stripped(self):
        assert tokenize_text("'tis -- so- 'round'") == ["tis", "so", "round"]

    def test_digits_and_underscores_split(self):
        assert tokenize_text("a1b c_d e2') == ... nope") == ["a", "b", "c", "d", "e", "nope"]

    def test_empty_text(self):
        assert tokenize_text("") == []
        with pytest.raises(EmptyCorpus):
            count_tokens(tokenize_text(""))

    def test_idempotent_on_own_output(self):
        text = "It's a first-rate, well-known THING; don't over-think (truly)!"
        tokens = tokenize_text(text)
        assert tokenize_text(" ".join(tokens)) == tokens

    def test_case_insensitive(self):
        rng = random.Random(31)
        words = ["alpha", "beta-gamma", "it's", "zed"]
        text = " ".join(rng.choice(words) for _ in range(200))
        assert tokenize_text(text.upper()) == tokenize_text(text)

    def test_unicode_letters_kept(self):
        assert tokenize_text("café naïve") == ["café", "naïve"]

    def test_random_streams_produce_only_legal_tokens(self):
        rng = random.Random(7)
        alphabet = string.ascii_letters + string.digits + " .,'-—_()!?"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            for token in tokenize_text(text):
                assert token
                assert token == token.lower()
                assert not token[0] in "'-" and not token[-1] in "'-"
                assert all(ch.isalpha() or ch in "'-" for ch in token)


def read_token_list(path, kind):
    """read_tokens with its one-shot token stream drawn into a list."""
    kind, tokens, diagnostics = read_tokens(str(path), kind)
    return kind, list(tokens), diagnostics


class TestReadTextTokens:
    def test_reads_utf8_file(self, tmp_path):
        path = tmp_path / "novel.txt"
        path.write_text("One fish, two fish.", encoding="utf-8")
        assert read_token_list(path, "text") == ("text", ["one", "fish", "two", "fish"], {})

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "novel.txt"
        path.write_text("One fish, two fish.", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown kind 'bogus'"):
            read_tokens(str(path), kind="bogus")

    def test_decode_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00 garbage \x80")
        for kind in ("auto", "text", "tokens"):
            with pytest.raises(DecodeError, match="bad.txt is not valid UTF-8"):
                read_tokens(str(path), kind)

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        # the line ends and blanks a grid file may hold too: LF, CRLF, a lone
        # CR, and trailing blanks on a line and after the last one
        path = tmp_path / "bom.tokens"
        for body in (
            b"a\nb\na\nc\na\nb\n",
            b"a\r\nb\r\na\r\nc\r\na\r\nb\r\n",
            b"a\rb\ra\rc\ra\rb\r",
            b"a \t\nb  \na\nc \na\nb\n\n \t\n",
        ):
            path.write_bytes(b"\xef\xbb\xbf" + body)
            _, tokens, _ = read_token_list(path, "tokens")
            assert tokens == ["a", "b", "a", "c", "a", "b"]
            assert count_tokens(tokens).V == 3

    def test_byte_order_mark_leaves_ascii_text_tokens_alone(self, tmp_path):
        text = b"A-b it's, well-known THING\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        for kind in ("auto", "text"):
            assert read_token_list(bom, kind) == read_token_list(plain, kind)

    def test_counting_pass_holds_one_slice_of_tokens(self, tmp_path):
        # the CLI's reader tokenizes one slice at a time, so while a file is
        # counted the memory beyond its decoded text is the counter plus one
        # slice's tokens (1.08x their sum on 200k words); a list of every
        # token first would take 13.9x
        rng = random.Random(1)
        words = ["".join(rng.choices("abcdefghij", k=rng.randint(3, 9))) for _ in range(2000)]
        text = "\n".join(" ".join(rng.choices(words, k=10)) + "." for _ in range(20_000))
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="ascii")
        tracemalloc.start()
        try:
            _, stream, _ = read_tokens(str(path), "text")
            tracemalloc.reset_peak()
            table = count_tokens(stream)
            peak = tracemalloc.get_traced_memory()[1]
            head, joined = text[: analysis._CHUNK], " ".join(words)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            slice_tokens = tokenize_text(head)
            slice_bytes = tracemalloc.get_traced_memory()[1] - before
            del slice_tokens
            before = tracemalloc.get_traced_memory()[0]
            counter = Counter(joined.split())
            counter_bytes = tracemalloc.get_traced_memory()[0] - before
            del counter
        finally:
            tracemalloc.stop()
        assert table.T == 200_000
        assert peak - len(text) <= 1.5 * (slice_bytes + counter_bytes)
