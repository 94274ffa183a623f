"""The one-regex tokenizer and the trigger-jumping tagger against the
per-chunk tokenizer and the full-scan tagger they replaced, kept here as
oracles.

`tokenize`, `words` and `tag` must give exactly the oracles' tokens,
offsets and spans on every question, context and fact name of a
bigstore-shaped and a distractor-shaped generated corpus, and on seeded
random strings and token lists biased toward what the two grammars treat
specially.
"""

import re
import string

import numpy as np
import pytest

from tsqa.corpus import SyntheticConfig, generate_synthetic
from tsqa.intervals import MAX_MONTH, MAX_YEAR, MIN_MONTH, MIN_YEAR, MonthInterval, month_index, year_span
from tsqa.tagger import (
    DECADE,
    MONTH_POINT,
    OPEN_SINCE,
    OPEN_UNTIL,
    SIGNAL,
    SIGNAL_WORDS,
    YEAR_POINT,
    YEAR_RANGE,
    TemporalSpan,
    Token,
    tag,
    tokenize,
    words,
)

# ---------------------------------------------------------------------------
# The oracles.

_PUNCT = set(string.punctuation) | {"–", "—", "‘", "’", "“", "”", "…"}
_DASHES = {"-", "–", "—"}
_CHUNK = re.compile(r"\S+")
_RANGE_CORE = re.compile(r"^(\d{4})([-–—])(\d{2}|\d{4})$")
_FOUR_DIGITS = re.compile(r"\d{4}")
_TWO_DIGITS = re.compile(r"\d{2}")
_DECADE = re.compile(r"(\d{3}0)s")
_MONTH_NAMES = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}


def oracle_tokenize(text):
    """Whitespace chunks; edge punctuation split off one character at a
    time; a chunk core that is exactly a year range split in three."""
    tokens = []
    for m in _CHUNK.finditer(text):
        chunk, (base, _) = m.group(), m.span()
        i, j = 0, len(chunk)
        lead, trail = [], []
        while i < j and chunk[i] in _PUNCT:
            lead.append((chunk[i], base + i))
            i += 1
        while j > i and chunk[j - 1] in _PUNCT:
            trail.append((chunk[j - 1], base + j - 1))
            j -= 1
        for piece, pos in lead:
            tokens.append(Token(piece, pos, pos + 1))
        core = chunk[i:j]
        if core:
            rng = _RANGE_CORE.match(core)
            if rng:
                a, dash, b = rng.group(1), rng.group(2), rng.group(3)
                tokens.append(Token(a, base + i, base + i + len(a)))
                dpos = base + i + len(a)
                tokens.append(Token(dash, dpos, dpos + 1))
                tokens.append(Token(b, dpos + 1, dpos + 1 + len(b)))
            else:
                tokens.append(Token(core, base + i, base + j))
        for piece, pos in reversed(trail):
            tokens.append(Token(piece, pos, pos + 1))
    return tokens


def _oracle_year(text):
    if _FOUR_DIGITS.fullmatch(text):
        y = int(text)
        if MIN_YEAR <= y <= MAX_YEAR:
            return y
    return None


def _oracle_range_tail(head, text):
    if _FOUR_DIGITS.fullmatch(text):
        y = int(text)
        return y if MIN_YEAR <= y <= MAX_YEAR else None
    if _TWO_DIGITS.fullmatch(text):
        return (head // 100) * 100 + int(text)
    return None


def oracle_tag(tokens):
    """Every rule tried at every token, left to right, longest match first."""
    spans = []
    n = len(tokens)
    texts = [t.text for t in tokens]
    low = [t.lower() for t in texts] + [""] * 3
    year = [_oracle_year(t) for t in texts] + [None] * 3
    i = 0
    while i < n:
        word = low[i]
        if word in ("from", "between"):
            joiner = "to" if word == "from" else "and"
            y1, y2 = year[i + 1], year[i + 3]
            if y1 is not None and y2 is not None and low[i + 2] == joiner and y1 <= y2:
                spans.append(TemporalSpan(i + 1, i + 4, YEAR_RANGE, year_span(y1, y2)))
                i += 4
                continue
        y1 = year[i]
        if y1 is not None and i + 2 < n and texts[i + 1] in _DASHES:
            y2 = _oracle_range_tail(y1, texts[i + 2])
            if y2 is not None and y1 <= y2:
                spans.append(TemporalSpan(i, i + 3, YEAR_RANGE, year_span(y1, y2)))
                i += 3
                continue
        mo = _MONTH_NAMES.get(word)
        if mo is not None:
            if year[i + 1] is not None:
                idx = month_index(year[i + 1], mo)
                spans.append(TemporalSpan(i, i + 2, MONTH_POINT, MonthInterval(idx, idx)))
                i += 2
                continue
            if low[i + 1] in (",", ".") and year[i + 2] is not None:
                idx = month_index(year[i + 2], mo)
                spans.append(TemporalSpan(i, i + 3, MONTH_POINT, MonthInterval(idx, idx)))
                i += 3
                continue
        if word == "since" and year[i + 1] is not None:
            iv = MonthInterval(month_index(year[i + 1], 1), MAX_MONTH)
            spans.append(TemporalSpan(i, i + 2, OPEN_SINCE, iv))
            i += 2
            continue
        if word == "until" and year[i + 1] is not None:
            iv = MonthInterval(MIN_MONTH, month_index(year[i + 1], 12))
            spans.append(TemporalSpan(i, i + 2, OPEN_UNTIL, iv))
            i += 2
            continue
        dm = _DECADE.fullmatch(texts[i])
        if dm and MIN_YEAR <= int(dm.group(1)) <= MAX_YEAR - 9:
            d0 = int(dm.group(1))
            spans.append(TemporalSpan(i, i + 1, DECADE, year_span(d0, d0 + 9)))
            i += 1
            continue
        if y1 is not None:
            spans.append(TemporalSpan(i, i + 1, YEAR_POINT, year_span(y1, y1)))
            i += 1
            continue
        if word in SIGNAL_WORDS:
            spans.append(TemporalSpan(i, i + 1, SIGNAL, None))
        i += 1
    return spans


# ---------------------------------------------------------------------------
# Inputs.

# Generator shapes of the benchmark's two workloads, at a smaller size.
_L2_EASY = {"L2": 1.0, "EASY": 1.0, "L3": 0.0, "HARD": 0.0}
SHAPES = {
    "bigstore": SyntheticConfig(
        n_entities=150, n_relations=1, facts_per_pair=4, distractor_sentences_per_context=0,
        question_type_mix=_L2_EASY, unanswerable_fraction=0.1, seed=7,
    ),
    "distractor": SyntheticConfig(
        n_entities=40, n_relations=2, facts_per_pair=4, distractor_sentences_per_context=4,
        distractors_dated=False, question_type_mix=_L2_EASY, unanswerable_fraction=0.0, seed=11,
    ),
}

EDGE_CASES = ["1984-1991-", "x1984-1991", "12345-1991", "1984-19.", "(1949-66).", "...", ""]


@pytest.fixture(scope="module", params=sorted(SHAPES))
def corpus_texts(request):
    """Every question, context and fact name of one generated corpus."""
    train, dev, test, facts = generate_synthetic(SHAPES[request.param])
    texts = [t for r in train + dev + test for t in (r.question, r.context)]
    return texts + sorted({name for f in facts for name in (f.subject, f.object)})


def random_strings(count, seed):
    """Strings of letters, digit runs, dashes, ASCII and curly punctuation,
    ellipses, spaces, tabs and newlines, with year-range pieces mixed in."""
    rng = np.random.default_rng(seed)
    letters = string.ascii_letters + "éÅ"
    punct = string.punctuation + "–—‘’“”…"
    pieces = [
        lambda: "".join(rng.choice(list(letters), rng.integers(1, 6))),
        lambda: "".join(rng.choice(list(string.digits), rng.choice([1, 2, 3, 4, 4, 4, 5]))),
        lambda: str(rng.integers(1000, 3000)) + rng.choice(list("-–—")) + str(rng.integers(0, 3000)),
        lambda: rng.choice(list("-–—")),
        lambda: "".join(rng.choice(list(punct), rng.integers(1, 4))),
        lambda: "…",
        lambda: rng.choice([" ", " ", " ", "\t", "\n", "  "]),
        lambda: rng.choice(["1984-1991-", "x1984-1991", "12345-1991", "1984-19.", "(1949-66).", "..."]),
    ]
    weights = np.array([4, 3, 2, 1, 2, 0.5, 5, 1], dtype=float)
    weights /= weights.sum()
    return [
        "".join(pieces[k]() for k in rng.choice(len(pieces), rng.integers(0, 16), p=weights))
        for _ in range(count)
    ]


def random_token_lists(count, seed):
    """Token lists drawn mostly from what starts or continues a span:
    range heads and joiners, month names, signal words, years in and out
    of range, decades, dashes, two-digit tails, commas and periods, in
    mixed case; half the draws are whole phrases of the grammar, with a
    random token swapped in now and then."""
    rng = np.random.default_rng(seed)
    heads = ["from", "From", "between", "BETWEEN", "since", "Since", "until", "UNTIL"]
    months = ["July", "jul", "Sept", "may", "DEC", "march", "Mar."]
    signals = sorted(SIGNAL_WORDS) + ["Before", "LAST"]
    years = ["1950", "1984", "1991", "2005", "0999", "3000", "2999", "1000", "١٩٨٤", "12345", "198"]
    decades = ["1980s", "1990s", "2990s", "0990s", "1985s", "1980S", "1980"]
    other = ["to", "and", "-", "–", "—", "66", "49", "7", ",", ".", ";", "the", "club", "x"]
    single = heads + months + signals + years + decades + other

    def pick(options):
        return options[rng.integers(len(options))]

    phrases = [
        lambda: [pick(["from", "From"]), pick(years), pick(["to", "and"]), pick(years)],
        lambda: [pick(["between", "Between"]), pick(years), pick(["and", "to"]), pick(years)],
        lambda: [pick(years), pick(["-", "–", "—", "to"]), pick(years + ["66", "49", "7", "x"])],
        lambda: [pick(months), pick(years)],
        lambda: [pick(months), pick([",", ".", ";"]), pick(years)],
        lambda: [pick(["since", "until", "Since", "UNTIL"]), pick(years + ["the"])],
        lambda: [pick(decades)],
        lambda: [pick(single)],
    ]
    lists = []
    for _ in range(count):
        tokens = []
        for _ in range(rng.integers(0, 6)):
            phrase = phrases[rng.integers(len(phrases))]() if rng.random() < 0.5 else [pick(single)]
            if rng.random() < 0.1:
                phrase[rng.integers(len(phrase))] = pick(single)
            tokens += phrase
        lists.append(tokens)
    return lists


def as_tokens(texts):
    return [Token(t, 0, len(t)) for t in texts]


# ---------------------------------------------------------------------------
# Checks.


def assert_tokenizer_matches(text):
    want = oracle_tokenize(text)
    assert tokenize(text) == want, text
    assert words(text) == [t.text for t in want], text


def assert_tagger_matches(texts):
    want = oracle_tag(as_tokens(texts))
    assert tag(as_tokens(texts)) == want, texts
    assert tag(list(texts)) == want, texts
    assert tag(list(texts), [t.lower() for t in texts]) == want, texts


def test_tokenizer_matches_the_per_chunk_oracle_on_a_corpus(corpus_texts):
    for text in corpus_texts:
        assert_tokenizer_matches(text)


def test_tokenizer_matches_the_per_chunk_oracle_on_random_strings():
    for text in EDGE_CASES + random_strings(5000, seed=17):
        assert_tokenizer_matches(text)


def test_tokenizer_edge_cases():
    assert words("1984-1991-") == ["1984", "-", "1991", "-"]
    assert words("x1984-1991") == ["x1984-1991"]
    assert words("12345-1991") == ["12345-1991"]
    assert words("1984-19.") == ["1984", "-", "19", "."]
    assert words("(1949-66).") == ["(", "1949", "-", "66", ")", "."]
    assert words("...") == [".", ".", "."]
    assert words("") == [] and tokenize("") == []


def test_tagger_matches_the_full_scan_oracle_on_a_corpus(corpus_texts):
    for text in corpus_texts:
        assert_tagger_matches(words(text))


def test_tagger_matches_the_full_scan_oracle_on_random_token_lists():
    lists = random_token_lists(5000, seed=23)
    spans = [(t, oracle_tag(as_tokens(t))) for t in lists]
    # Every rule fires, each range head among them.
    assert {s.kind for _, found in spans for s in found} == {
        YEAR_POINT, MONTH_POINT, YEAR_RANGE, DECADE, OPEN_SINCE, OPEN_UNTIL, SIGNAL
    }
    heads = {t[s.tok_start - 1].lower() for t, found in spans for s in found if s.kind == YEAR_RANGE and s.tok_start}
    assert {"from", "between"} <= heads
    for texts in lists:
        assert_tagger_matches(texts)


def test_tagger_matches_the_full_scan_oracle_on_random_strings():
    for text in random_strings(2000, seed=29):
        assert_tagger_matches(words(text))
