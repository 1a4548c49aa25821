"""Seeded synthetic product catalogs for the benchmark workloads.

Each left profile describes one product.  The right side holds a noisy copy
of every left product (tokens dropped, tokens shuffled, adjacent characters
transposed) plus unmatched extras, in shuffled order with fresh ids, so the
ids carry no hint of the true pairs.  Words are drawn from a seeded
pseudo-word vocabulary with a Zipf-like skew: common words link many
profiles, but the vocabulary is wide enough that token-unigram graphs stay
far from complete.

Everything is a function of the seed; the package under test only ever sees
the profiles and files made from them.
"""

from __future__ import annotations

import random

from erbimatch import EntityProfile, GroundTruth, ProfileCollection

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"

VOCABULARY_SIZE = 6000
BRANDS = 120
NOUNS = 160
EXTRA_SHARE = 0.10
SIBLING_SHARE = 0.3


def _pseudo_words(rng: random.Random, count: int, syllables: tuple[int, int]
                  ) -> list[str]:
    words: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(*syllables)))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


class _Lexicon:
    def __init__(self, rng: random.Random):
        self.words = _pseudo_words(rng, VOCABULARY_SIZE, (2, 4))
        self.brands = _pseudo_words(rng, BRANDS, (2, 3))
        self.nouns = _pseudo_words(rng, NOUNS, (2, 3))
        # Zipf-like: weight 1/(rank+10) keeps the head from dominating
        self.cum_weights = []
        total = 0.0
        for rank in range(VOCABULARY_SIZE):
            total += 1.0 / (rank + 10)
            self.cum_weights.append(total)

    def _words(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)

    def product(self, rng: random.Random, family: dict[str, str] | None = None
                ) -> dict[str, str]:
        """A new product, or a sibling of ``family`` (one word and the
        model code changed), which makes the matching task ambiguous."""
        code = (rng.choice(_CONSONANTS) + rng.choice(_CONSONANTS)
                + str(rng.randrange(100, 10000)))
        if family is None:
            head = [rng.choice(self.brands), *self._words(rng, rng.randint(2, 4)),
                    rng.choice(self.nouns)]
            detail = self._words(rng, rng.randint(3, 6))
        else:
            head = family["title"].split()[:-1]
            head[rng.randrange(1, len(head))] = self._words(rng, 1)[0]
            detail = family["description"].split()
            detail[rng.randrange(len(detail))] = self._words(rng, 1)[0]
        return {"title": " ".join([*head, code]), "description": " ".join(detail)}


def _transpose(rng: random.Random, token: str) -> str:
    if len(token) < 4:
        return token
    pos = rng.randrange(len(token) - 1)
    return token[:pos] + token[pos + 1] + token[pos] + token[pos + 2:]


def noisy_copy(rng: random.Random, text: str) -> str:
    """Drop, shuffle and misspell tokens of ``text``; never returns ''."""
    tokens = text.split()
    if len(tokens) > 2 and rng.random() < 0.5:
        tokens.pop(rng.randrange(len(tokens)))
    if rng.random() < 0.5:
        rng.shuffle(tokens)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(tokens))
        tokens[i] = _transpose(rng, tokens[i])
    return " ".join(tokens)


def make_catalogs(seed: int, size: int
                  ) -> tuple[ProfileCollection, ProfileCollection, GroundTruth]:
    """``size`` left products; right = noisy copies + ~10% unmatched extras."""
    rng = random.Random(seed)
    lexicon = _Lexicon(rng)
    left, right_rows, truth = [], [], []
    products: list[dict[str, str]] = []
    for i in range(size):
        family = rng.choice(products) if products and \
            rng.random() < SIBLING_SHARE else None
        attrs = lexicon.product(rng, family)
        products.append(attrs)
        left.append(EntityProfile(f"a{i}", {k: (v,) for k, v in attrs.items()}))
        right_rows.append(({k: noisy_copy(rng, v) for k, v in attrs.items()},
                           f"a{i}"))
    for _ in range(round(size * EXTRA_SHARE)):
        right_rows.append((lexicon.product(rng), None))
    rng.shuffle(right_rows)
    right = []
    for j, (attrs, left_id) in enumerate(right_rows):
        right.append(EntityProfile(f"b{j}", {k: (v,) for k, v in attrs.items()}))
        if left_id is not None:
            truth.append((left_id, f"b{j}"))
    return ProfileCollection(left), ProfileCollection(right), GroundTruth(truth)
