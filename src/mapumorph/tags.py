"""Closed registry of gloss tags.

Every tag that may appear on a suffix entry or in a rendered gloss line
lives here; lexicon loading rejects anything else.  Category codes used
for root pieces (NN, AJ, ...) are kept in a separate map because they are
derived from the root's lexical category, not stored on entries.
"""

from __future__ import annotations

GLOSS_TAGS: dict[str, str] = {
    "1": "1st person",
    "2": "2nd person",
    "3": "3rd person",
    "1t2A": "1st to 2nd person agent",
    "3A": "3rd person agent",
    "3P": "3rd person patient",
    "ADJ": "adjectiviser",
    "ADJDO": "adjective + doable",
    "AJ": "adjective",
    "AV": "adverb",
    "BEN": "benefactive",
    "CA": "causative",
    "CJ": "conjunction",
    "COLL": "collective",
    "CONT": "continuative",
    "DL": "dual",
    "DP": "demonstrative pronoun",
    "EXP": "experimentative",
    "FAC": "factitive",
    "FORCE": "force majeure",
    "FUT": "future",
    "HAB": "habitual",
    "IND": "indicative",
    "IND1SG": "indicative 1st person singular",
    "INST": "instrumental",
    "INV": "inversion",
    "IO": "indirect object",
    "IP": "interrogative pronoun",
    "IV": "intransitive verb",
    "IVN": "intransitive verbal noun",
    "LOC": "locative",
    "MIO": "more involved object",
    "NEG": "negative",
    "NN": "noun",
    "NOM": "nominaliser",
    "NU": "numeral",
    "OO": "oblique object",
    "OVN": "objective verbal noun",
    "PASS": "passive",
    "PFPS": "perfective persistent",
    "PL": "plural",
    "PLR": "pluraliser",
    "PRPS": "progressive persistent",
    "PVN": "plain verbal noun",
    "RE": "repetitive",
    "REF": "reflexive/reciprocal",
    "RI": "ruptured implicature",
    "SFR": "stem formative",
    "SG": "singular",
    "SJI": "subjunctive in imperatives",
    "SP": "possessive pronoun",
    "ST": "stative",
    "SVN": "subjective verbal noun",
    "TH": "thither",
    "TR": "transitiviser",
    "TV": "transitive verb",
}

# Root-piece code by lexical category.  Verb roots are rendered with the
# valency context of the sense in use (IV/TV) instead.
CATEGORY_CODES: dict[str, str] = {
    "noun": "NN",
    "adjective": "AJ",
    "adverb": "AV",
    "demonstrative": "DP",
    "numeral": "NU",
    "other": "IP",
}

# Mood-slot tags that nominalise the form (suppress person marking).
VERBAL_NOUN_TAGS = frozenset({"OVN", "SVN", "PVN", "IVN", "ADJDO", "NOM"})

# Mood-slot tags of finite moods.
FINITE_MOOD_TAGS = frozenset({"IND", "IND1SG", "SJI"})

MOOD_TAGS = FINITE_MOOD_TAGS | VERBAL_NOUN_TAGS

# Moods that carry their own person marking.
PORTMANTEAU_MOOD_TAGS = frozenset({"IND1SG"})

PERSON_TAGS = frozenset({"1", "2", "3"})
AGENT_TAGS = frozenset({"1t2A", "3A"})


def is_registered(code: str) -> bool:
    return code in GLOSS_TAGS
