"""Lazy loading of the data tables shipped with the package."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from .lexicon import Lexicon, load_lexicon
from .phonology import RuleTable, load_rules


def data_path(name: str) -> Path:
    return Path(resources.files("mapumorph").joinpath("data", name))


@lru_cache(maxsize=None)
def default_lexicon() -> Lexicon:
    return load_lexicon(data_path("roots.tsv"), data_path("suffixes.tsv"))


@lru_cache(maxsize=None)
def default_rules() -> RuleTable:
    return load_rules(data_path("rules.tsv"))


def tables(lexicon: Lexicon | None = None,
           rules: RuleTable | None = None) -> tuple[Lexicon, RuleTable]:
    """The given lexicon and rule table, with the shipped one in place of
    each that is None."""
    return (default_lexicon() if lexicon is None else lexicon,
            default_rules() if rules is None else rules)
