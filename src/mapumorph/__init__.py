"""Morphological analyser/generator and valency classifier for
Mapudüngun verb forms: slot-based morphotactics, boundary phonology,
ambiguity-preserving analysis, and corpus-driven inference of root
transitivity."""

from .alphabet import AlphabetError, segments
from .analyzer import (Analysis, AnalysisPiece, GenerationError, analyse,
                       generate, gloss_render, normalize_gloss)
from .classifier import (Evidence, Verdict, classify, classify_corpus,
                         collect_evidence, reconcile, render_table)
from .defaults import default_lexicon, default_rules
from .lexicon import (Allomorph, Diagnostic, Lexicon, LexiconError, RootEntry,
                      Sense, SuffixEntry, load_lexicon, validate_lexicon)
from .morphotactics import (RootUse, Violation, compound_valency,
                            valency_step, validate_sequence)
from .phonology import (BoundaryRule, PhonologyError, Piece, RuleTable,
                        load_rules, realize)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError", "segments",
    "Analysis", "AnalysisPiece", "GenerationError", "analyse", "generate",
    "gloss_render", "normalize_gloss",
    "Evidence", "Verdict", "classify", "classify_corpus", "collect_evidence",
    "reconcile", "render_table",
    "default_lexicon", "default_rules",
    "Allomorph", "Diagnostic", "Lexicon", "LexiconError", "RootEntry",
    "Sense", "SuffixEntry", "load_lexicon", "validate_lexicon",
    "RootUse", "Violation", "compound_valency", "valency_step",
    "validate_sequence",
    "BoundaryRule", "PhonologyError", "Piece", "RuleTable", "load_rules",
    "realize",
]
