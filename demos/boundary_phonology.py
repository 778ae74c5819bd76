#!/usr/bin/env python3
"""Walk through the morpheme-boundary sound rules.

Shows stem mutations before the m-causative, their lexical exceptions,
epenthesis on compound members, the fused agreement endings, and how the
analyser recovers a mutated stem.
"""
from mapumorph import (Piece, analyse, default_lexicon, default_rules,
                       gloss_render, realize)

lexicon = default_lexicon()
rules = default_rules()


def show(seq, note=""):
    surface = realize(seq, lexicon, rules)
    pretty = " + ".join(p if isinstance(p, str) else f"{p[0]}({p[1]})"
                        for p in seq if not isinstance(p, Piece))
    print(f"  {pretty or seq}  ->  {surface}   {note}")
    return surface


print("=" * 60)
print("Stem mutations before the m-causative")
print("=" * 60)
show(["la", "üm"], "(ng inserted: 'dead' -> 'kill')")
show(["af", "üm"], "(f hardens to p: 'end' -> 'finish')")
show(["nag", "üm"], "(g hardens to k: 'down' -> 'take down')")

print()
print("Lexical exceptions keep their stems:")
show(["lleg", "üm"], "('come up' never hardens)")
show([("nag", "verb"), "üm"], "(the verb 'go down', unlike the adverb)")

print()
print("=" * 60)
print("Epenthetic n/ñ on compound members (never glossed)")
print("=" * 60)
show(["püna", ("tüku", "verb"), "le", "y"], "('stuck in', n inserted)")
show(["tofkü", ("püra", "verb"), "m"], "('spit upwards', ñ inserted)")
show(["are", "tu", "n"], "(suffix -tu takes no epenthesis)")

print()
print("=" * 60)
print("Fused agreement endings")
print("=" * 60)
fu = Piece("fu", "suffix", suffix_id="RI.fu")
fi = Piece("fi", "suffix", suffix_id="AGR.fi")
e = Piece("e", "suffix", suffix_id="AGR.e")
show(["yewe", "ke", fu, fi, "n"], "(-fu + -fi contract to fwi)")
show(["aye", "nie", "a", fu, e, "y", "u"], "(-fu + -e contract to fe)")

print()
print("=" * 60)
print("Analysis: searching forward through the same rules")
print("=" * 60)
print("  naküm:")
for analysis in analyse("naküm", lexicon, rules):
    print(f"    {gloss_render(analysis)}   "
          f"({' + '.join(p.morph for p in analysis.pieces)})")
print()
print("The analyser tries the adverb nag before the m-causative, the g")
print("rule gives naküm, and so the adverb 'down' comes back from the")
print("hardened stem.")
