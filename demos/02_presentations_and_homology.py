"""Fundamental group presentations and first homology side by side."""

from seifert import (
    abelianize,
    first_homology,
    orbifold_pi1,
    parse_symbol,
    pi1,
    smith_normal_form,
)

symbol = parse_symbol("(1,n2|(2,1))")
pres = pi1(symbol)
print(f"pi1 of {symbol}")
print(pres.export_text())

rows = abelianize(pres)
print("\nabelianized relator matrix:")
for row in rows:
    print(f"  {row}")
print(f"smith invariants: {smith_normal_form(rows)}")
print(f"H1 = {first_homology(symbol)}")

# the base orbifold group drops the fiber generator
orb = orbifold_pi1(symbol)
print(f"\norbifold group of {symbol}")
print(orb.export_text())

for text in ["(0,o1|(2,1),(2,1))", "(1,o1|)", "(2,n2|)"]:
    s = parse_symbol(text)
    pres = pi1(s)
    print(f"\n{text}: {len(pres.generators)} generators, "
          f"{len(pres.relators)} relators, H1 = {first_homology(s)}")
