"""Generating functions in X = sqrt(1 - 4z), and exact coefficient extraction.

Counts with a fixed number of reticulations have generating functions that
are Laurent polynomials in X.  Extracting [z^n] of any integer power of X
has a closed form, so series counts need no truncated arithmetic.  The only
denominator is the 1/2 in f_0, so the library sweeps F_d = 2 f_d with integer
coefficients (an integer polynomial extracts to an int, as the X line below
shows) and makes each count with one remainder-checked division.

For one and two reticulations the extraction collapses further, to closed
forms in binomials and double factorials, and the difference from the
leading term is a polynomial of degree d-1 that the library fits and
verifies exactly.
"""
from treechild import (
    LaurentPoly,
    count_tc_genfun_k1,
    count_tc_genfun_k2,
    f_laurent,
    structural_k1_polynomial,
    tc_k1_closed_form,
    tc_k2_closed_form,
    z_coefficient,
)


def main() -> None:
    print("Building blocks f_d as Laurent polynomials in X:")
    for d in (0, 2, 3):
        print(f"  f_{d} = {f_laurent(d)!r}")

    print()
    x = LaurentPoly({1: 1})
    print("Coefficients of X itself: ", [z_coefficient(x, n) for n in range(6)])

    print()
    print("Series counts for one and two reticulations, d = 2:")
    for n in range(2, 8):
        k1 = count_tc_genfun_k1(2, n)
        k2 = count_tc_genfun_k2(2, n) if n >= 3 else "-"
        print(f"  n = {n}: TC(n,1) = {k1}, TC(n,2) = {k2}")

    print()
    print("Closed forms match the series (d = 3 shown):")
    for n in (4, 6, 8):
        assert tc_k1_closed_form(3, n) == count_tc_genfun_k1(3, n)
        assert tc_k2_closed_form(3, n) == count_tc_genfun_k2(3, n)
        print(f"  n = {n}: k=1 {tc_k1_closed_form(3, n)}, k=2 {tc_k2_closed_form(3, n)}")

    print()
    print("Correction polynomial p_d for the k = 1 count, ascending coefficients:")
    for d in (2, 3, 4):
        print(f"  d = {d}: {structural_k1_polynomial(d)}")


if __name__ == "__main__":
    main()
