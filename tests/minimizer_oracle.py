"""Reference for ``osculant.nef.verify_minimizer_claim``: the claim as
it was decided before it moved to integer excesses, on exact Fraction
pairing values.

The value of Lambda . G~alpha is (q(alpha) - t)/4w with the threshold t
of the class of alpha (``osculant.nef.thresholds``), the candidates are
mu, nat_mu and every flat_mu, and the minimum over all exceptional
alpha is read off the first minimizer of each class of the brute scan.
"""

from fractions import Fraction

from osculant import MinimizerReport, nef_check, thresholds
from osculant.vectors import minority_index


def pairing(gamma, d, alpha) -> Fraction:
    w = 2 * d - 1
    q = sum((g - w * x) ** 2 for g, x in zip(gamma, alpha))
    t0, t1 = thresholds(d)
    return Fraction(q - (t0 if minority_index(alpha) == 0 else t1), 4 * w)


def verify_minimizer_claim(spec, p=None) -> MinimizerReport:
    report = nef_check(spec, mode="brute", p=p)
    dec, scan = report.decomposition, report.scan
    cands = [("mu", dec.mu), ("nat_mu", dec.nat_mu)]
    cands += [(f"flat_mu[{i}]", v) for i, v in enumerate(dec.flat_mu_set)]
    cand_rows = [(name, vec, pairing(spec.gamma, spec.d, vec))
                 for name, vec in cands]
    lows = [(pairing(spec.gamma, spec.d, argmin[0]), argmin)
            for argmin in (scan.argmin_k0, scan.argmin_other)]
    vmin = min(v for v, _ in lows)
    argmins = tuple(sorted(a for v, argmin in lows if v == vmin
                           for a in argmin))
    holds = min(v for _, _, v in cand_rows) == vmin
    counterexamples = () if holds else argmins
    return MinimizerReport(holds, vmin, argmins, tuple(cand_rows),
                           counterexamples)
