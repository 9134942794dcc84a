"""Both nef routes on complete characteristic-p slabs.

A slab is every spec admitted at one (p, d): gamma in N^4 with the type
parity, the char-p rule gamma^(1) <= p(2d-1) and an integral n >= 1
from the rational-image constraint.  Each slab is finite: the char-p
rule keeps gamma in the simplex of coordinate sum p(2d-1), and gamma
fixes n.  So walking that simplex gives the whole slab, and a check on
it holds for every spec at that (p, d), with no period lemma.

The reduced slab keeps gamma_1 <= gamma_2 <= gamma_3.  The reduction
is sound because everything checked is symmetric in coordinates 1..3:
the char-p rule, the C~p row (p*w - gamma^(1)), both routes' rows and
the pairing q(alpha) = ||gamma - w*alpha||^2, under one permutation of
gamma and alpha alike.  The unreduced slabs at p = 3 and 5 check it."""

import time

from osculant.nef import LambdaSpec, _minimizer, nef_check, thresholds

from test_windows import certify_windows

# specs per reduced slab, summed over d <= 4, and per unreduced slab
REDUCED = {3: 117, 5: 583, 7: 1823}
UNREDUCED = {3: 392, 5: 2374}


def _slab(p: int, d: int, reduced: bool):
    """(n, gamma) of every admitted spec at (p, d), gamma_1 <= gamma_2
    <= gamma_3 when reduced: gamma_0 of the other parity than gamma_1..3,
    each coordinate within the sum p(2d-1) leaves, n of gamma_1's parity."""
    w = 2 * d - 1
    left = p * w
    for q in (0, 1):
        for g0 in range(1 - q, left + 1, 2):
            for g1 in range(q, left - g0 + 1, 2):
                for g2 in range(g1 if reduced else q, left - g0 - g1 + 1, 2):
                    for g3 in range(g2 if reduced else q,
                                    left - g0 - g1 - g2 + 1, 2):
                        num = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 - 3
                        n = num // (2 * w) + 1
                        if num >= 0 and num % (2 * w) == 0 and n % 2 == q:
                            yield n, (g0, g1, g2, g3)


def _order(gamma) -> tuple[int, ...]:
    """The coordinate order that sorts gamma_1..3, gamma_0 first."""
    return (0, *sorted((1, 2, 3), key=gamma.__getitem__))


def _moved(points, order) -> tuple:
    """The alphas with their coordinates taken in order, sorted."""
    return tuple(sorted(tuple(a[i] for i in order) for a in points))


def _signature(report, order=(0, 1, 2, 3)) -> tuple:
    """Both verdicts, the failing row, both class excesses, the
    minimizer claim and the three certificate checks, with the argmins
    and the contacts (so the contacts of each k) moved by order."""
    t0, t1 = thresholds(report.spec.d)
    _, cand_xs, least, argmins = _minimizer(report)
    return (report.failing_constraint is None, report.is_nef(),
            report.failing_constraint,
            report.scan.min_k0 - t0, report.scan.min_other - t1,
            min(cand_xs) == least, _moved(argmins, order),
            _moved(report.boundary_contacts, order),
            tuple(certify_windows.failed_checks(report)))


def _least_candidate_sums(report) -> list[int]:
    """alpha^(1) of each candidate (mu, nat_mu or a flat_mu) that
    reaches the least excess.  A candidate past p is no curve in
    characteristic p, and the code never asks whether one within p
    reaches it."""
    dec, cand_xs, least, _ = _minimizer(report)
    cands = (dec.mu, dec.nat_mu, *dec.flat_mu_set)
    return [sum(v) for v, x in zip(cands, cand_xs) if x == least]


def test_every_reduced_slab_up_to_p_7_and_d_4_is_certified():
    start = time.perf_counter()
    counts, seen = {}, set()
    over_budget = 0
    for p in REDUCED:
        counts[p] = 0
        for d in range(1, 5):
            for n, gamma in _slab(p, d, reduced=True):
                report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p)
                sig = _signature(report)
                assert sig[-1] == (), (p, report.spec, sig[-1])
                sums = _least_candidate_sums(report)
                assert min(sums) <= p, (p, report.spec, sums)
                over_budget += max(sums) > p
                seen.add(sig[2])
                counts[p] += 1
    assert counts == REDUCED
    # the slabs hold nef specs and two kinds of failing row (none fails
    # at eps-sum first), and some least candidate lies past the budget,
    # so the budget check is not vacuous
    assert seen == {None, "eps-norm", "eps-pair"}
    assert over_budget > 0
    assert time.perf_counter() - start < 1.0


def test_a_reduced_slab_has_the_signatures_of_the_unreduced_one():
    for p in UNREDUCED:
        count = 0
        for d in range(1, 5):
            reduced = {gamma: _signature(nef_check(LambdaSpec(n, d, gamma),
                                                   mode="both", p=p))
                       for n, gamma in _slab(p, d, reduced=True)}
            orbits = set()
            for n, gamma in _slab(p, d, reduced=False):
                order = _order(gamma)
                key = tuple(gamma[i] for i in order)
                report = nef_check(LambdaSpec(n, d, gamma), mode="both", p=p)
                assert _signature(report, order) == reduced[key], (p, gamma)
                orbits.add(key)
                count += 1
            assert orbits == set(reduced)
        assert count == UNREDUCED[p]
