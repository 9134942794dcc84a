"""Reference minimizer of q(alpha) = ||gamma - w*alpha||^2 by box scan.

Every exceptional alpha >= 0 in a box of half-width ``radius`` around mu
is visited, with alpha^(1) <= p in characteristic p.  Whenever an argmin
lies on an artificial face (the upper face, or a lower face not clamped
at 0) the box grows by 2 and the scan repeats.  This was the library's
brute route before the exact orthant minimizer replaced it; the tests
keep it as an independent oracle for ``osculant.nef.scan_box``.
"""

from osculant import BoxScan

RADIUS = 3          # initial half-width of the box
ENLARGE_LIMIT = 32  # added to RADIUS before giving up


def class_of(alpha) -> int | None:
    """0 for the k(alpha) = 0 class, 1 for k != 0, None when alpha has an
    even square sum (an even number of odd coordinates)."""
    odd = [i for i, a in enumerate(alpha) if a & 1]
    if len(odd) == 1:
        return 0 if odd[0] == 0 else 1
    if len(odd) == 3:
        return 0 if 0 not in odd else 1
    return None


def _scan_once(gamma, d, mu, radius, p):
    w = 2 * d - 1
    axes = [range(max(0, mu[i] - radius), mu[i] + radius + 1)
            for i in range(4)]
    best = [None, None]
    arg = [[], []]
    for a0 in axes[0]:
        c0 = (gamma[0] - w * a0) ** 2
        for a1 in axes[1]:
            c1 = c0 + (gamma[1] - w * a1) ** 2
            for a2 in axes[2]:
                c2 = c1 + (gamma[2] - w * a2) ** 2
                for a3 in axes[3]:
                    alpha = (a0, a1, a2, a3)
                    if p is not None and sum(alpha) > p:
                        continue
                    cls = class_of(alpha)
                    if cls is None:
                        continue
                    qv = c2 + (gamma[3] - w * a3) ** 2
                    if best[cls] is None or qv < best[cls]:
                        best[cls], arg[cls] = qv, [alpha]
                    elif qv == best[cls]:
                        arg[cls].append(alpha)
    scan = BoxScan(best[0], tuple(sorted(arg[0])),
                   best[1], tuple(sorted(arg[1])))
    onface = any(pt[i] == mu[i] + radius
                 or (pt[i] == axes[i][0] and axes[i][0] > 0)
                 for pt in scan.argmins() for i in range(4))
    return scan, onface


def box_scan(gamma, d, mu, p=None) -> BoxScan:
    """The box scan around mu, grown until no argmin is on a face."""
    for r in range(RADIUS, RADIUS + ENLARGE_LIMIT + 1, 2):
        scan, onface = _scan_once(tuple(gamma), d, tuple(mu), r, p)
        if not onface:
            return scan
    raise AssertionError(f"minimum still on the box face after every "
                         f"enlargement (gamma={gamma}, d={d})")
