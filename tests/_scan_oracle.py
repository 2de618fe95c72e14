"""Subset-by-subset admissibility scan: the reference the tests hold
``calabiflow._kernels.scan_subsets`` against, tuple for tuple.

``scan_subsets`` walks the subsets in (size, lexicographic) order and
evaluates each one on its own with small numpy calls, stopping at the first
violator.  The library screens whole blocks of subsets at once and
re-evaluates only the rows its screen flags, by this loop's body, so its
result must equal this loop's bit for bit.
"""

import math

import numpy as np


def scan_subsets(n, target, ea, eb, fv, fe, pmp, tol):
    """``(found, members, lhs, rhs, checked)``, as ``_kernels.scan_subsets``."""
    checked = 0
    two_pi = 2.0 * math.pi
    inside = np.zeros(n, dtype=np.bool_)
    for size in range(1, n):
        c = list(range(size))
        while True:
            inside[:] = False
            inside[c] = True
            lhs = float(np.sum(target[c]))
            e_in = int(np.sum(inside[ea] & inside[eb]))
            m0 = inside[fv[:, 0]]
            m1 = inside[fv[:, 1]]
            m2 = inside[fv[:, 2]]
            f_in = int(np.sum(m0 & m1 & m2))
            lk = 0.0
            lk += float(np.sum(pmp[fe[m0 & ~m1 & ~m2, 0]]))
            lk += float(np.sum(pmp[fe[~m0 & m1 & ~m2, 1]]))
            lk += float(np.sum(pmp[fe[~m0 & ~m1 & m2, 2]]))
            chi_sub = size - e_in + f_in
            rhs = -lk + two_pi * chi_sub
            checked += 1
            if lhs <= rhs + tol:
                return True, list(c), lhs, rhs, checked
            i = size - 1
            while i >= 0 and c[i] == n - size + i:
                i -= 1
            if i < 0:
                break
            c[i] += 1
            for j in range(i + 1, size):
                c[j] = c[j - 1] + 1
    return False, [], 0.0, 0.0, checked
