"""Adaptive panel quadrature for K components of one vector-valued integrand.

`f` maps an array of abscissae with shape (m,) to a tuple of K arrays, each
of shape (m, ...); all trailing axes are integrated independently.  Panels
start no wider than `max_panel` (callers set it to a fraction of the
oscillation period) and are bisected until the summed Gauss-Kronrod error
estimate falls below the absolute tolerance.

Each component keeps its own heap, stop rule and panel budget, so its panel
tree is the one a call with that component alone would build; the trees are
refined one after another.  Evaluations are shared: one call to `f` serves
every component for each batch of panels, that is each block of the initial
split and each pair of children of a bisected panel.  The K15 and error
estimates of the components whose trees have not run yet are cached under
the bisected panel and dropped once their tree has read them, so no `f`
values outlive the batch that produced them.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import NumericalError

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)

# Panels per call to f in the initial split.  It bounds the integrand's
# temporaries to SPLIT_BATCH * 15 abscissae times its trailing size.
SPLIT_BATCH = 64


def _panel_eval(f, lo: np.ndarray, hi: np.ndarray):
    """K15 and |K15-G7| of every component for a batch of panels, one call to f."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + half[:, None] * _XGK[None, :]
    out = f(xs.ravel())
    if not isinstance(out, tuple) or not out:
        raise TypeError(
            f"the integrand must return a non-empty tuple of arrays, "
            f"not {type(out).__name__}")
    return [_kronrod(np.asarray(vals), half) for vals in out]


def _kronrod(vals: np.ndarray, half: np.ndarray):
    tail = vals.shape[1:]
    vals = vals.reshape(len(half), 15, *tail)
    scale = half.reshape((len(half),) + (1,) * len(tail))
    k15 = np.einsum("j,pj...->p...", _WGK, vals) * scale
    g7 = np.einsum("j,pj...->p...", _WG, vals[:, _GAUSS_IDX]) * scale
    err = np.abs(k15 - g7)
    while err.ndim > 1:
        err = err.max(axis=-1)
    return k15, err


def adaptive_quad(f, a: float, b: float, tol: float, max_panel: float,
                  max_panels: int = 4096):
    """Integrate each component of f over [a, b] to absolute tolerance `tol`.

    Returns (integrals, errors), two tuples with one entry per component of
    f; each integral carries its component's trailing shape.  The budget of
    `max_panels` per component includes the initial split into panels no
    wider than `max_panel`: if that split alone exceeds it, NumericalError
    is raised before f is evaluated.  Otherwise NumericalError carries the
    achieved estimate of the first component whose budget runs out before
    convergence.  TypeError is raised when f returns anything but a tuple.
    """
    if b <= a:
        raise NumericalError(f"empty integration interval [{a}, {b}]")
    width = b - a
    n0 = 1 if max_panel >= width else int(np.ceil(width / max_panel))
    if n0 > max_panels:
        raise NumericalError(
            f"quadrature needs {n0} initial panels, more than the budget of "
            f"{max_panels}")
    edges = a + width * np.arange(n0 + 1) / n0
    los, his = edges[:-1], edges[1:]
    blocks = [_panel_eval(f, los[s:s + SPLIT_BATCH], his[s:s + SPLIT_BATCH])
              for s in range(0, n0, SPLIT_BATCH)]
    initial = [tuple(np.concatenate(parts) for parts in zip(*comp))
               for comp in zip(*blocks)]
    # cache[c] maps a bisected panel (lo, hi) to component c's children.
    cache = [{} for _ in initial]
    integrals, errors = [], []
    for c, (vals, errs) in enumerate(initial):
        # Priority queue of panels by descending error; the counter breaks
        # ties so heapq never compares the payload arrays.
        heap = [(-float(errs[i]), i, los[i], his[i], vals[i]) for i in range(n0)]
        heapq.heapify(heap)
        n_panels = n0
        counter = n0
        total_err = float(errs.sum())
        # Written as `not <=` so a NaN estimate never counts as converged.
        while not total_err <= tol and n_panels < max_panels:
            neg_err, _, lo, hi, _val = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            children = cache[c].pop((lo, hi), None)
            if children is None:
                comps = _panel_eval(f, np.array([lo, mid]), np.array([mid, hi]))
                for later in range(c + 1, len(comps)):
                    cache[later][(lo, hi)] = comps[later]
                children = comps[c]
            (v1, v2), (e1, e2) = children
            total_err += float(e1 + e2) + neg_err
            heapq.heappush(heap, (-float(e1), counter, lo, mid, v1))
            heapq.heappush(heap, (-float(e2), counter + 1, mid, hi, v2))
            counter += 2
            n_panels += 1
        cache[c].clear()
        total = sum(item[4] for item in heap)
        if not total_err <= tol:
            raise NumericalError(
                f"quadrature did not converge to {tol:g} with {max_panels} panels",
                achieved=total_err,
                partial=total,
            )
        integrals.append(total)
        errors.append(total_err)
    return tuple(integrals), tuple(errors)
