"""Adaptive panel quadrature for vector-valued oscillatory integrands.

The driver integrates f over [a, b] where f maps an array of abscissae with
shape (m,) to values of shape (m, ...); all trailing axes are integrated
independently.  Panels start no wider than `max_panel` (callers set it to a
fraction of the oscillation period) and are bisected until the summed
Gauss-Kronrod error estimate falls below the absolute tolerance.
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


def _panel_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate K15 and |K15-G7| for a batch of panels in one call to f."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = f(xs.ravel())
    vals = np.asarray(vals)
    tail = vals.shape[1:]
    vals = vals.reshape(len(lo), 15, *tail)
    k15 = np.einsum("j,pj...->p...", _WGK, vals) * half.reshape(
        (len(lo),) + (1,) * len(tail)
    )
    g7 = np.einsum("j,pj...->p...", _WG, vals[:, _GAUSS_IDX]) * half.reshape(
        (len(lo),) + (1,) * len(tail)
    )
    err = np.abs(k15 - g7)
    while err.ndim > 1:
        err = err.max(axis=-1)
    return k15, err


def adaptive_quad(f, a: float, b: float, tol: float, max_panel: float | None = None,
                  max_panels: int = 4096):
    """Integrate f over [a, b] to absolute tolerance `tol`.

    Returns (integral, error_estimate) where the integral carries f's
    trailing shape.  The budget of `max_panels` includes the initial split
    into panels no wider than `max_panel`: if that split alone exceeds it,
    NumericalError is raised before f is evaluated.  Otherwise NumericalError
    carries the achieved estimate when the budget runs out before convergence.
    """
    if b <= a:
        raise NumericalError(f"empty integration interval [{a}, {b}]")
    width = b - a
    if max_panel is None or max_panel >= width:
        n0 = 1
    else:
        n0 = int(np.ceil(width / max_panel))
    if n0 > max_panels:
        raise NumericalError(
            f"quadrature needs {n0} initial panels, more than the budget of "
            f"{max_panels}")
    edges = a + width * np.arange(n0 + 1) / n0
    los, his = edges[:-1], edges[1:]
    vals, errs = _panel_eval(f, los, his)

    # Priority queue of panels by descending error; the counter breaks ties
    # so heapq never compares the payload arrays.
    heap = [(-float(errs[i]), i, los[i], his[i], vals[i]) for i in range(n0)]
    heapq.heapify(heap)
    n_panels = n0
    counter = n0
    total_err = float(errs.sum())
    # Written as `not <=` so a NaN estimate never counts as converged.
    while not total_err <= tol and n_panels < max_panels:
        neg_err, _, lo, hi, _val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, v2), (e1, e2) = _panel_eval(f, np.array([lo, mid]), np.array([mid, hi]))
        total_err += float(e1 + e2) + neg_err
        heapq.heappush(heap, (-float(e1), counter, lo, mid, v1))
        heapq.heappush(heap, (-float(e2), counter + 1, mid, hi, v2))
        counter += 2
        n_panels += 1
    total = sum(item[4] for item in heap)
    if not total_err <= tol:
        raise NumericalError(
            f"quadrature did not converge to {tol:g} with {max_panels} panels",
            achieved=total_err,
            partial=total,
        )
    return total, total_err
