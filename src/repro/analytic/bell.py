"""Bell-shaped density smoothing (NTUplace3 [10], used by baseline [11]).

Each device spreads its area into bins through a separable bell-shaped
kernel :math:`p_x(d) \\cdot p_y(d)`; the density penalty is
:math:`\\sum_b (D_b - D_{target})^2`.  Following NTUplace3, along one
axis with device size :math:`w_i` and bin size :math:`w_b`:

.. math::
    p(d) = \\begin{cases}
      1 - a d^2 & 0 \\le d \\le w_i/2 + w_b \\\\
      b (d - w_i/2 - 2 w_b)^2 & w_i/2 + w_b \\le d \\le w_i/2 + 2 w_b \\\\
      0 & \\text{otherwise}
    \\end{cases}

with :math:`a = 4 / ((w_i + 2 w_b)(w_i + 4 w_b))` and
:math:`b = 2 / (w_b (w_i + 4 w_b))`, which makes :math:`p` continuous
and differentiable at both junctions.  ``d`` is the distance between
the device centre and the bin centre.
"""

from __future__ import annotations

import numpy as np


def _bell_constants(
    size: np.ndarray | float, bin_size: np.ndarray | float
) -> tuple:
    """Knee, cutoff and the ``a``/``b`` coefficients of the bell."""
    knee = size / 2 + bin_size
    cutoff = size / 2 + 2 * bin_size
    a = 4.0 / ((size + 2 * bin_size) * (size + 4 * bin_size))
    b = 2.0 / (bin_size * (size + 4 * bin_size))
    return knee, cutoff, a, b


def _bell(
    d: np.ndarray, knee, cutoff, a, b
) -> tuple[np.ndarray, np.ndarray]:
    """Bell value and signed derivative; the constants broadcast."""
    ad = np.abs(d)
    inner = ad <= knee
    outer = (ad > knee) & (ad <= cutoff)
    value = np.where(
        inner, 1.0 - a * ad ** 2,
        np.where(outer, b * (ad - cutoff) ** 2, 0.0),
    )
    deriv = np.where(
        inner, -2.0 * a * ad,
        np.where(outer, 2.0 * b * (ad - cutoff), 0.0),
    )
    return value, deriv * np.sign(d)


def bell_profile(
    d: np.ndarray, size: float, bin_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bell value and derivative w.r.t. signed distance ``d``.

    ``d`` may be signed; the bell is even, so the derivative is odd.
    """
    return _bell(d, *_bell_constants(size, bin_size))


class BellDensityGrid:
    """Bin grid evaluating the NTUplace3 quadratic density penalty.

    :meth:`penalty_and_grad` evaluates the bells of every device on
    both axes as one ``(2n, bins)`` array.  Only the reductions whose
    floating-point order would change with batching stay per device on
    each device's window slices: the normalisation sums and the two
    gradient contractions.  The result is bit-identical to evaluating
    one device at a time, which the CG line search of [11] needs —
    round-off of ~1e-15 already changes its placements.
    """

    def __init__(
        self,
        widths: np.ndarray,
        heights: np.ndarray,
        region_w: float,
        region_h: float,
        bins: int = 32,
    ) -> None:
        self.widths = np.asarray(widths, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        if self.widths.shape != self.heights.shape:
            raise ValueError(
                f"widths {self.widths.shape} and heights "
                f"{self.heights.shape} differ in length"
            )
        if int(bins) < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.areas = self.widths * self.heights
        self.region_w = float(region_w)
        self.region_h = float(region_h)
        self.bins = int(bins)
        self.hx = self.region_w / self.bins
        self.hy = self.region_h / self.bins
        self.centers_x = (np.arange(self.bins) + 0.5) * self.hx
        self.centers_y = (np.arange(self.bins) + 0.5) * self.hy
        self.target = self.areas.sum() / (self.bins * self.bins)
        # x and y bells are evaluated as one (2n, bins) problem: rows
        # [0, n) are the x axis, rows [n, 2n) the y axis.  Per row: the
        # bin step, the bin centres and the bell's (knee, cutoff, a, b);
        # the cutoff is also the half-width of the row's bin window.
        n = len(self.widths)
        self._steps = np.repeat([self.hx, self.hy], n)[:, None]
        self._centers = np.concatenate([
            np.broadcast_to(self.centers_x, (n, self.bins)),
            np.broadcast_to(self.centers_y, (n, self.bins)),
        ])
        self._bell_consts = _bell_constants(
            np.concatenate([self.widths, self.heights])[:, None],
            self._steps,
        )

    def _bells(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bells of every device on both axes, zero outside windows.

        Returns ``(value, deriv, lo, hi)``: two ``(2n, bins)`` arrays
        and each row's window ``[lo, hi)`` of bin indices, clamped the
        way ``max(int(...), 0)`` and ``min(int(np.ceil(...)), bins)``
        clamp one device's scalars.
        """
        _, cutoff, _, _ = self._bell_consts
        pos = np.concatenate([x, y])[:, None]
        lo = np.minimum(np.maximum(
            np.trunc((pos - cutoff) / self._steps), 0), self.bins)
        hi = np.maximum(np.minimum(
            np.ceil((pos + cutoff) / self._steps), self.bins), lo)
        index = np.arange(self.bins)
        # bins outside a window sit at infinite distance, where the
        # bell and its derivative are exactly 0
        d = np.where((index >= lo) & (index < hi),
                     pos - self._centers, np.inf)
        value, deriv = _bell(d, *self._bell_consts)
        return value, deriv, lo[:, 0].astype(int), hi[:, 0].astype(int)

    def penalty_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Quadratic density penalty and its analytic gradient.

        The device's bell mass is normalised so its total deposited area
        equals the true device area (NTUplace3's :math:`c_i` factor).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("device positions must be finite")
        n = len(x)
        value, deriv, lo, hi = self._bells(x, y)
        px, py = value[:n], value[n:]
        dpx, dpy = deriv[:n], deriv[n:]
        live = np.flatnonzero((hi[:n] > lo[:n]) & (hi[n:] > lo[n:]))
        windows = list(zip(
            live.tolist(), lo[live].tolist(), hi[live].tolist(),
            lo[live + n].tolist(), hi[live + n].tolist(),
        ))

        total = np.zeros(n)
        for i, x0, x1, y0, y1 in windows:
            total[i] = px[i, x0:x1].sum() * py[i, y0:y1].sum()
        positive = total > 0
        c = np.where(
            positive, self.areas / np.where(positive, total, 1.0), 0.0)

        # bins outside a window add an exact 0.0, so the in-order sum
        # over devices equals accumulating each window in turn
        density = (c[:, None, None] * (
            px[:, :, None] * py[:, None, :])).sum(axis=0)
        resid = density - self.target
        penalty = float((resid ** 2).sum())

        grad_x = np.zeros(n)
        grad_y = np.zeros(n)
        for i, x0, x1, y0, y1 in windows:
            window = resid[x0:x1, y0:y1]
            grad_x[i] = 2.0 * c[i] * float(np.einsum(
                "xy,x,y->", window, dpx[i, x0:x1], py[i, y0:y1]))
            grad_y[i] = 2.0 * c[i] * float(np.einsum(
                "xy,x,y->", window, px[i, x0:x1], dpy[i, y0:y1]))
        return penalty, grad_x, grad_y
