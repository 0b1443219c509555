"""van Genuchten-Mualem soil hydraulic closures.

All functions accept scalar or array pressure heads [m] and a
``VanGenuchtenParams`` whose fields are scalars (one soil) or per-node
arrays (a field), so the same closures serve single-sample tests and
vectorized grid evaluation. Saturated inputs (h >= 0) are clamped to the
saturated values. A closure that computes its own logs enters an
``np.errstate`` for the log of 0 and extreme heads; one handed ``out``
(``suction_logs``) or ``logs`` (K, C) runs in its caller's, as the steppers'
``richards._node_terms`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import _real


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class VanGenuchtenParams:
    """Soil hydraulic parameters (alpha [1/m], K_s [m/s], contents [m3/m3]).

    Each field is a scalar (one soil) or a per-node array (a field, see
    ``from_zones``). The parameter products the closures read are computed
    once, at construction. Per-node sets hold arrays, so like any dataclass
    of arrays they cannot be compared with ``==``.
    """

    alpha: float | np.ndarray
    n_vg: float | np.ndarray
    theta_r: float | np.ndarray
    theta_s: float | np.ndarray
    k_s: float | np.ndarray
    m_vg: float | np.ndarray = _derived()
    neg_alpha: float | np.ndarray = _derived()
    n_minus_1: float | np.ndarray = _derived()
    neg_m_plus_1: float | np.ndarray = _derived()
    half_neg_m: float | np.ndarray = _derived()
    c_scale: float | np.ndarray = _derived()

    def __post_init__(self):
        if not (_real(self.alpha) and np.all((0 < self.alpha) & (self.alpha < np.inf))):
            raise ValidationError("alpha must be finite and > 0")
        if not (_real(self.n_vg) and np.all((1 < self.n_vg) & (self.n_vg < np.inf))):
            raise ValidationError("n_vg must be finite and > 1")
        if not (_real(self.k_s) and np.all((0 < self.k_s) & (self.k_s < np.inf))):
            raise ValidationError("k_s must be finite and > 0")
        thetas = _real(self.theta_r) and _real(self.theta_s)
        if not (thetas and np.all((0 <= self.theta_r) & (self.theta_r < self.theta_s) & (self.theta_s <= 1))):
            raise ValidationError("require 0 <= theta_r < theta_s <= 1")
        m = 1.0 - 1.0 / self.n_vg
        for name, value in (
            ("m_vg", m),
            ("neg_alpha", -self.alpha),
            ("n_minus_1", self.n_vg - 1.0),
            ("neg_m_plus_1", -(m + 1.0)),
            ("half_neg_m", -0.5 * m),
            ("c_scale", (self.theta_s - self.theta_r) * m * self.n_vg * self.alpha),
        ):
            object.__setattr__(self, name, value)

    def _pick(self, index) -> "VanGenuchtenParams":
        """The per-node entries at ``index`` of every field, derived products included, not re-derived."""
        picked = object.__new__(VanGenuchtenParams)
        picked.__dict__.update({name: value[index] for name, value in vars(self).items()})
        return picked

    @classmethod
    def from_zones(cls, zone_of_node: np.ndarray, zones: "list[VanGenuchtenParams]") -> "VanGenuchtenParams":
        """Per-node parameters: each node takes the values of its zone in ``zones``."""
        z = np.asarray(zone_of_node, dtype=int)
        if z.min() < 0 or z.max() >= len(zones):
            raise ValidationError("zone_of_node references a zone outside soil.zones")
        pick = lambda attr: np.array([getattr(p, attr) for p in zones], dtype=float)[z]
        return cls(pick("alpha"), pick("n_vg"), pick("theta_r"), pick("theta_s"), pick("k_s"))


def suction_logs(h, p, out=None):
    """(L, nL, lo) = (log(alpha|h|), n L, log(1 + exp(nL))), with |h| read as 0 where h >= 0.

    The terms the closures below start from; pass them as ``logs`` to
    evaluate them once per state. Where h >= 0, L = nL = -inf and lo = 0,
    which sends the closures' exponentials to their saturated limits with no
    further mask. ``out`` takes three arrays of the broadcast shape to write
    the terms into.
    """
    h = np.asarray(h, dtype=float)
    if out is None:
        shape = np.broadcast_shapes(h.shape, np.shape(p.alpha))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return suction_logs(h, p, (np.empty(shape), np.empty(shape), np.empty(shape)))
    log_ah, n_log, log_one_a = out
    np.multiply(h, p.neg_alpha, out=log_ah)
    np.maximum(log_ah, 0.0, out=log_ah)
    np.log(log_ah, out=log_ah)
    np.multiply(log_ah, p.n_vg, out=n_log)
    np.exp(n_log, out=log_one_a)
    log_one_a += 1.0
    np.log(log_one_a, out=log_one_a)
    return out


def water_content(h, p):
    """Volumetric water content theta(h) [m3/m3]; theta_s for h >= 0.

    theta = theta_r + (theta_s - theta_r) S_e with S_e = (1 + a)^-m =
    exp(-m lo) in the terms of ``suction_logs``.
    """
    _, _, log_one_a = suction_logs(h, p)
    return p.theta_r + (p.theta_s - p.theta_r) * np.exp(-p.m_vg * log_one_a)


def capillary_capacity(h, p, logs=None, out=None):
    """Capillary capacity c(h) = d theta / dh [1/m]; 0 at saturation.

    c = (theta_s - theta_r) m n alpha exp((n - 1) L - (m + 1) lo) in the
    terms of ``suction_logs``.
    """
    if logs is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return capillary_capacity(h, p, suction_logs(h, p), out)
    c = np.multiply(logs[0], p.n_minus_1, out=np.empty_like(logs[0]) if out is None else out)
    c += np.multiply(logs[2], p.neg_m_plus_1)
    np.exp(c, out=c)
    c *= p.c_scale
    return c


def hydraulic_conductivity(h, p, logs=None, out=None):
    """Unsaturated hydraulic conductivity K(h) [m/s], Mualem form; K(0) = K_s.

    K = K_s S_e^(1/2) (1 - (1 - S_e^(1/m))^m)^2 with S_e^(1/m) = 1/(1 + a),
    evaluated as K_s exp(-m lo/2) (1 - exp(m (nL - lo)))^2 in the terms of
    ``suction_logs``.
    """
    if logs is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return hydraulic_conductivity(h, p, suction_logs(h, p), out)
    _, n_log, log_one_a = logs
    k = np.subtract(n_log, log_one_a, out=np.empty_like(n_log) if out is None else out)
    k *= p.m_vg
    np.exp(k, out=k)
    np.subtract(1.0, k, out=k)
    k *= k
    root_se = np.multiply(log_one_a, p.half_neg_m, out=np.empty_like(log_one_a))
    k *= np.exp(root_se, out=root_se)
    k *= p.k_s
    return k
