"""Real trigonometric polynomials on products of circles.

A TrigPoly is a finite sum

    f(theta) = sum_k  c_k cos(k . theta) + s_k sin(k . theta)

over integer frequency vectors k of a fixed arity (1 for a circle,
2 for a flat torus).  Angles live on [0, 2*pi) per factor.  The class
supports exact algebra (sum, product, partial derivatives) via the
product-to-sum identities, so potentials and their derived quantities
never pick up sampling error.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _canonical(key):
    """Canonical form of a frequency vector.

    Returns (key, sign): the first nonzero entry of the canonical key is
    positive; sign is -1 when the vector was negated (sine amplitudes flip).
    """
    for k in key:
        if k > 0:
            return tuple(key), 1
        if k < 0:
            return tuple(-k for k in key), -1
    return tuple(key), 1


class TrigPoly:
    """Trigonometric polynomial with real cosine/sine amplitudes.

    terms maps a canonical frequency vector to an (cos_amp, sin_amp) pair.
    The zero vector carries no sine amplitude.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        if arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {arity}")
        self.arity = arity
        self.terms = {}
        if terms:
            for key, (c, s) in terms.items():
                self._add(key, float(c), float(s))

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "TrigPoly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, value: float) -> "TrigPoly":
        p = cls(arity)
        p._add((0,) * arity, float(value), 0.0)
        return p

    @classmethod
    def cosine(cls, key, amp: float = 1.0) -> "TrigPoly":
        p = cls(len(key))
        p._add(tuple(key), float(amp), 0.0)
        return p

    @classmethod
    def sine(cls, key, amp: float = 1.0) -> "TrigPoly":
        p = cls(len(key))
        p._add(tuple(key), 0.0, float(amp))
        return p

    def _add(self, key, c: float, s: float):
        if len(key) != self.arity:
            raise ValueError(f"key {key} has wrong arity (expected {self.arity})")
        key, sign = _canonical(key)
        s = sign * s
        if all(k == 0 for k in key):
            s = 0.0  # sin(0) contributes nothing
        c0, s0 = self.terms.get(key, (0.0, 0.0))
        c0, s0 = c0 + c, s0 + s
        if c0 == 0.0 and s0 == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = (c0, s0)

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = TrigPoly(self.arity)
        for key, (c, s) in self.terms.items():
            out._add(key, c, s)
        for key, (c, s) in other.terms.items():
            out._add(key, c, s)
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return TrigPoly(self.arity, {k: (-c, -s) for k, (c, s) in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPoly(
                self.arity,
                {k: (other * c, other * s) for k, (c, s) in self.terms.items()},
            )
        other = self._coerce(other)
        out = TrigPoly(self.arity)
        # product-to-sum: with z = c - i*s per term, the product contributes
        # Re[z1*z2 e^{i(k+l).theta}]/2 + Re[z1*conj(z2) e^{i(k-l).theta}]/2
        for k, (c1, s1) in self.terms.items():
            for l, (c2, s2) in other.terms.items():
                kp = tuple(a + b for a, b in zip(k, l))
                km = tuple(a - b for a, b in zip(k, l))
                out._add(kp, 0.5 * (c1 * c2 - s1 * s2), 0.5 * (c1 * s2 + s1 * c2))
                out._add(km, 0.5 * (c1 * c2 + s1 * s2), 0.5 * (s1 * c2 - c1 * s2))
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, other) -> "TrigPoly":
        if isinstance(other, TrigPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        if isinstance(other, (int, float)):
            return TrigPoly.const(self.arity, other)
        raise TypeError(f"cannot combine TrigPoly with {type(other)!r}")

    def partial(self, i: int) -> "TrigPoly":
        """Partial derivative with respect to angle i."""
        out = TrigPoly(self.arity)
        for key, (c, s) in self.terms.items():
            ki = key[i]
            if ki == 0 and all(k == 0 for k in key):
                continue
            # d/dtheta_i [c cos(k.th) + s sin(k.th)] = -c*ki sin + s*ki cos
            out._add(key, s * ki, -c * ki)
        return out

    # -- queries ------------------------------------------------------

    def __call__(self, *coords):
        """Evaluate at angles.  Accepts one array per factor (broadcastable)."""
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinate arrays")
        coords = [np.asarray(c, dtype=float) for c in coords]
        val = np.zeros(np.broadcast(*coords).shape) if coords[0].ndim else 0.0
        for key, (c, s) in sorted(self.terms.items()):
            phase = sum(k * th for k, th in zip(key, coords))
            val = val + c * np.cos(phase) + s * np.sin(phase)
        if np.ndim(val) == 0:
            return float(val)
        return val

    def max_freq(self):
        """Per-factor maximum absolute frequency, as a tuple."""
        out = [0] * self.arity
        for key in self.terms:
            for i, k in enumerate(key):
                out[i] = max(out[i], abs(k))
        return tuple(out)

    def is_separable(self):
        """True when no term mixes the two factors (arity 2 only)."""
        if self.arity == 1:
            return True
        return all(sum(1 for k in key if k != 0) <= 1 for key in self.terms)

    def factor_parts(self):
        """Split a separable arity-2 polynomial into (h1, h2, const).

        f(th1, th2) = h1(th1) + h2(th2) + const with h1, h2 of arity 1 and
        zero mean-free constant pushed into `const`.
        """
        if self.arity != 2 or not self.is_separable():
            raise ValueError("polynomial is not separable")
        h1, h2 = TrigPoly.zero(1), TrigPoly.zero(1)
        const = 0.0
        for (k1, k2), (c, s) in self.terms.items():
            if k1 == 0 and k2 == 0:
                const += c
            elif k2 == 0:
                h1._add((k1,), c, s)
            else:
                h2._add((k2,), c, s)
        return h1, h2, const

    def __repr__(self):
        if not self.terms:
            return f"TrigPoly({self.arity}, 0)"
        bits = []
        for key, (c, s) in sorted(self.terms.items()):
            if c:
                bits.append(f"{c:+g}*cos{key}")
            if s:
                bits.append(f"{s:+g}*sin{key}")
        return f"TrigPoly({self.arity}, {' '.join(bits)})"


def circle_sin2() -> TrigPoly:
    """Default circle potential sin(2*theta): two minima, two maxima."""
    return TrigPoly.sine((2,), 1.0)


def torus_sin2_product() -> TrigPoly:
    """Default torus potential sin(2*theta1) + sin(2*theta2)."""
    return TrigPoly.sine((2, 0), 1.0) + TrigPoly.sine((0, 2), 1.0)
