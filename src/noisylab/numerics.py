"""Deterministic numerical primitives: stable softmax, argument and
probability-vector checks, and a seeded splittable random generator.

All floating point work is float64. The random generator wraps numpy's
Philox counter-based bit generator; identical seeds give identical streams
on every platform, and `split` produces non-overlapping child streams via
SeedSequence spawning.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

PROB_ATOL = 1e-9


class Rng:
    """Seeded, splittable random stream (Philox counter-based generator)."""

    def __init__(self, seed=None, _ss=None):
        if _ss is None:
            if seed is None:
                raise ValueError("Rng requires a seed")
            _ss = np.random.SeedSequence(int(seed))
        self._ss = _ss
        self._gen = np.random.Generator(np.random.Philox(_ss))

    def split(self, n):
        """Return n independent child streams; the parent remains usable."""
        return [Rng(_ss=child) for child in self._ss.spawn(int(n))]

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def beta(self, a, b, size=None):
        return self._gen.beta(a, b, size)


def _check_args(fn, integers=None, reals=None):
    """Raise a ValueError naming the first argument that is not of its type
    or not in its interval. integers and reals map each name to (value,
    interval); a bool is neither an integer nor a real number. An interval
    is written like "(0, 1]": a bracket closes its end, a parenthesis opens
    it, and an end may be inf (always open). NaN and +-inf lie in no
    interval. Messages: "<fn>: <name> must be an integer, got <value!r>"
    (or "a real number") and "<fn>: <name> must be in <interval>, got
    <value!r>". An interval written ">= lo" is [lo, inf) named with the
    type, "<name> must be an integer >= lo", for either failure. fn None
    leaves out "<fn>: "."""
    for noun, kind, args in (("an integer", numbers.Integral, integers),
                             ("a real number", numbers.Real, reals)):
        for name, (value, interval) in (args or {}).items():
            typed = isinstance(value, kind) and not isinstance(value, bool)
            if typed:
                lo, hi, closed_lo, closed_hi = _ends(interval)
                # NaN fails every comparison
                if ((lo <= value if closed_lo else lo < value)
                        and (value <= hi if closed_hi else value < hi)):
                    continue
            must = (f"{noun} {interval}" if interval.startswith(">= ")
                    else f"in {interval}" if typed else noun)
            prefix = f"{fn}: " if fn else ""
            raise ValueError(f"{prefix}{name} must be {must}, got {value!r}")


@functools.cache
def _ends(interval):
    """(lo, hi, whether lo is in, whether hi is in) of an interval."""
    if interval.startswith(">= "):
        interval = f"[{interval[3:]}, inf)"
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo, hi, interval[0] == "[" and math.isfinite(lo),
            interval[-1] == "]" and math.isfinite(hi))


def _check_labels(fn, labels, K):
    """Raise a ValueError naming the first of labels (an array) outside
    [0, K)."""
    bad = labels[(labels < 0) | (labels >= K)]
    if bad.size:
        raise ValueError(f"{fn}: label {bad[0]} outside [0, {K})")


def softmax(logits):
    """Stable softmax over the last axis (max-subtracted)."""
    logits = np.asarray(logits, dtype=np.float64)
    # the ufuncs' own reductions: np.all / np.max / np.sum and the array
    # methods reach the same ones through Python wrappers, once per SGD step
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):
        raise ValueError("softmax: non-finite logits")
    # the row max over a transposed copy: NumPy reduces a short last axis
    # row by row (about 29 ns a row at K = 3), a leading axis in one sweep
    row_max = np.maximum.reduce(logits.T.copy(), axis=0).T[..., None]
    e = np.exp(logits - row_max)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def check_prob_vector(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or not np.all((p >= -PROB_ATOL) & (p <= 1 + PROB_ATOL)):
        raise ValueError("invalid probability vector: entries outside [0,1]")
    if not abs(p.sum() - 1.0) <= PROB_ATOL:
        raise ValueError("invalid probability vector: does not sum to 1")
    return p
