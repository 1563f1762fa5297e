"""Minimal continuous-time LTI algebra.

Transfer functions in zero/pole/gain form, state-space realizations,
eigenvalues, imaginary-axis zeros, and frequency response.  Everything
here is real-coefficient, continuous-time, and immutable after
construction.

The frequency response of many points is evaluated as stacks of LU
solves, in chunks of bounded size, with each value bit-identical to one
dense solve at that point (``freq_values``, ``freq_response``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    RealizationError,
    RepresentationError,
)

CONJUGATE_TOL = 1e-10

# bytes of complex n x n matrices per stacked solve; bounds the memory a
# stack adds at large n
STACK_BYTES = 128 * 1024

# a Markov parameter c A^k b counts as zero below this share of |c A^k| |b|
MARKOV_RTOL = 1e-10
# an invariant zero z lies on the jw-axis when |Re z| <= AXIS_RTOL * |z|; one
# within AXIS_RTOL * |Z|_1 of the origin, the rounding of the zero-dynamics
# matrix Z, is the origin
AXIS_RTOL = 1e-8


def _real_poly(roots) -> np.ndarray:
    """Monic real polynomial (descending coefficients) with the given roots.

    Built by incremental root multiplication; the imaginary residue left by
    a conjugate-closed root set is discarded.
    """
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(r)]))
    return coeffs.real.copy()


def _check_conjugate_closed(roots, what: str) -> None:
    pool = [complex(r) for r in roots if abs(complex(r).imag) > CONJUGATE_TOL]
    while pool:
        r = pool.pop()
        scale = max(1.0, abs(r))
        for i, other in enumerate(pool):
            if abs(other - r.conjugate()) <= CONJUGATE_TOL * scale:
                pool.pop(i)
                break
        else:
            raise RepresentationError(
                f"{what} {r} has no conjugate partner; real-coefficient "
                "representation requires conjugate-closed root sets"
            )


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Rational SISO transfer function in zpk and coefficient form.

    ``num``/``den`` are real coefficient arrays in descending degree,
    derived from the zpk data.  The function is proper by construction.
    """

    zeros: tuple
    poles: tuple
    gain: float
    num: np.ndarray = field(repr=False)
    den: np.ndarray = field(repr=False)

    def __call__(self, s: complex) -> complex:
        """Evaluate from the zpk factors."""
        val = complex(self.gain)
        for z in self.zeros:
            val *= s - z
        for p in self.poles:
            val /= s - p
        return val

    def eval_coeffs(self, s: complex) -> complex:
        """Evaluate from the polynomial coefficient form."""
        return complex(np.polyval(self.num, s) / np.polyval(self.den, s))

    @property
    def order(self) -> int:
        return len(self.poles)


def tf_from_zpk(zeros, poles, gain: float) -> TransferFunction:
    """Build a proper real-coefficient transfer function from zpk data."""
    if not np.isfinite(gain):
        raise RepresentationError("gain must be finite")
    _check_conjugate_closed(zeros, "zero")
    _check_conjugate_closed(poles, "pole")
    if len(zeros) > len(poles):
        raise RepresentationError(
            f"improper transfer function: {len(zeros)} zeros exceed "
            f"{len(poles)} poles"
        )
    num = float(gain) * _real_poly(zeros)
    den = _real_poly(poles)
    return TransferFunction(
        zeros=tuple(complex(z) for z in zeros),
        poles=tuple(complex(p) for p in poles),
        gain=float(gain),
        num=num,
        den=den,
    )


@dataclass(frozen=True, eq=False)
class StateSpace:
    """State-space system (A, B, C, D) with optional signal labels."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_names: tuple = ()
    input_names: tuple = ()
    output_names: tuple = ()

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} cols, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionError(
                f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}"
            )

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @property
    def ninputs(self) -> int:
        return self.B.shape[1]

    @property
    def noutputs(self) -> int:
        return self.C.shape[0]

    def evaluate(self, s: complex) -> np.ndarray:
        """Transfer matrix C (sI - A)^-1 B + D at one complex point."""
        n = self.nstates
        if n == 0:
            return self.D.astype(complex)
        x = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return self.C @ x + self.D


@dataclass(frozen=True, eq=False)
class FrequencyLocus:
    """Samples (omega, value) of a SISO frequency response, omega >= 0."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if om.ndim != 1 or om.shape != vals.shape:
            raise DimensionError("omegas and values must be matching 1-D arrays")
        if om.size and om[0] < 0:
            raise DimensionError("frequencies must be nonnegative")
        if np.any(np.diff(om) <= 0):
            raise DimensionError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise DimensionError("locus contains non-finite samples")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", vals)


def ss_realize(tf: TransferFunction) -> StateSpace:
    """Controllable companion realization of a proper transfer function.

    Strictly proper input yields D = 0; a constant gain yields a
    zero-state system.
    """
    n = tf.order
    if len(tf.zeros) > n:
        raise RealizationError("cannot realize an improper transfer function")
    if n == 0:
        empty = np.zeros((0, 0))
        return StateSpace(
            empty, np.zeros((0, 1)), np.zeros((1, 0)), [[tf.gain]]
        )
    den = tf.den / tf.den[0]
    num = np.concatenate([np.zeros(n + 1 - len(tf.num)), tf.num / tf.den[0]])
    a = den[1:]
    b0 = num[0]
    A = np.zeros((n, n))
    A[0, :] = -a
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    C = (num[1:] - b0 * a).reshape(1, -1)
    D = np.array([[b0]])
    return StateSpace(A, B, C, D)


def freq_values(sys: StateSpace, omegas) -> np.ndarray:
    """C (jwI - A)^-1 B + D of a SISO system at each w of a 1-D array.

    The frequencies may come in any order.  The matrices jwI - A are
    LU-solved in stacks of at most STACK_BYTES, formed and combined exactly
    as ``evaluate`` does one point, so each value is bit-identical to
    ``evaluate(1j * w)[0, 0]``.  Raises LinAlgError if a stack contains an
    imaginary-axis pole.
    """
    om = np.asarray(omegas, dtype=float)
    n = sys.nstates
    if n == 0:
        return np.full(om.shape, complex(sys.D[0, 0]))
    I = np.eye(n)
    out = np.empty(om.shape, dtype=complex)
    size = _stack_size(n)
    for lo in range(0, om.size, size):
        w = om[lo : lo + size]
        x = np.linalg.solve(1j * w[:, None, None] * I - sys.A, sys.B)
        out[lo : lo + size] = (sys.C @ x + sys.D)[:, 0, 0]
    return out


def _stack_size(n: int) -> int:
    return max(1, STACK_BYTES // (16 * n * n or 1))


def freq_response(sys: StateSpace, grid) -> FrequencyLocus:
    """Sample C (jwI - A)^-1 B + D of a SISO system over a frequency grid.

    The grid is solved in stacks by ``freq_values``, so every sample is
    bit-identical to one dense solve per point.  A stack that hits an
    imaginary-axis pole is redone point by point, and the grid point on
    the pole is perturbed by one grid step times 1e-6, with a warning.
    """
    if sys.ninputs != 1 or sys.noutputs != 1:
        raise DimensionError("freq_response requires a SISO system")
    om = np.asarray(grid, dtype=float)
    if om.ndim != 1 or om.size == 0:
        raise DimensionError("grid must be a nonempty 1-D array")
    if np.any(om < 0) or np.any(np.diff(om) <= 0):
        raise DimensionError("grid must be nonnegative and strictly increasing")
    omegas = om.copy()
    values = np.empty(om.size, dtype=complex)
    size = _stack_size(sys.nstates)
    for lo in range(0, om.size, size):
        try:
            values[lo : lo + size] = freq_values(sys, om[lo : lo + size])
        except np.linalg.LinAlgError:
            for i in range(lo, min(lo + size, om.size)):
                try:
                    values[i] = freq_values(sys, om[i : i + 1])[0]
                except np.linalg.LinAlgError:
                    step = om[min(i + 1, om.size - 1)] - om[max(i - 1, 0)]
                    if step <= 0:
                        step = max(abs(om[i]), 1.0)
                    omegas[i] = om[i] + step * 1e-6
                    warnings.warn(
                        f"frequency {om[i]} rad/s coincides with an "
                        f"imaginary-axis pole; perturbed to {omegas[i]}",
                        stacklevel=2,
                    )
                    values[i] = freq_values(sys, omegas[i : i + 1])[0]
    return FrequencyLocus(omegas, values)


def tf_of_ss(sys: StateSpace, trim_tol: float = 1e-9) -> TransferFunction:
    """zpk form of a SISO state-space system.

    The denominator is the characteristic polynomial of A; numerator
    coefficients are recovered by evaluating den(s) * (C (sI-A)^-1 B + D)
    at probe points and solving the resulting Vandermonde system.
    Leading numerator coefficients below trim_tol (relative to the
    largest) are trimmed before rooting.
    """
    if sys.ninputs != 1 or sys.noutputs != 1:
        raise DimensionError("tf_of_ss requires a SISO system")
    n = sys.nstates
    if n == 0:
        return tf_from_zpk([], [], float(sys.D[0, 0]))
    den = np.poly(sys.A).real
    poles = eigenvalues(sys.A)
    radius = 1.0 + float(np.max(np.abs(poles)))
    pts = radius * np.exp(2j * np.pi * (np.arange(2 * n + 2) + 0.25) / (2 * n + 2))
    rhs = np.array(
        [sys.evaluate(s)[0, 0] * np.polyval(den, s) for s in pts]
    )
    vand = np.vander(pts, n + 1)
    num, *_ = np.linalg.lstsq(vand, rhs, rcond=None)
    num = num.real
    scale = np.max(np.abs(num))
    k = 0
    while k < n and abs(num[k]) < trim_tol * scale:
        k += 1
    num = num[k:]
    zeros = np.roots(num)
    _check_conjugate_closed(zeros, "zero")
    return tf_from_zpk(zeros, poles, float(num[0]))


def eigenvalues(A) -> np.ndarray:
    """Full spectrum of a square real matrix, sorted by (real, imag)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"matrix must be square, got {A.shape}")
    lam = np.linalg.eigvals(A)
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def is_hurwitz(A, margin: float = 0.0) -> bool:
    """True iff every eigenvalue has real part < -margin."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        return True
    return bool(np.max(eigenvalues(A).real) < -margin)


def imaginary_zeros(A, b, c) -> np.ndarray:
    """Sorted distinct w >= 0 at which c (sI - A)^-1 b vanishes at s = jw.

    The realization (A, b, c) is SISO and strictly proper.  Its invariant
    zeros are the eigenvalues of the zero dynamics (Emami-Naeini and Van
    Dooren, Automatica 18(4), 1982): with c A^k b the first nonzero Markov
    parameter, A - b c A^(k+1) / (c A^k b) leaves the null space of the rows
    c, cA, ..., cA^k invariant, and its restriction there has the n - k - 1
    zeros as eigenvalues.  Deflating by the relative degree this way adds no
    spurious zeros at the origin when cb = 0.  A zero of multiplicity m is
    found only to about eps^(1/m), like any multiple eigenvalue, so it may
    fall off the axis and be left out.  A transfer function that is
    identically zero returns no zeros.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,) or c.shape != (n,):
        raise DimensionError("imaginary_zeros needs a SISO realization")
    rows = [c]
    while abs(rows[-1] @ b) <= MARKOV_RTOL * np.linalg.norm(rows[-1]) * np.linalg.norm(b):
        if len(rows) >= n:
            return np.empty(0)
        rows.append(rows[-1] @ A)
    last = rows[-1]
    R = np.array([r / np.linalg.norm(r) for r in rows])
    null = np.linalg.svd(R)[2][len(rows):].T
    Z = null.T @ (A - np.outer(b, (last @ A) / (last @ b))) @ null
    lam = np.linalg.eigvals(Z)
    lam[np.abs(lam) <= AXIS_RTOL * np.linalg.norm(Z, 1)] = 0.0
    on_axis = np.abs(lam.real) <= AXIS_RTOL * np.abs(lam)
    # not np.unique: it imports numpy.ma (numpy 2.4), 14 ms and 1.4 MiB per CLI run
    w = np.sort(np.abs(lam.imag[on_axis]))
    return w[np.diff(w, prepend=-np.inf) > 0]
