"""Minimal continuous-time LTI algebra on one system type, ``StateSpace``.

zero/pole/gain data enter as a state-space realization (``ss_from_zpk``)
and leave through ``zpk_of_ss``; in between are zeros (all read off one
primitive, ``_zero_dynamics``) and frequency response.  Everything here is
real-coefficient, continuous-time, and immutable after construction.

The frequency response of many points (``freq_values``, ``freq_response``)
costs O(n^3) once per system and O(n^2) per point: the system is reduced
to a controller Hessenberg form, cached on it, and each point is one
recurrence on that form (Hyman's method, backward stable; Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 14.6.1).
``StateSpace.evaluate`` stays one dense LU solve per point.  A system
caches three facts on first use: its spectrum (``poles``), that Hessenberg
form (``controller_hessenberg``) and where its response is real
(``real_crossings``).  Whether a value of a response is a rounding zero is
decided on the scale |b| |c| / |A| of its realization (``D_RTOL``), so what
is read off M scales with M, whatever the units of delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, RepresentationError

CONJUGATE_TOL = 1e-10

# bytes of a stacked work array: complex n-vectors per frequency in the
# response recurrence, real n x n matrices per delta in verify_interval
# (more where numpy needs more to drop the GIL, see criteria.GIL_FREE_SIZE)
STACK_BYTES = 512 * 1024
# a frequency's recurrence vector is rescaled once an entry passes this;
# without it n = 128 overflows near w = 1e4
RESCALE_AT = 1e150

# a Markov parameter c A^k b counts as zero below this share of |c A^k| |b|
MARKOV_RTOL = 1e-10
# an invariant zero z lies on the jw-axis when |Re z| <= AXIS_RTOL * |z|; one
# within AXIS_RTOL * |Z|_1 of the origin, the rounding of the zero-dynamics
# matrix Z, is the origin (d = 0 only: with d != 0 the entries of b c / d
# may be huge, and the certificates never ask for a zero at the origin).  A
# double zero splits about sqrt(eps) apart: within sqrt(AXIS_RTOL) * |z| of
# the axis, imaginary_zeros keeps it, and real_crossings confirms it on M.
# Two such zeros on either side of the axis whose w agree to AXIS_RTOL * |z|
# are a near miss, which imaginary_zeros drops
AXIS_RTOL = 1e-8
# a value x of c (sI - A)^-1 b + d with |x| |A| <= D_RTOL |b| |c| is a rounding
# zero at any scale.  Such a feedthrough d is solved as d = 0 (imaginary_zeros):
# b c / d outweighs A by 1/D_RTOL, and the d != 0 solve loses on-axis zeros (0.20
# and 2.20 rad/s of -Re M on the aircraft, at ratios up to 2.9e-12; no benchmark
# solve is below 3.2e-9).  Such a real value of M(jw) is a crossing at 0.0 (real_crossings:
# the aircraft's M(0) = 0 is at 1.4e-12; no benchmark crossing is below 6.5e-4)
D_RTOL = 1e-10


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
class StateSpace:
    """State-space system (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

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

    @cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of A sorted by (real, imag).  Computed on first use, kept read-only."""
        lam = np.linalg.eigvals(self.A)
        lam = lam[np.lexsort((lam.imag, lam.real))]
        lam.flags.writeable = False
        return lam

    @cached_property
    def controller_hessenberg(self):
        """(H, beta, h, row_sums, sub) with the first input-output response =
        h (sI - H)^-1 beta e1 + D.

        H is upper Hessenberg with nonzero subdiagonal; see
        ``_controller_hessenberg``.  row_sums and sub bound the growth of
        ``freq_values``' recurrence: the sums of |h_kj| over j >= k for rows
        2..n, and |h_(k,k-1)|.  Computed on first use and kept.
        """
        H, beta, h = _controller_hessenberg(self.A, self.B[:, 0], self.C[0])
        return H, beta, h, np.abs(np.triu(H)).sum(axis=1)[1:], np.abs(np.diagonal(H, -1))

    @cached_property
    def real_crossings(self) -> tuple:
        """Every (w, x) with x = M(jw) real and w >= 0 (SISO), x = 0.0 where it
        is a rounding zero (D_RTOL), as at a jw-axis zero of M: w = 0 and the
        jw-axis zeros of M(s) - M(-s), realized as (diag(A, -A), [b; b], [c,
        c]), plus each zero z within sqrt(AXIS_RTOL) * |z| of the axis where
        M(jw) is real to AXIS_RTOL * |M(jw)|: where M(jw) touches the real axis
        the zero is double, and splits in two about sqrt(eps) apart.  A run of
        crossings each within sqrt(AXIS_RTOL) * w of the next is one crossing,
        at the run's midpoint, where M is real there.  On M(s - m), built at a
        stability margin m, these are the crossings on Re s = -m.  Computed on
        first use and kept."""
        A, b, c, zero = self.A, self.B[:, 0], self.C[0], np.zeros_like(self.A)
        A2 = np.block([[A, zero], [zero, -A]])
        z = _zero_dynamics(A2, np.concatenate([b, b]), np.concatenate([c, c]), 0.0)[0]
        z = z[(z.imag > 0) & (np.abs(z.real) <= math.sqrt(AXIS_RTOL) * np.abs(z))]
        z = np.concatenate([[0.0], z[np.argsort(z.imag)]])
        m = freq_values(self, z.imag)
        keep = (np.abs(z.real) <= AXIS_RTOL * np.abs(z)) | (np.abs(m.imag) <= AXIS_RTOL * np.abs(m))
        w, x = z.imag[keep], m.real[keep]
        gaps = np.flatnonzero(np.diff(w) > math.sqrt(AXIS_RTOL) * w[1:]) + 1
        runs = [r for r in np.split(np.arange(w.size), gaps) if r.size > 1]
        mid = np.array([0.5 * (w[r[0]] + w[r[-1]]) for r in runs])
        for r, wm, xm in zip(runs, mid, freq_values(self, mid)):
            if abs(xm.imag) <= AXIS_RTOL * abs(xm):
                w[r], x[r] = wm, xm.real
        x[np.abs(x) * np.linalg.norm(A) <= D_RTOL * np.linalg.norm(b) * np.linalg.norm(c)] = 0.0
        keep = np.diff(w, prepend=-1.0) > 0   # drop repeats, merged runs among them
        return tuple(zip(w[keep].tolist(), x[keep].tolist()))


@dataclass(frozen=True, eq=False)
class FrequencyLocus:
    """Samples (omega, value) of a SISO frequency response, omega >= 0, and
    the system they sample."""

    omegas: np.ndarray
    values: np.ndarray
    system: StateSpace = field(repr=False)

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


def ss_from_zpk(zeros, poles, gain: float) -> StateSpace:
    """Controllable companion realization of the proper real-coefficient
    transfer function gain * prod(s - z) / prod(s - p).

    Strictly proper input yields D = 0; a constant gain yields a zero-state
    system.
    """
    if not np.isfinite(gain):
        raise RepresentationError("gain must be finite")
    if not np.isfinite(np.array([*zeros, *poles], dtype=complex)).all():
        raise RepresentationError("zeros and poles must be finite")
    _check_conjugate_closed(zeros, "zero")
    _check_conjugate_closed(poles, "pole")
    n = len(poles)
    if len(zeros) > n:
        raise RepresentationError(
            f"improper transfer function: {len(zeros)} zeros exceed {n} poles"
        )
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[float(gain)]])
    # np.poly is monic: the denominator needs no scaling, and num[0] is D; the
    # imaginary residue of a conjugate-closed root set is discarded
    a = np.poly(np.asarray(poles, dtype=complex)).real[1:]
    num = float(gain) * np.atleast_1d(np.poly(np.asarray(zeros, dtype=complex)).real)
    num = np.concatenate([np.zeros(n - len(zeros)), num])
    A = np.zeros((n, n))
    A[0, :] = -a
    A[1:, :-1] = np.eye(n - 1)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    return StateSpace(A, B, (num[1:] - num[0] * a).reshape(1, -1), [[num[0]]])


def _balance(A: np.ndarray):
    """(D^-1 A D, diag(D)) for D a diagonal of powers of two.

    Parlett-Reinsch balancing: each state is rescaled until the 2-norms of
    its off-diagonal row and column are within a factor of two, so the
    scaling is exact in floating point.
    """
    A = A.copy()
    d = np.ones(A.shape[0])
    done = False
    while not done:
        done = True
        for i in range(A.shape[0]):
            diag = A[i, i] * A[i, i]
            col = math.sqrt(max(A[:, i] @ A[:, i] - diag, 0.0))
            row = math.sqrt(max(A[i] @ A[i] - diag, 0.0))
            if col == 0.0 or row == 0.0:
                continue
            total, f = col + row, 1.0
            while col < row / 2:
                col, row, f = col * 2, row / 2, f * 2
            while col >= row * 2:
                col, row, f = col / 2, row * 2, f / 2
            if col + row < 0.95 * total:
                done = False
                d[i] *= f
                A[:, i] *= f
                A[i] /= f
    return A, d


def _map_to_first(A: np.ndarray, c: np.ndarray, j: int, x: np.ndarray) -> float:
    """Orthogonal similarity on states j.. that maps x to alpha e_j; returns alpha.

    Applied in place to A (rows and columns) and to c.  A vector with one
    nonzero entry is moved by a swap, which is exact, so a pole that sits
    exactly on the jw-axis stays there; any other nonzero vector by a
    Householder reflection.
    """
    nz = np.flatnonzero(x)
    if nz.size == 0:
        return 0.0
    if nz.size == 1:
        i = j + int(nz[0])
        A[[j, i]] = A[[i, j]]
        A[:, [j, i]] = A[:, [i, j]]
        c[[j, i]] = c[[i, j]]
        return float(x[nz[0]])
    alpha = -math.copysign(float(np.linalg.norm(x)), x[0])
    v = x.copy()
    v[0] -= alpha
    v /= np.linalg.norm(v)
    A[j:] -= 2.0 * np.outer(v, v @ A[j:])
    A[:, j:] -= 2.0 * np.outer(A[:, j:] @ v, v)
    c[j:] -= 2.0 * (c[j:] @ v) * v
    return alpha


def _controller_hessenberg(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """(H, beta, h) with c (sI - A)^-1 b = h (sI - H)^-1 beta e1 and H upper Hessenberg.

    A is balanced (``_balance``); one similarity maps b to beta e1, and
    similarities on states 2..n reduce A to Hessenberg form without moving
    e1 (Laub, IEEE TAC 26(2), 1981); c follows each one.  H stops at its
    first zero subdiagonal entry: the states after it are not reachable
    from e1 and do not change the response.
    """
    A, d = _balance(A)
    c = c * d
    beta = _map_to_first(A, c, 0, b / d)
    n = A.shape[0]
    for k in range(n - 2):
        _map_to_first(A, c, k + 1, A[k + 1 :, k].copy())
        A[k + 2 :, k] = 0.0
    cut = np.flatnonzero(np.diagonal(A, -1) == 0.0)
    m = 0 if beta == 0.0 else (int(cut[0]) + 1 if cut.size else n)
    return A[:m, :m], beta, c[:m]


def freq_values(sys: StateSpace, omegas) -> np.ndarray:
    """C (jwI - A)^-1 B + D of a SISO system at each w of a 1-D array.

    The frequencies may come in any order.  Per frequency this is Hyman's
    recurrence on the controller Hessenberg form (H, beta, h), computed once
    per system and cached on it (``StateSpace.controller_hessenberg``):
    with x_n = 1, rows n..2 of (sI - H) x = t e1 give x_(k-1) = ((s - h_kk)
    x_k - sum_(j>k) h_kj x_j) / h_(k,k-1), row 1 gives t, and M = beta (h .
    x) / t + D.  Each step is one product along the frequency axis, in
    chunks of at most STACK_BYTES of x, so each value costs O(n^2).  Against
    ``evaluate`` (one LU solve per point) the values agree to 2e-14 of max
    |M| on the aircraft and on random systems of 32 and 128 states, and to
    1e-10 of |M| where the aircraft's M nears its zero at the origin.
    Raises LinAlgError where t = 0 exactly: a frequency on an
    imaginary-axis pole.
    """
    om = np.asarray(omegas, dtype=float)
    H, beta, h, row_sums, sub = sys.controller_hessenberg
    n = H.shape[0]
    values = np.full(om.shape, complex(sys.D[0, 0]))
    if n == 0:
        return values
    # step k multiplies max |x| by at most (|s| + row_sums_k) / sub_k; a chunk
    # whose product of these stays below RESCALE_AT needs no check
    size = max(1, STACK_BYTES // (16 * n))
    for lo in range(0, om.size, size):
        s = 1j * om[lo : lo + size]
        growth = np.maximum((np.abs(s).max() + row_sums) / sub, 1.0)
        check = np.log(growth).sum() >= math.log(RESCALE_AT)
        x = np.empty((n, s.size), dtype=complex)
        x[-1] = 1.0
        for k in range(n - 1, 0, -1):
            np.multiply(s, x[k], out=x[k - 1])
            x[k - 1] -= H[k, k:] @ x[k:]
            x[k - 1] /= H[k, k - 1]
            if check:
                # M is a ratio, so a frequency's x may be rescaled at will
                mag = np.abs(x[k - 1])
                big = mag > RESCALE_AT
                if big.any():
                    x[k - 1 :, big] /= mag[big]
        t = s * x[0] - H[0] @ x
        if not t.all():
            raise np.linalg.LinAlgError(
                f"imaginary-axis pole at w = {om[lo : lo + size][t == 0][0]} rad/s"
            )
        values[lo : lo + size] += beta * (h @ x) / t
    return values


def freq_response(sys: StateSpace, grid) -> FrequencyLocus:
    """Sample C (jwI - A)^-1 B + D of a SISO system over a frequency grid,
    nonnegative and strictly increasing, as ``freq_values`` does."""
    if sys.ninputs != 1 or sys.noutputs != 1:
        raise DimensionError("freq_response requires a SISO system")
    om = np.asarray(grid, dtype=float)
    if om.ndim != 1 or om.size == 0:
        raise DimensionError("grid must be a nonempty 1-D array")
    return FrequencyLocus(om, freq_values(sys, om), sys)


def zpk_of_ss(sys: StateSpace):
    """(zeros, poles, gain) of a SISO state-space system: the zeros and gain
    of ``_zero_dynamics`` and the poles ``StateSpace.poles``."""
    if sys.ninputs != 1 or sys.noutputs != 1:
        raise DimensionError("zpk_of_ss requires a SISO system")
    d = float(sys.D[0, 0])
    if sys.nstates == 0:
        return np.empty(0), sys.poles, d
    zeros, gain = _zero_dynamics(sys.A, sys.B[:, 0], sys.C[0], d)
    return zeros, sys.poles, gain


def _zero_dynamics(A: np.ndarray, b: np.ndarray, c: np.ndarray, d: float):
    """(zeros, gain): every invariant zero of c (sI - A)^-1 b + d and the
    leading coefficient of its numerator.

    With d != 0 the zeros are the eigenvalues of A - b c / d and the gain is
    d (b != 0, or A's eigenvalues come back).  b is first mapped to beta e1
    (``_map_to_first``), so the rank-one term fills one row, which the
    balancing inside ``eigvals`` scales down; without it a small d, with
    large entries in b c / d, pushes on-axis zeros off the axis.

    With d = 0 the zeros are those of the zero dynamics (Emami-Naeini and
    Van Dooren, Automatica 18(4), 1982): with c A^k b the first nonzero
    Markov parameter, the gain, A - b c A^(k+1) / (c A^k b) leaves the null
    space of the rows c, cA, ..., cA^k invariant, and its restriction there
    has the n - k - 1 zeros as eigenvalues.  Deflating by the relative
    degree this way adds no spurious zeros at the origin when cb = 0.  A
    function that is identically zero has no zeros and gain 0.  A zero of
    multiplicity m is found only to about eps^(1/m).
    """
    if d != 0.0:
        A, c = A.copy(), c.copy()
        beta = _map_to_first(A, c, 0, b)
        A[0] -= (beta / d) * c
        return np.linalg.eigvals(A), d
    rows = [c]
    while abs(rows[-1] @ b) <= MARKOV_RTOL * np.linalg.norm(rows[-1]) * np.linalg.norm(b):
        if len(rows) >= A.shape[0]:
            return np.empty(0), 0.0
        rows.append(rows[-1] @ A)
    last = rows[-1]
    R = np.array([r / np.linalg.norm(r) for r in rows])
    null = np.linalg.svd(R)[2][len(rows):].T
    Z = null.T @ (A - np.outer(b, (last @ A) / (last @ b))) @ null
    lam = np.linalg.eigvals(Z)
    lam[np.abs(lam) <= AXIS_RTOL * np.linalg.norm(Z, 1)] = 0.0
    return lam, float(last @ b)


def imaginary_zeros(A, b, c, d: float = 0.0) -> np.ndarray:
    """Sorted distinct w >= 0 at which c (sI - A)^-1 b + d vanishes at s = jw:
    Im z for each zero z, Im z >= 0, of ``_zero_dynamics`` within
    sqrt(AXIS_RTOL) * |z| of the jw-axis, with a d that is a rounding zero
    (D_RTOL) taken as 0.  A double zero splits about sqrt(eps) apart, off the
    axis, and both halves are kept: for a certificate an extra w only splits
    an interval, where a lost pair hid a rise (criteria's ``_certified_max``;
    two crossings 5.7e-4 apart in w came out 1.13e-8 |z| off the axis).  Two
    of them on opposite sides of the axis, next in w and with w agreeing to
    AXIS_RTOL * |z|, are the pair z, -conj(z) of a real function of w that
    nears the level or touches it without a change of sign (Boyd,
    Balakrishnan and Kabamba, MCSS 2, 1989): no crossing, and neither is
    returned.  A function that is identically zero, or constant, has none."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,) or c.shape != (n,):
        raise DimensionError("imaginary_zeros needs a SISO realization")
    if d != 0.0 and not b.any():
        # the constant d: A's eigenvalues would cancel the poles
        return np.empty(0)
    if abs(d) * np.linalg.norm(A) <= D_RTOL * np.linalg.norm(b) * np.linalg.norm(c):
        d = 0.0
    lam = _zero_dynamics(A, b, c, d)[0]
    z = lam[(lam.imag >= 0) & (np.abs(lam.real) <= math.sqrt(AXIS_RTOL) * np.abs(lam))]
    z = z[np.argsort(z.imag)]
    keep = np.ones(z.size, dtype=bool)
    partners = (z.real[:-1] * z.real[1:] < 0) & (np.diff(z.imag) <= AXIS_RTOL * np.abs(z[1:]))
    for i in np.flatnonzero(partners):
        if keep[i]:
            keep[i : i + 2] = False
    # not np.unique: it imports numpy.ma (numpy 2.4), 14 ms and 1.4 MiB per CLI run
    w = z.imag[keep]
    return w[np.diff(w, prepend=-np.inf) > 0]
