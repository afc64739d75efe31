"""The package's numerical routines: the Dormand-Prince 5(4) pair on Python
floats, Brent's root finder (a port of scipy 1.17.1's C routine, operation
for operation), a bracketed Newton iteration, and adaptive quadrature:

RK45    scipy.integrate.RK45's step control (integrate/_ivp/rk.py, base.py,
        common.py) with max_step = inf, no first_step, no vectorized fun, a
        real y0, a scalar atol > 0, no default rtol or atol and forward
        integration only; its sums of products add left to right in fixed
        order, so a flow's bits depend on neither the BLAS kernel nor numpy's
        SIMD dispatch; J. R. Dormand, P. J. Prince, J. Comput. Appl. Math. 6,
        19 (1980)
dense_sample
        the quartic dense output of a run of steps at many times in one
        elementwise array pass, each sample in the bits of RK45.dense_output
        at a float time
brentq  the C routine behind scipy's brentq, with its NaN check;
        R. P. Brent, Algorithms for Minimization without Derivatives (1973)
masked_newton
        Newton's method on a nondecreasing function, bisecting whenever a
        step would leave the bracket (rtsafe in Press et al., Numerical
        Recipes, 3rd ed., sec. 9.4, without its step-halving test), on a
        batch of brackets at once, each point in the floats it would have
        alone
first_error
        a batch call that fails as a loop over its points would: with the
        first failing point's error, rerun alone
quad    scipy.integrate.quad at the package's one tolerance set, for the
        timelike orbit's integral of 1/H(t); scipy is imported on its first
        call, and so stays off every other path
"""

from __future__ import annotations

import math
import sys
from warnings import warn

import numpy as np

from .errors import DomainError

EPS = sys.float_info.epsilon   # a float, so that brentq's arithmetic stays in floats
SAFETY = 0.9      # multiplies steps computed from the asymptotic error
MIN_FACTOR = 0.2  # least factor a step may shrink by
MAX_FACTOR = 10   # largest factor a step may grow by


def norm(x):
    """RMS norm of a sequence of floats: the square root of its squares
    summed left to right, over sqrt(n).  A square that overflows is inf, as
    in numpy."""
    total = 0.0
    for v in x:
        total += v * v
    return math.sqrt(total) / len(x) ** 0.5


def validate_tol(rtol, atol):
    """(rtol, atol) as floats; an rtol below 100 EPS is raised to it with a
    warning, as scipy does, and atol must be above 0, so that no error
    scale is 0."""
    rtol, atol = float(rtol), float(atol)
    if rtol < 100 * EPS:
        warn("At least one element of `rtol` is too small. "
             f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
        rtol = 100 * EPS
    if not atol > 0:
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def select_initial_step(fun, t0, y0, t_bound, f0, order, rtol, atol):
    """Hairer, Norsett and Wanner's starting step (Solving ODEs I, II.4),
    forward from t0 <= t_bound."""
    interval_length = t_bound - t0
    if interval_length == 0.0:
        return 0.0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = norm([v / s for v, s in zip(y0, scale)])
    d1 = norm([f / s for f, s in zip(f0, scale)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = [v + h0 * f for v, f in zip(y0, f0)]
    f1 = fun(t0 + h0, y1)
    # h0 = 0 only where d1 = inf; numpy's division gives d2 = inf or nan
    # there, and h1 = 0 either way
    d2 = norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


# The Dormand-Prince 5(4) tableau with Shampine's dense output, as scipy's
# RK45 holds it (C, A, B, E, P); only its nonzero entries are named.
_C2, _C3, _C4, _C5 = 1/5, 3/10, 4/5, 8/9
_A21 = 1/5
_A31, _A32 = 3/40, 9/40
_A41, _A42, _A43 = 44/45, -56/15, 32/9
_A51, _A52, _A53, _A54 = 19372/6561, -25360/2187, 64448/6561, -212/729
_A61, _A62, _A63, _A64, _A65 = (9017/3168, -355/33, 46732/5247, 49/176,
                                -5103/18656)
_B1, _B3, _B4, _B5, _B6 = 35/384, 500/1113, 125/192, -2187/6784, 11/84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71/57600, 71/16695, -71/1920, 17253/339200,
                                -22/525, 1/40)
# P[s][j] for columns j = 1-3 (stage 2's row is 0; column 0 is stage 1
# alone, with weight 1)
_P11, _P12, _P13 = (-8048581381/2820520608, 8663915743/2820520608,
                    -12715105075/11282082432)
_P31, _P32, _P33 = (131558114200/32700410799, -68118460800/10900136933,
                    87487479700/32700410799)
_P41, _P42, _P43 = (-1754552775/470086768, 14199869525/1410260304,
                    -10690763975/1880347072)
_P51, _P52, _P53 = (127303824393/49829197408, -318862633887/49829197408,
                    701980252875 / 199316789632)
_P61, _P62, _P63 = (-282668133/205662961, 2019193451/616988883,
                    -1453857185/822651844)
_P71, _P72, _P73 = (40617522/29380423, -110615467/29380423, 69997945/29380423)


class RK45:
    """Adaptive Dormand-Prince 5(4) stepper with a quartic dense output, on
    Python floats.

    It integrates forward only, from t0 to t_bound >= t0.  step() advances
    by one accepted step and sets status to 'running', 'finished' (t
    reached t_bound) or 'failed'; t_old and y_old hold the step's start, and
    nfev counts calls of fun.  y, y_old and each stage of K are lists of
    floats; fun(t, y) takes such a list and returns a sequence of n floats.

    Step control is scipy's.  Every sum of products (the stages, the
    solution and error estimate, the error norm, the dense output's
    coefficients and its powers of x) adds its terms left to right in
    stage order over the tableau's nonzero entries, in Python floats, so
    its bits depend on no BLAS kernel or SIMD dispatch.  dense_sample takes
    the dense output's float operations elementwise on arrays.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    error_estimator_order = 4

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        y0 = np.asarray(y0).astype(float, copy=False)
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if t_bound < t0:
            raise ValueError("`t_bound` must not lie before `t0`.")
        self._fun = fun
        self.t_old = None
        self.t = t0
        self.y = y0.tolist()
        self.y_old = None
        self.t_bound = t_bound
        self.n = y0.size
        self.status = "running"
        self.nfev = 0
        self.rtol, self.atol = validate_tol(rtol, atol)
        self.f = self.fun(self.t, self.y)
        self.h_abs = select_initial_step(
            self.fun, self.t, self.y, t_bound, self.f,
            self.error_estimator_order, self.rtol, self.atol)
        self.K = None
        self.error_exponent = -1 / (self.error_estimator_order + 1)

    def fun(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def step(self):
        """Take one step; returns None or the reason it failed."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished solver.")
        if self.t == self.t_bound:
            self.t_old = self.t
            self.status = "finished"
            return None
        t = self.t
        success, message = self._step_impl()
        if not success:
            self.status = "failed"
        else:
            self.t_old = t
            if self.t >= self.t_bound:
                self.status = "finished"
        return message

    def _step_impl(self):
        t = self.t
        y = self.y
        rtol = self.rtol
        atol = self.atol
        fun, k1 = self._fun, self.f

        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
            h = h_abs = t_new - t

            # stage s reads y + (sum_j a_sj k_j) h; six calls of the RHS
            # itself, counted at once
            self.nfev += 6
            k2 = fun(t + _C2 * h, [v + (a * _A21) * h for v, a in zip(y, k1)])
            k3 = fun(t + _C3 * h, [v + (a * _A31 + b * _A32) * h
                                   for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + _C4 * h, [v + (a * _A41 + b * _A42 + c * _A43) * h
                                   for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + _C5 * h, [v + (a * _A51 + b * _A52 + c * _A53 + d * _A54) * h
                                   for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [v + (a * _A61 + b * _A62 + c * _A63 + d * _A64
                                  + e * _A65) * h
                             for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (a * _B1 + c * _B3 + d * _B4 + e * _B5 + f * _B6)
                     for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
            f_new = fun(t + h, y_new)
            # the RMS of the error estimate over its scale atol + max(|y|,
            # |y_new|) rtol; y is finite, so a NaN in y_new reaches it
            error_norm = norm([
                (a * _E1 + c * _E3 + d * _E4 + e * _E5 + f * _E6 + g * _E7) * h
                / (atol + (v if v > w else w) * rtol)
                for v, w, a, c, d, e, f, g in zip(map(abs, y), map(abs, y_new),
                                                  k1, k3, k4, k5, k6, f_new)])

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

        self.K = (k1, k2, k3, k4, k5, k6, f_new)
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None

    def dense_step(self):
        """(t_old, h, y_old, Q) of the last step, Q = K^T P: one tuple
        (Q0, Q1, Q2, Q3) per component, each a sum over the stages added in
        stage order.  dense_output and dense_sample read it."""
        if self.t_old is None or self.t == self.t_old:
            raise RuntimeError("Dense output is available after a successful "
                               "step was made.")
        k1, _, k3, k4, k5, k6, k7 = self.K
        Q = [(a,
              a * _P11 + c * _P31 + d * _P41 + e * _P51 + f * _P61 + g * _P71,
              a * _P12 + c * _P32 + d * _P42 + e * _P52 + f * _P62 + g * _P72,
              a * _P13 + c * _P33 + d * _P43 + e * _P53 + f * _P63 + g * _P73)
             for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)]
        return self.t_old, self.t - self.t_old, self.y_old, Q

    def dense_output(self):
        """y(t) over the last step, _quartic at x = (t - t_old)/h: a list of
        n floats at a float t, the call brentq makes; at an array of m
        times, n arrays of m samples, each element in the bits of the float
        call."""
        t_old, h, y_old, Q = self.dense_step()

        def dense(t):
            x = (t - t_old) / h
            return [_quartic(v, h, x, *q) for v, q in zip(y_old, Q)]
        return dense


def _quartic(y_old, h, x, q0, q1, q2, q3):
    """The dense output y_old + h (((Q0 x + Q1 x^2) + Q2 x^3) + Q3 x^4), with
    x^2 = x x, x^3 = x^2 x and x^4 = x^3 x (the products np.cumprod makes,
    in its order): on floats, or on arrays elementwise.  Only +, -, * and /
    enter numpy, each correctly rounded on every SIMD target, so an array
    element has the bits of the float call."""
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return y_old + h * (((q0 * x + q1 * x2) + q2 * x3) + q3 * x4)


def dense_sample(steps, counts, ts):
    """The dense output of consecutive steps at m sorted times in one array
    pass: step k, a (t_old, h, y_old, Q) of RK45.dense_step, serves the next
    counts[k] of the times ts.  Returns the (m, n) array of the samples,
    each the _quartic of RK45.dense_output's float call at its time."""
    t_old, h, y_old, Q = (np.repeat(np.array(col), counts, axis=0)
                          for col in zip(*steps))
    # Python floats overflow to inf and nan without a warning; so does this
    with np.errstate(all="ignore"):
        x = ((np.asarray(ts, dtype=float) - t_old) / h)[:, None]
        return _quartic(y_old, h[:, None], x, *Q.transpose(2, 0, 1))


def brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b] by Brent's method, to within xtol + rtol |x|.

    An end where f is exactly 0 is the root.  Ends of one sign, or a NaN
    value of f, raise ValueError; no convergence in 100 iterations raises
    RuntimeError, as masked_newton does.  f is called with floats.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (math.copysign(1.0, fpre)
                                        != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # a denominator underflowed; in C the step is inf or nan,
                # which fails the test below, so the routine bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def first_error(fn, *cols):
    """fn(*cols) on the batch whose rows the arrays cols hold, failing as a
    loop over its points would.  Where the batch call raises, fn is called
    on each point alone, as a batch of one, in order, and the first error
    is raised; if no point fails alone, the batch's own error is."""
    try:
        return fn(*cols)
    except Exception as exc:
        batch_error = exc
    for j in range(len(cols[0])):
        fn(*(c[j:j + 1] for c in cols))
    raise batch_error


def masked_newton(f, fprime, x, fx, lo, hi, xtol, rtol):
    """Newton's method on n brackets at once, each point iterating as it
    would alone, in the same floats.

    x, fx, lo and hi are (n,) arrays.  f(x, i) and fprime(x, i) take the
    points still iterating and their indices i into the batch, and return
    an array (or a constant).  Each value of f narrows a point's bracket to
    the side that holds the root; a step that would leave it, or a zero
    slope, bisects instead.

    The batch fails on the first NaN value of f (ValueError), on no
    convergence in 100 iterations (RuntimeError), as brentq does, or on an
    error f or fprime raises; which point's error a caller reports is
    first_error's to decide.
    """
    x, fx, lo, hi = (np.array(v, dtype=float) for v in (x, fx, lo, hi))
    root = np.empty(x.size)
    live = np.arange(x.size)
    for _ in range(100):
        nan = np.isnan(fx[live])
        if nan.any():
            raise ValueError(f"The function value at x={float(x[live[nan.argmax()]])} "
                             "is NaN; solver cannot continue.")
        at_root = fx[live] == 0.0
        root[live[at_root]] = x[live[at_root]]
        live = live[~at_root]
        if not live.size:
            return root
        below = fx[live] < 0.0
        lo[live[below]] = x[live[below]]
        hi[live[~below]] = x[live[~below]]
        slope = np.asarray(fprime(x[live], live), dtype=float)
        xl, fl, lol, hil = x[live], fx[live], lo[live], hi[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xl - fl / slope
        xnew = np.where(slope != 0.0, step, np.nan)
        done = np.abs(xnew - xl) <= xtol + rtol * np.abs(xnew)
        # a converged step may end on or just past the bracket: near the
        # root, rounding in f can put x on the wrong side of it
        bisect = ~(done | ((lol < xnew) & (xnew < hil)))
        xnew[bisect] = lol[bisect] + 0.5 * (hil[bisect] - lol[bisect])
        done[bisect] = (np.abs(xnew[bisect] - xl[bisect])
                        <= xtol + rtol * np.abs(xnew[bisect]))
        root[live[done]] = xnew[done]
        live, xnew = live[~done], xnew[~done]
        if not live.size:
            return root
        x[live] = xnew
        fx[live] = f(xnew, live)
    raise RuntimeError("Failed to converge after 100 iterations.")


_quadpack = None   # scipy.integrate's quad and IntegrationWarning, once quad has been called


def quad(f, a, b):
    """int_a^b f(s) ds, a or b possibly infinite, by scipy.integrate.quad to
    within max(1e-12, 1e-12 |int|) on at most 200 subintervals.

    An integral QUADPACK judges divergent (its ier = 5) raises
    DomainError; its other failures warn, as scipy's quad does.
    Caller: timelike_orbit."""
    global _quadpack
    if _quadpack is None:
        from scipy.integrate import IntegrationWarning, quad as scipy_quad
        _quadpack = scipy_quad, IntegrationWarning
    scipy_quad, IntegrationWarning = _quadpack
    value, _, _, *message = scipy_quad(f, a, b, epsabs=1e-12, epsrel=1e-12,
                                       limit=200, full_output=1)
    if message:
        if message[0].startswith("The integral is probably divergent"):
            raise DomainError(f"int_{a:g}^{b:g}: {message[0]}")
        warn(message[0], IntegrationWarning, stacklevel=2)
    return value
