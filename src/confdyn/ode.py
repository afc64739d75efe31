"""The package's numerical routines: the Dormand-Prince 5(4) pair and Brent's
root finder, ports of scipy 1.17.1 operation for operation so that flows
come out in the same bits as with scipy, a bracketed Newton iteration, and
adaptive quadrature:

RK45    scipy.integrate.RK45 (integrate/_ivp/rk.py, base.py, common.py) with
        max_step = inf, no first_step, no vectorized fun, a real y0, a
        scalar atol, no default rtol or atol and forward integration only;
        J. R. Dormand, P. J. Prince, J. Comput. Appl. Math. 6, 19 (1980)
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
    """RMS norm of a 1-D real array: sqrt(x.x) / sqrt(n), the float
    np.linalg.norm(x) / sqrt(n) gives, without its dispatch."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def validate_tol(rtol, atol):
    if np.any(rtol < 100 * EPS):
        warn("At least one element of `rtol` is too small. "
             f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def select_initial_step(fun, t0, y0, t_bound, f0, order, rtol, atol):
    """Hairer, Norsett and Wanner's starting step (Solving ODEs I, II.4),
    forward from t0 <= t_bound."""
    interval_length = t_bound - t0
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = norm(y0 / scale)
    d1 = norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    # h0 = 0 only where d1 = inf; numpy's division gives d2 = inf or nan
    # there, and h1 = 0 either way
    d2 = norm((f1 - f0) / scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


class RK45:
    """Adaptive Dormand-Prince 5(4) stepper with a quartic dense output.

    It integrates forward only, from t0 to t_bound >= t0.  step() advances
    by one accepted step and sets status to 'running', 'finished' (t
    reached t_bound) or 'failed'; t_old and y_old hold the step's start, and
    nfev counts calls of fun.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    error_estimator_order = 4
    n_stages = 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
    # the dense output of Shampine's optimum c_6
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

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
        self.y = y0
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
        self.K = K = np.empty((self.n_stages + 1, self.n), dtype=self.y.dtype)
        self.error_exponent = -1 / (self.error_estimator_order + 1)
        # the operands of scipy's rk_step, as views of K made once: stage s
        # reads (K[:s].T, A[s, :s], C[s]) and fills K[s]
        self._stages = [(K[:s].T, self.A[s, :s], float(self.C[s]), K[s])
                        for s in range(1, self.n_stages)]
        self._KT = K.T
        self._K_head_T = K[:-1].T

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=float)

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
        fun, K, stages = self._fun, self.K, self._stages

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

            # scipy's rk_step: the stages into K's rows, the last with
            # fun(t + h, y_new); six calls of the RHS itself, counted at once
            self.nfev += 6
            K[0] = self.f
            for KsT, a, c, Ks in stages:
                dy = np.dot(KsT, a) * h
                Ks[:] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(self._K_head_T, self.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = norm(np.dot(self._KT, self.E) * h / scale)

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

        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None

    def dense_output(self):
        """y(t) over the last step, y_old + h Q (x, x^2, ...) at x = (t -
        t_old)/h: of shape (n,) at a float t, (n, m) at m times."""
        if self.t_old is None or self.t == self.t_old:
            raise RuntimeError("Dense output is available after a successful "
                               "step was made.")
        t_old, h, y_old = self.t_old, self.t - self.t_old, self.y_old
        Q = self._KT.dot(self.P)

        def dense(t):
            t = np.asarray(t)
            x = (t - t_old) / h
            # x, x^2, x^3, x^4: the products np.cumprod makes, in its order
            x2 = x * x
            x3 = x2 * x
            y = h * np.dot(Q, [x, x2, x3, x3 * x])
            if y.ndim == 2:
                y += y_old[:, None]
            else:
                y += y_old
            return y
        return dense


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
