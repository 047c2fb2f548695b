"""DOP853, the explicit Runge-Kutta method of order 8 by Dormand and Prince
with a 5th- and 3rd-order error estimate and 7th-order dense output (Hairer,
Norsett & Wanner, "Solving Ordinary Differential Equations I", 2nd ed.,
Springer 1993, Sec. II.5 for the method and Sec. II.6 for the dense output;
the coefficients are those of the authors' Fortran code ``dop853.f``).

``dop853`` integrates forward and returns the solution at given times only.
It takes the steps that scipy's ``solve_ivp(fun, (t0, t1), y0,
method="DOP853", t_eval=times, rtol=rtol, atol=atol)`` takes, one operation
after another: the same initial step guess, step-size control, error norm
and dense output, with the same numpy calls on arrays of the same layout,
so the positions and the count of right-hand-side evaluations are the same
bit for bit (tier-1 holds it to scipy).  krlab carries its own copy because
importing scipy's integrate package costs more than the runs that use it:
it loads ``scipy.optimize`` (0.64-0.68 s in a fresh process) and then took
42-50 ms more (2-CPU x86-64 host), while prop1-sweep's and
uniqueness-drive's integrations take a few ms.
"""

from __future__ import annotations

import warnings

import numpy as np

N_STAGES = 12  # the stages of one step; three more give the dense output
EPS = np.finfo(float).eps
# the step-size controller: the next step is SAFETY * err^(-1/8) times this
# one, clipped to [MIN_FACTOR, MAX_FACTOR], and no larger after a rejection
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8


def _from_rows(rows, ncols: int) -> np.ndarray:
    """The matrix whose row i holds the entries {column: value} of rows[i]
    and zeros elsewhere."""
    out = np.zeros((len(rows), ncols))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
              1.0, 0.1, 0.2, 0.777777777777777777777777777778])

# the nonzero entries of each row of A, the stages' coefficients: rows 1-11
# are the method's stages, row 12 its weights B, rows 13-15 the dense
# output's extra stages
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)

A = _from_rows(_A_ROWS, 16)
B = A[N_STAGES, :N_STAGES]

# the 5th-order error weights, and the 3rd-order ones as B minus the
# embedded weights
E5 = _from_rows([{0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
                   6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
                   8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
                   10: 0.8192320648511571246570742613e-1,
                   11: -0.2235530786388629525884427845e-1}], N_STAGES + 1)[0]
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

# the dense output's coefficients of powers 4-7 on the 16 stages
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)

D = _from_rows(_D_ROWS, 16)


def _rms(x: np.ndarray):
    """The root mean square of x."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step's size, from the sizes of y0, f0 and a difference
    quotient of f (Hairer, Norsett & Wanner, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, h, K, first: int, stop: int) -> None:
    """Stages first, ..., stop - 1 of a step of size h from (t, y) into the
    rows of K; the rows before ``first`` hold the earlier stages."""
    for s in range(first, stop):
        dy = np.dot(K[:s].T, A[s, :s]) * h
        K[s] = fun(t + C[s] * h, y + dy)


def _error_norm(K: np.ndarray, h, scale: np.ndarray):
    """The step's scaled error norm as ``dop853.f`` takes it: the 5th-order
    estimate e5 times e5 / sqrt(e5^2 + 0.01 e3^2), e3 the 3rd-order one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def dop853(fun, y0: np.ndarray, times: np.ndarray, rtol: float,
           atol: float) -> tuple[np.ndarray, int]:
    """The solution of y' = fun(t, y), y(times[0]) = y0, at each of
    ``times``, shape (len(times), y0.size), and the number of ``fun`` calls.

    ``y0`` is a 1-d float array and ``times`` increase strictly.  Each step
    whose interval holds stored times is interpolated there by the 7th-order
    dense output, which takes three more ``fun`` calls; the last stored time
    is the end of the last step.  ``rtol`` below 100 eps is raised to it,
    with a warning.  Raises RuntimeError if the step size falls below ten
    spacings of the floats at the current time.
    """
    t, t_bound = float(times[0]), float(times[-1])
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    if rtol < 100 * EPS:
        warnings.warn(f"rtol = {rtol} is below 100 eps; using rtol = {100 * EPS}",
                      stacklevel=2)
        rtol = max(rtol, 100 * EPS)
    y = y0
    f_t = f(t, y)
    h_abs = _initial_step(f, t, y, t_bound, f_t, rtol, atol)
    K = np.empty((16, y.size))  # the stages: the step's 12, f at its end, the dense output's 3
    out = np.empty((len(times), y.size))
    stored = 0  # the stored times done
    finished = False
    while not finished:
        # one step from (t, y): shrink the size until the error norm is below 1
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"DOP853 failed at t = {t}: required step size is less "
                                   "than spacing between numbers")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f_t
            _stages(f, t, y, h, K, 1, N_STAGES)
            y_new = y + h * np.dot(K[:N_STAGES].T, B)
            f_new = f(t + h, y_new)
            K[N_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, K[0]
        t, y, f_t = t_new, y_new, f_new
        finished = t - t_bound >= 0
        # the stored times up to t not given yet, from the step's dense output
        reached = np.searchsorted(times, t, side="right")
        if reached > stored:
            _stages(f, t_old, y_old, h, K, N_STAGES + 1, 16)
            F = np.empty((7, y.size))
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f_t + f_old)
            F[3:] = h * np.dot(D, K)
            x = ((times[stored:reached] - t_old) / (t - t_old))[:, None]
            ys = out[stored:reached]
            ys[...] = 0.0
            for i, coef in enumerate(reversed(F)):
                ys += coef
                if i % 2 == 0:
                    ys *= x
                else:
                    ys *= 1 - x
            ys += y_old
            stored = reached
    return out, nfev
