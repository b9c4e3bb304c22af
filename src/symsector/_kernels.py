"""Adaptive Dormand-Prince 8(5,3) kernels for the model flow.

The downward gradient flow on the symmetric square is integrated with
the embedded Dormand-Prince 8(5,3) pair (DOP853) and its step-size
controller (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10).
An attempt takes 11 new stage derivatives; an accepted one adds the
derivative at its end, which seeds the next step.  A state is
[Re z, Im z, Re w, Im w]; the linear z-subsystem and the autonomous
w-subsystem are decoupled, and a drive of [0, 0, w0] also serves the
branch-locus asymptotics, Delta = lim Re u (Delta rows, below).  The
flow direction (+1 downward, -1 upward) is the sign of the step h:
derivatives, seeds included, are those of the downward flow.  Negation
is exact, so h (-f) and (-h) f round alike and either form gives the
same bits.

A drive integrates only a pair of numbers, in one of two frames.  With
tau = fdir t and L = diag(alpha - 1, -alpha) on (Re, Im), z is taken in
closed form, z(tau) = e^(L tau) z0, from the factors e^((alpha-1) tau)
and e^(-alpha tau) of _factors.  The pair is w itself (the w-frame) from
t = 0, and u = e^(-L tau) s, s = sqrt(w) (the u-frame), from the end of
the first accepted step where |w| >= epsilon and
Re(conj(w) fdir w') > 0, one switch per row, with s the principal root
(np.sqrt).  Far out the flow is the linear saddle s' = L s, so u' =
e^(-L tau) (G(s) - L s), G(s) = w'(s^2) / (2 s), vanishes at infinity,
and exactly beyond the outer knot |w| = table[4] = epsilon in cutoff
mode: the u-frame's steps are set by the nonlinearity, not by the
e^((alpha-1) tau) growth (Lawson, SIAM J. Numer. Anal. 4, 1967;
Hochbruck & Ostermann, Acta Numerica 19, 2010).  Along the linear saddle
x^2 / y^2 of s = x + i y is monotone, so a row that grows outside
epsilon keeps growing and does not come back inside.  States are
converted back to [z, w] (_to_zw) wherever a state is read: events,
stall speed, records and results.

A Delta row is the drive of [0, 0, Re w0, Im w0] to the region
EVENT_DELTA: the escape region of that row, whose pair coordinates are
+-Re s, with the radius s_star of _delta_radius, beyond which Re u has
settled to DELTA_TOL relatively (exactly, in cutoff mode).  Every state
inside that region gives the same Delta to within the tolerance, so a
Delta row is read where a step ends inside it, with no refinement;
flow reads Delta = Re u = Re sqrt(w) / e^((alpha-1) t) there.

The scaled error of an attempt is |h| E5^2 / sqrt(n (E5^2 + 0.01 E3^2)),
from the 5th and 3rd order estimates summed over the n = 2 components,
and the controller scales the step by 0.9 err^(-1/8) within [0.2, 10].
The largest step is H_MAX_V_ENTRY for the V-entry event in both frames,
whose band one long step could jump over, and H_MAX for every other
w-frame drive; the u-frame has no other cap than the controller and the
end time.  There |x_1,2| = e^((alpha-1) tau) |Re z0 +- Re u| with Re u
almost constant, so the escape, Delta and truncation regions cannot be
entered and left within one step.  In cutoff mode the profile knots
|w| = table[2:5], where m'' has kinks that the error estimate misjudges,
are step boundaries of the w-frame (Gear & Osterby, ACM TOMS 10, 1984);
the u-frame runs outside them.  An accepted attempt, or a rejected one
whose ends lie on either side of a knot, is retaken if |w| crosses a
knot within it: h is cut to the first crossing of the cubic Hermite
interpolant of |w|^2 over the step (_knot_fraction), which needs no
stage beyond the derivative at the end: the next seed of an accepted
attempt, one more evaluation for a rejected one.  A step that ends
within KNOT_TOL of the knot has landed on it; the next one starts from
the derivative there, since the right-hand side is continuous at the
knots, and with no less than the step that was cut.  A cutoff drive to
the escape region reads a state on the outer knot as outside the band
|w| <= epsilon (_event_eps), so that a step that leaves the region
through that knot and lands on its inner side does not hide the entry
before it.  Pure mode has no knots and skips all of this.

Each event region is defined once, for both backends, by its margin
ratio (_gap_ratio), which each twin reads with one function
(_event_ratio, _event_ratio_np): the event predicates (_event_val,
_event_np) and the event gap, the log of the ratio (_log_gap), are read
off it (Shampine & Thompson, Comput. Math. Appl. 39, 2000).  A drive
that starts inside its event region ends STATUS_EVENT at t = 0, before
its first attempt.  An accepted step of a drive that ends inside
the event region is not taken, nor is one whose state [z, w] is not
finite (the drive ends STATUS_NONFINITE).  The event is located on the
dense output of the pair over that step (Hairer's contd8, II.6): its
stages 2-12 are recomputed once and stages 14-16 added, which also read
the derivative at the end (stage 13), giving a 7th order interpolant of
the step.  On it a bracket [lo, hi] of the time closes around the entry,
each state converted at its own time and read once, by its ratio: a hit
moves hi and a miss lo, and the next time is a safeguarded secant root
of the event gap (_event_probe).  The gap is positive only inside the
region and almost linear in time along a u-frame step, so a located
event takes 2 or 3 reads of the dense output, where bisecting the
predicate took about 45.  It stops once hi - lo < EVENT_TOL max(hi, 1),
after at most EVENT_ITERATIONS iterations; the state at hi is read from
the interpolant, or is the accepted end state itself where hi never
moved.  A refinement thus costs 14 right-hand-side evaluations of the
one integrated pair, however many reads it makes.  The dense output is
written once for both backends: its coefficients are the (stage,
coefficient) tables DENSE_STAGES (stages 14-16) and DENSE_ROWS (the
rows D4-D7 of the interpolant), and _combo sums such terms left to
right, on lists of floats in _dense2 and on lists of arrays in
_dense_np; _contd8_coefs and _contd8 serve both.

Each formula has one vectorized numpy definition: the w-flow
coefficients (_kappa_shrink_np, on the smoothing evaluator in cutoff
mode; _rhs_w_np), the u-frame right-hand side (_rhs_u_np), the DOP853
stages (_stages_np) of one attempt with its scaled error (_attempt_np)
and of the dense output (_dense_np), the step controller (_next_h_np)
and the pair coordinates (pair_re_np); _factors, _to_zw, _w_dot and
_gap_ratio, made of arithmetic alone, serve both backends.  The knot cut
has one definition for both backends, the scalar _knot_fraction and its
helpers: _knot_cut_np passes it only the rows of a batch whose
interpolant may reach a knot band, as the Bernstein hull of the
interpolant shows, and gives every other row 1.0.  _lockstep is the one
numpy loop: it owns the step budget, the attempt, acceptance, the knot
cut, the controller and the dead-row rule.  The batch kernel
_drive_batch_np passes it the stop rule run before each attempt (stall
and end of time) and runs it twice, a w-frame pass and a u-frame pass
for the rows that switched, each with one right-hand side, passing it
the rule for accepted steps: conversion, events and the switch.  It
never activates a row that starts inside its region, holds each row that
enters its region and, after each pass, builds the dense output of all
their event steps in one batch and locates all of their events together
on it (but for Delta rows).  The batch kernel _drive_batch runs the
scalar kernel row by row and takes the same parameters as its numpy
form; flow picks one of the two per call, by row count.  The numpy
kernels and _drive ignore overflow and invalid-value warnings: a row
that leaves the float range ends STATUS_NONFINITE.

What no caller varies is a module constant, not a parameter: the
absolute tolerance ATOL, the step caps, the knot tolerance, the stall
speed STALL_SPEED, and for Delta the drift tolerance DELTA_TOL.
epsilon and the knots are read from the table, and every drive starts
at t = 0.  The step controllers (_next_h, _next_h_np) still take the
cap h_max, and the event predicates (_event_val, _event_np) epsilon,
since sectors calls the region test without a table.

The scalar kernels are the one permitted twin: _w_terms, the right-hand
sides _rhs2 and _rhs_u, one DOP853 step _step2 and its dense output
_dense2, which take their right-hand side as an argument, call it with
the stage index of FRAME_NODES and share the stages of _stages2,
_err_norm, _next_h, _pair_re and _event_ratio with its reader _event_val
(also the region test of sectors).  The sums of _stages2 and _step2 stay
unrolled: read through _combo, a scalar step takes 1.7 times as long.
_drive, which refines its events with _dense_event, runs row by row in
_drive_batch, which serves every batch of fewer than flow._LOCKSTEP_ROWS
rows, scalar calls included.  _advance is the scalar counterpart of
_lockstep: the one judged attempt of _drive, one _step2 on the pair, w
with _rhs2 or u with _rhs_u.  Both twins write every stage sum as h (sum
of a_ij k_j) with the same terms in the same order, sum squares over
components left to right and take err^(-1/8) as three correctly rounded
square roots, so on the same rows they give the same bits.

Every kernel takes the smoothing table as the one tuple of built-in
floats that SteinParams holds.  The numpy batch kernels read it as an
array once per call: numpy combines its own scalars with arrays faster
than built-in floats.  The scalar kernels run on built-in floats, with
the same bits as numpy scalars at several times the speed: |w| is _hypot
(abs(complex), which calls libm hypot as np.hypot does), and real roots
and finiteness tests come from math.  Three stdlib twins are avoided
because their bits differ: math.hypot rounds some pairs apart from libm
hypot, cmath.sqrt differs from np.sqrt on the imaginary axis (so the
complex root of the switch stays np.sqrt), and math.exp differs from
np.exp in the last place on some arguments (so the factors of the frame
stay np.exp, which gives the same bits for one value as for many: the
scalar drive takes the factors of an attempt's 13 stage times in one
array).  For the same reason the
event gap takes math.log in both twins, mapped over the rows of the
numpy one (np.log differs from it on some arguments); only event rows, a
few times each, reach it.
"""

import math

import numpy as np

from . import smoothing

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5; Prince & Dormand, J. Comput. Appl. Math. 7, 1981), named after the
# 1-based stage indices of Hairer's DOP853 code: Aij = a(i, j), Bj, the
# 5th order error weights ERj and the 3rd order ones E3j = Bj - bhh.  The
# right-hand side is autonomous, so the nodes C_NODES only document the
# tableau (each row of A sums to its node).
A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1
E31 = B1 - 0.244094488188976377952755905512
E39 = B9 - 0.733846688281611857341361741547
E312 = B12 - 0.220588235294117647058823529412e-1
C_NODES = (
    0.0,
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
# the same tableau as (stage, coefficient) terms in the order the scalar
# _step2 sums them, stage 0 being the derivative at the start of the step
STAGES = (
    ((0, A21),),
    ((0, A31), (1, A32)),
    ((0, A41), (2, A43)),
    ((0, A51), (2, A53), (3, A54)),
    ((0, A61), (3, A64), (4, A65)),
    ((0, A71), (3, A74), (4, A75), (5, A76)),
    ((0, A81), (3, A84), (4, A85), (5, A86), (6, A87)),
    ((0, A91), (3, A94), (4, A95), (5, A96), (6, A97), (7, A98)),
    ((0, A101), (3, A104), (4, A105), (5, A106), (6, A107), (7, A108), (8, A109)),
    ((0, A111), (3, A114), (4, A115), (5, A116), (6, A117), (7, A118), (8, A119),
     (9, A1110)),
    ((0, A121), (3, A124), (4, A125), (5, A126), (6, A127), (7, A128), (8, A129),
     (9, A1210), (10, A1211)),
)
WEIGHTS = ((0, B1), (5, B6), (6, B7), (7, B8), (8, B9), (9, B10), (10, B11),
           (11, B12))
ERR5 = ((0, ER1), (5, ER6), (6, ER7), (7, ER8), (8, ER9), (9, ER10), (10, ER11),
        (11, ER12))
ERR3 = ((0, E31), (5, B6), (6, B7), (7, B8), (8, E39), (9, B10), (10, B11),
        (11, E312))

# DOP853 dense output (contd8 of Hairer's code; Hairer, Norsett & Wanner,
# Solving ODEs I, II.6) as (stage, coefficient) terms, summed by _combo in
# the order written: stages 14-16 at the nodes DENSE_NODES, and the rows
# D4-D7 of the last four coefficients of the 7th order interpolant.  The
# stage index is 0 for the derivative at the start of the step, 5-11 for
# stages 6-12, 12 for the derivative at its end and 13-15 for stages 14-16.
DENSE_NODES = (0.1, 0.2, 0.777777777777777777777777777778)
DENSE_STAGES = (
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4),
     (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4),
     (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
DENSE_ROWS = (
    ((0, -8.4289382761090128651353491142), (5, 5.667149535193777696253178359e-1),
     (6, -3.0689499459498916912797304727), (7, 2.384667656512069828772814968),
     (8, 2.1170345824450282767155149946), (9, -8.713915837779729920678990749e-1),
     (10, 2.240437430260788275854177165), (11, 6.315787787694688181557024929e-1),
     (12, -8.89903364513333108206981174e-2), (13, 1.8148505520854727256656404962e1),
     (14, -9.1946323924783554000451984436), (15, -4.4360363875948939664310572)),
    ((0, 1.0427508642579134603413151009e1), (5, 2.4228349177525818288430175319e2),
     (6, 1.6520045171727028198505394887e2), (7, -3.7454675472269020279518312152e2),
     (8, -2.2113666853125306036270938578e1), (9, 7.7334326684722638389603898808),
     (10, -3.0674084731089398182061213626e1), (11, -9.3321305264302278729567221706),
     (12, 1.5697238121770843886131091075e1), (13, -3.1139403219565177677282850411e1),
     (14, -9.3529243588444783865713862664), (15, 3.581684148639408375246589854e1)),
    ((0, 1.9985053242002433820987653617e1), (5, -3.8703730874935176555105901742e2),
     (6, -1.8917813819516756882830838328e2), (7, 5.2780815920542364900561016686e2),
     (8, -1.1573902539959630126141871134e1), (9, 6.8812326946963000169666922661),
     (10, -1.000605096691083840318386098), (11, 7.777137798053443209286926574e-1),
     (12, -2.7782057523535084065932004339), (13, -6.0196695231264120758267380846e1),
     (14, 8.4320405506677161018159903784e1), (15, 1.199229113618278932803513003e1)),
    ((0, -2.5693933462703749003312586129e1), (5, -1.5418974869023643374053993627e2),
     (6, -2.3152937917604549567536039109e2), (7, 3.576391179106141237828534991e2),
     (8, 9.3405324183624310003907691704e1), (9, -3.7458323136451633156875139351e1),
     (10, 1.0409964950896230045147246184e2), (11, 2.9840293426660503123344363579e1),
     (12, -4.3533456590011143754432175058e1), (13, 9.63245539591882829483949506e1),
     (14, -3.9177261675615439165231486172e1), (15, -1.4972683625798562581422125276e2)),
)

# The node of each stage index k, as a fraction of the step: stages 1-12
# (k = 0-11), the end of the step (12) and the dense stages 14-16 (13-15).
# A u-frame stage reads its factors at tau + FRAME_NODES[k] (fdir h).
FRAME_NODES = C_NODES + (1.0,) + DENSE_NODES
_STEP_NODES = np.array(FRAME_NODES[:13])
_DENSE_NODES = np.array(DENSE_NODES)

# fixed integration constants of every kernel
ATOL = 1e-30  # absolute part of the error scale
H_FIRST = 0.05  # first step of every drive
H_MAX = 0.5  # largest step of a w-frame drive
H_MAX_V_ENTRY = 0.1  # largest step of a drive to the V-entry band, in both frames
KNOT_TOL = 1e-9  # a step ending this close to a knot, relatively, lands on it
KNOT_NEWTON = 6  # safeguarded Newton iterations of the knot cut
EVENT_ITERATIONS = 64  # most iterations on an event bracket on the dense output
EVENT_TOL = 1e-13  # the iterations stop once hi - lo < EVENT_TOL max(hi, 1)
EVENT_NUDGE = 0.25  # a secant probe moves this share of the stop width past its root
STALL_SPEED = 1e-10  # a trajectory slower than this has stalled
DELTA_TOL = 1e-12  # Re u drifts less than this, relatively, inside EVENT_DELTA

STATUS_RUNNING = 0
STATUS_EVENT = 1
STATUS_TIME_END = 2
STATUS_STALLED = 3
STATUS_NONFINITE = 4

ACCEPTED, RETAKE, DEAD = 0, 1, 2  # verdicts of one scalar attempt (_advance)

EVENT_NONE = 0
EVENT_PAIR_ESCAPE = 1
EVENT_TRUNC_REGION = 2
EVENT_V_ENTRY = 3
EVENT_DELTA = 4  # the region where a Delta row stops (_delta_radius)

MODE_PURE = smoothing.MODE_PURE

# Beyond this radius the pure coefficients are taken in x = eps/r^2, since
# r*r (and rho2^1.5 a little earlier) would overflow; below it they keep
# the closed form in rho2 = r^2 + eps.
R_BIG = 1e100


def _hypot(x, y):
    """hypot(x, y), bitwise as np.hypot, returned as a built-in float.

    abs(complex) calls libm hypot but raises OverflowError where a finite
    pair overflows.  Below 1e308 in both coordinates it cannot; beyond,
    both are halved first (exact, but for a subnormal partner too small
    to matter) and the result doubled, giving inf where np.hypot does.
    """
    if abs(x) < 1e308 and abs(y) < 1e308:
        return abs(complex(x, y))
    return 2.0 * abs(complex(0.5 * x, 0.5 * y))


def _w_terms(r, alpha, table):
    """Drift and shrink coefficients of the w-subsystem at radius r.

    dxw/dt = drift - shrink * xw, dyw/dt = -shrink * yw.
    """
    mode = table[0]
    eps = table[1]
    if mode == MODE_PURE or r < table[2]:
        if r > R_BIG:
            x = eps / r / r
            shrink = (1.0 + x) / (1.0 + 2.0 * x)
            kappa = 2.0 * r * math.sqrt(1.0 + x) * shrink
        else:
            rho2 = r * r + eps
            den = r * r + 2.0 * eps
            kappa = 2.0 * rho2 * math.sqrt(rho2) / den
            shrink = rho2 / den
    elif r >= table[4]:
        kappa = 2.0 * r
        shrink = 1.0
    else:
        c0, c1, c2, c3 = table[5:9] if r < table[3] else table[9:13]
        m = c0 + r * (c1 + r * (c2 + r * c3))
        mp = c1 + r * (2.0 * c2 + 3.0 * r * c3)
        kappa = 2.0 * r / mp
        shrink = m / (r * mp)
    drift = 0.5 * kappa * (2.0 * alpha - 1.0)
    return drift, shrink


def _rhs_z(y0, y1, alpha):
    """Right-hand side z' = L z of the linear z-subsystem.

    The stall speed and geometry.flow_field_zw read it; drives take z in
    closed form.
    """
    return (alpha - 1.0) * y0, -alpha * y1


def _rhs2(y2, y3, alpha, table, k=0):
    """Right-hand side of the autonomous w-subsystem (k is unused)."""
    r = _hypot(y2, y3)
    drift, shrink = _w_terms(r, alpha, table)
    return drift - shrink * y2, -shrink * y3


def _rhs_u(u0, u1, alpha, frame, k):
    """Right-hand side of the u-frame at stage k of an attempt.

    frame is (table, EA, EB), EA[k] and EB[k] the factors of stage k
    (_factors), so that s = (EA[k] u0, EB[k] u1) and |w| = r = |s|^2.
    With p = kappa/(2r) - 1 and q = shrink - 1, G(s) - L s is
    (alpha - 1/2) p conj(s) - q s/2, and u' = (u0 cr, -u1 ci) with
    cr, ci = (alpha - 1/2) p -+ q/2.  p and q are taken in x = eps/r^2
    without cancellation on the pure profile, and are 0 exactly beyond
    the outer knot in cutoff mode; between the knots they come from
    _w_terms.
    """
    table, fa, fb = frame
    sx = fa[k] * u0
    sy = fb[k] * u1
    r = sx * sx + sy * sy
    if table[0] == MODE_PURE or r < table[2]:
        x = table[1] / r / r if r != 0.0 else math.inf  # as numpy divides by 0
        g = math.sqrt(1.0 + x)
        d = 1.0 + 2.0 * x
        p = x * (x - g) / ((g + 1.0) * d)
        q = -x / d
    elif r >= table[4]:
        p = q = 0.0
    else:
        drift, shrink = _w_terms(r, alpha, table)
        p = drift / ((2.0 * alpha - 1.0) * r) - 1.0
        q = shrink - 1.0
    c = (alpha - 0.5) * p
    return u0 * (c - 0.5 * q), -u1 * (c + 0.5 * q)


def _delta_radius(alpha, table):
    """s_star, the |Re s| beyond which Re u is Delta to DELTA_TOL.

    A Delta row is a drive of [0, 0, Re w0, Im w0] to EVENT_DELTA, the
    escape region of that row with radius s_star: its pair coordinates
    are +-Re s, s = sqrt(w).  In cutoff mode s_star = sqrt(epsilon), so
    |w| >= (Re s)^2 > epsilon, beyond the outer knot, where u' = 0 and
    Re s only grows: Re u is Delta exactly.  In pure mode
    (ln Re u)' = cr(x) = (alpha - 1/2) p - q/2 of _rhs_u, in
    x = epsilon / |w|^2 <= X = epsilon / (Re s)^4; by the expansions
    p = -x/2 + 11 x^2/8 and q = -x + 2 x^2,
    cr = (3/2 - alpha) x/2 + (11 alpha/8 - 27/16) x^2 + O(x^3).  Re s grows
    like e^((alpha-1) t), so x <= X e^(-4 (alpha-1) t), and the drift of
    ln Re u still to come is at most a X + b X^2, a = |3/2 - alpha| /
    (8 (alpha-1)), b = |11 alpha/8 - 27/16| / (8 (alpha-1)), to second
    order.  s_star = (epsilon / X)^(1/4) for the X where that is DELTA_TOL.
    """
    eps = table[1]
    if table[0] != MODE_PURE:
        return math.sqrt(eps)
    a = abs(1.5 - alpha) / (8.0 * (alpha - 1.0))
    b = abs(11.0 * alpha / 8.0 - 27.0 / 16.0) / (8.0 * (alpha - 1.0))
    x = 2.0 * DELTA_TOL / (a + math.sqrt(a * a + 4.0 * b * DELTA_TOL))
    return math.sqrt(math.sqrt(eps / x))


def _factors(alpha, tau):
    """The factors (e^((alpha-1) tau), e^(-alpha tau)) of z and s at tau.

    z(tau) = (e^((alpha-1) tau) Re z0, e^(-alpha tau) Im z0), and in the
    u-frame s = (e^((alpha-1) tau) Re u, e^(-alpha tau) Im u).  tau is a
    float or an array; both twins take the factors from np.exp, whose
    bits do not depend on how many values one call takes (math.exp
    differs from it in the last place on some arguments).
    """
    return np.exp((alpha - 1.0) * tau), np.exp(-alpha * tau)


def _to_zw(va, vb, zx, zy, ea, eb, uframe):
    """[z, w] at a time with factors (ea, eb), as a 4-tuple.

    z0 = (zx, zy) is the start of z, and (va, vb) the integrated pair: w
    itself, or u if uframe, where w = s^2 is squared as
    geometry.complex_square squares.  Arithmetic alone, so that numpy
    rows give the bits of scalar rows.
    """
    if uframe:
        sx = ea * va
        sy = eb * vb
        va, vb = sx * sx - sy * sy, sx * sy + sy * sx
    return ea * zx, eb * zy, va, vb


def _w_dot(ua, ub, ka, kb, ea, eb, alpha):
    """w' = 2 s s' in the u-frame, from u, u' = (ka, kb) and the factors.

    s' = L s + (ea ka, eb kb).  Arithmetic alone, as _to_zw.
    """
    sx = ea * ua
    sy = eb * ub
    dx = (alpha - 1.0) * sx + ea * ka
    dy = -alpha * sy + eb * kb
    return 2.0 * (sx * dx - sy * dy), 2.0 * (sx * dy + sy * dx)


def _stages2(ya, yb, fa, fb, h, rhs, alpha, table):
    """Stages 2-12 of a DOP853 step of size h on a 2-component subsystem.

    rhs is _rhs2 or _rhs_u, called with the stage index k of
    FRAME_NODES as its last argument; h carries the flow direction as its
    sign and (fa, fb) is the derivative at the start.  Each stage sum is
    h (sum of a_ij k_j) in the term order of STAGES.  Returns the stages
    that the solution, the error estimates and the dense output read,
    (a6, ..., a12, b6, ..., b12).
    """
    a2, b2 = rhs(ya + h * (A21 * fa), yb + h * (A21 * fb), alpha, table, 1)
    a3, b3 = rhs(
        ya + h * (A31 * fa + A32 * a2), yb + h * (A31 * fb + A32 * b2), alpha, table, 2
    )
    a4, b4 = rhs(
        ya + h * (A41 * fa + A43 * a3), yb + h * (A41 * fb + A43 * b3), alpha, table, 3
    )
    a5, b5 = rhs(
        ya + h * (A51 * fa + A53 * a3 + A54 * a4),
        yb + h * (A51 * fb + A53 * b3 + A54 * b4),
        alpha, table, 4,
    )
    a6, b6 = rhs(
        ya + h * (A61 * fa + A64 * a4 + A65 * a5),
        yb + h * (A61 * fb + A64 * b4 + A65 * b5),
        alpha, table, 5,
    )
    a7, b7 = rhs(
        ya + h * (A71 * fa + A74 * a4 + A75 * a5 + A76 * a6),
        yb + h * (A71 * fb + A74 * b4 + A75 * b5 + A76 * b6),
        alpha, table, 6,
    )
    a8, b8 = rhs(
        ya + h * (A81 * fa + A84 * a4 + A85 * a5 + A86 * a6 + A87 * a7),
        yb + h * (A81 * fb + A84 * b4 + A85 * b5 + A86 * b6 + A87 * b7),
        alpha, table, 7,
    )
    a9, b9 = rhs(
        ya + h * (A91 * fa + A94 * a4 + A95 * a5 + A96 * a6 + A97 * a7 + A98 * a8),
        yb + h * (A91 * fb + A94 * b4 + A95 * b5 + A96 * b6 + A97 * b7 + A98 * b8),
        alpha, table, 8,
    )
    a10, b10 = rhs(
        ya + h * (A101 * fa + A104 * a4 + A105 * a5 + A106 * a6 + A107 * a7
                  + A108 * a8 + A109 * a9),
        yb + h * (A101 * fb + A104 * b4 + A105 * b5 + A106 * b6 + A107 * b7
                  + A108 * b8 + A109 * b9),
        alpha, table, 9,
    )
    a11, b11 = rhs(
        ya + h * (A111 * fa + A114 * a4 + A115 * a5 + A116 * a6 + A117 * a7
                  + A118 * a8 + A119 * a9 + A1110 * a10),
        yb + h * (A111 * fb + A114 * b4 + A115 * b5 + A116 * b6 + A117 * b7
                  + A118 * b8 + A119 * b9 + A1110 * b10),
        alpha, table, 10,
    )
    a12, b12 = rhs(
        ya + h * (A121 * fa + A124 * a4 + A125 * a5 + A126 * a6 + A127 * a7
                  + A128 * a8 + A129 * a9 + A1210 * a10 + A1211 * a11),
        yb + h * (A121 * fb + A124 * b4 + A125 * b5 + A126 * b6 + A127 * b7
                  + A128 * b8 + A129 * b9 + A1210 * b10 + A1211 * b11),
        alpha, table, 11,
    )
    return a6, a7, a8, a9, a10, a11, a12, b6, b7, b8, b9, b10, b11, b12


def _step2(ya, yb, fa, fb, h, rhs, alpha, table):
    """One embedded DOP853 attempt on a 2-component subsystem.

    The arguments are those of _stages2.  Returns the 8th order solution
    and the unscaled 5th and 3rd order error estimates (E5, E3: the error
    of the step is h times them), (na, nb, e5a, e5b, e3a, e3b).
    """
    a6, a7, a8, a9, a10, a11, a12, b6, b7, b8, b9, b10, b11, b12 = _stages2(
        ya, yb, fa, fb, h, rhs, alpha, table
    )
    na = ya + h * (B1 * fa + B6 * a6 + B7 * a7 + B8 * a8 + B9 * a9 + B10 * a10
                   + B11 * a11 + B12 * a12)
    nb = yb + h * (B1 * fb + B6 * b6 + B7 * b7 + B8 * b8 + B9 * b9 + B10 * b10
                   + B11 * b11 + B12 * b12)
    e5a = (ER1 * fa + ER6 * a6 + ER7 * a7 + ER8 * a8 + ER9 * a9 + ER10 * a10
           + ER11 * a11 + ER12 * a12)
    e5b = (ER1 * fb + ER6 * b6 + ER7 * b7 + ER8 * b8 + ER9 * b9 + ER10 * b10
           + ER11 * b11 + ER12 * b12)
    e3a = (E31 * fa + B6 * a6 + B7 * a7 + B8 * a8 + E39 * a9 + B10 * a10
           + B11 * a11 + E312 * a12)
    e3b = (E31 * fb + B6 * b6 + B7 * b7 + B8 * b8 + E39 * b9 + B10 * b10
           + B11 * b11 + E312 * b12)
    return na, nb, e5a, e5b, e3a, e3b


def _combo(K, terms):
    """Sum of a K[j] over the (j, a) of terms, added left to right.

    K is a list of floats in the scalar kernels and of arrays in the
    numpy ones; each term is one product, so both give the same bits.
    """
    j, a = terms[0]
    acc = a * K[j]
    for j, a in terms[1:]:
        acc += a * K[j]
    return acc


def _contd8_coefs(y, n, K, h):
    """The 7 dense-output coefficients of one component over a step.

    The step of size h takes y to n; K holds its stages on the index of
    DENSE_STAGES, the derivatives at y (K[0]) and at n (K[12]) included.
    Like _contd8 it is made of arithmetic operators alone, so numpy rows
    (_dense_np) give the bits of the scalar rows (_dense2).
    """
    d = n - y
    f = K[0]
    g = K[12]
    return (d, h * f - d, 2.0 * d - h * (g + f), h * _combo(K, DENSE_ROWS[0]),
            h * _combo(K, DENSE_ROWS[1]), h * _combo(K, DENSE_ROWS[2]),
            h * _combo(K, DENSE_ROWS[3]))


def _dense2(ya, yb, fa, fb, na, nb, ga, gb, h, rhs, alpha, table):
    """Dense output of one accepted DOP853 step on a 2-component subsystem.

    The step of size h took (ya, yb), with derivative (fa, fb), to
    (na, nb), with derivative (ga, gb); rhs is the one it was taken with.
    Stages 2-12 are recomputed (_stages2) and stages 14-16 added from
    DENSE_STAGES.  Returns the coefficients of the a and b components,
    two tuples that _contd8 reads.
    """
    a6, a7, a8, a9, a10, a11, a12, b6, b7, b8, b9, b10, b11, b12 = _stages2(
        ya, yb, fa, fb, h, rhs, alpha, table
    )
    # no dense term reads stages 2-5 (indices 1-4)
    Ka = [fa, 0.0, 0.0, 0.0, 0.0, a6, a7, a8, a9, a10, a11, a12, ga]
    Kb = [fb, 0.0, 0.0, 0.0, 0.0, b6, b7, b8, b9, b10, b11, b12, gb]
    for k, terms in enumerate(DENSE_STAGES, 13):
        a, b = rhs(ya + h * _combo(Ka, terms), yb + h * _combo(Kb, terms), alpha,
                   table, k)
        Ka.append(a)
        Kb.append(b)
    return _contd8_coefs(ya, na, Ka, h), _contd8_coefs(yb, nb, Kb, h)


def _contd8(y, x, c):
    """The dense output at fraction x of a step from y, coefficients c.

    Hairer's contd8 in arithmetic operators alone, so that numpy rows of
    y, x and c give the bits of the scalar rows.  At x = 1 it is
    y + (n - y), which may differ from the end state n in the last place.
    """
    s = 1.0 - x
    return y + x * (c[0] + s * (c[1] + x * (c[2] + s * (c[3] + x * (
        c[4] + s * (c[5] + x * c[6]))))))


def _err_norm(sq5, sq3, n, h):
    """Scaled DOP853 error of an attempt of size h over n components.

    sq5 and sq3 are the sums, over the components left to right, of the
    squared E5 and E3 estimates each divided by its error scale.
    """
    root = math.sqrt(n * (sq5 + 0.01 * sq3))
    return abs(h) * sq5 / (root if root > 0.0 else 1.0)


def _pair_re(x, re_w, r):
    """Real parts (x_hi, x_lo) of the two pair coordinates.

    With Re z = x, Re w = re_w and |w| = r, the pair is z +- sqrt(w) and
    u = |Re sqrt(w)| = sqrt((r + Re w)/2), so x_hi = x + u >= x_lo = x - u.
    """
    s = r + re_w
    if s < 0.0:
        s = 0.0
    u = math.sqrt(0.5 * s)
    return x + u, x - u


def _next_h(err, h_use, h_max):
    """Step size after an attempt of size h_use with scaled error err.

    The factor 0.9 err^(-1/8), within [0.2, 10], takes the eighth root as
    three square roots; a non-finite err halves the step.
    """
    if not err < math.inf:
        fac = 0.5
    elif err > 0.0:
        fac = 0.9 / math.sqrt(math.sqrt(math.sqrt(err)))
        if fac < 0.2:
            fac = 0.2
        elif fac > 10.0:
            fac = 10.0
    else:
        fac = 10.0
    h = h_use * fac
    if h > h_max:
        h = h_max
    return h


def _h_max(event_kind, uframe):
    """Largest step of a drive to the event region event_kind in a frame.

    The u-frame has no cap but for the V-entry band, which one long step
    could jump over: its escape and truncation regions cannot be entered
    and left within one step (module docstring).
    """
    if event_kind == EVENT_V_ENTRY:
        return H_MAX_V_ENTRY
    return math.inf if uframe else H_MAX


def _band(k):
    """Squares of k (1 - KNOT_TOL) and k (1 + KNOT_TOL) for a knot k."""
    lo = k - KNOT_TOL * k
    hi = k + KNOT_TOL * k
    return lo * lo, hi * hi


def _knot_crossed(qa, qb, table):
    """The cutoff knot that |w|^2 crosses first going monotonically from qa to qb.

    |w| crosses a knot k in table[2:5] when it passes from beyond
    k (1 + KNOT_TOL) to within k (1 - KNOT_TOL), or back; closer to k it
    is on the knot.  Returns 0.0 if it crosses none.
    """
    if qb > qa:
        for i in range(2, 5):
            lo, hi = _band(table[i])
            if qa < lo and qb > hi:
                return table[i]
    else:
        for i in range(4, 1, -1):
            lo, hi = _band(table[i])
            if qa > hi and qb < lo:
                return table[i]
    return 0.0


def _on_knot(x, y, table):
    """Whether w = (x, y) is on a cutoff knot, in the sense of _knot_crossed."""
    q = x * x + y * y
    for i in range(2, 5):
        lo, hi = _band(table[i])
        if lo <= q <= hi:
            return True
    return False


def _turning_points(da, c2, c3):
    """Roots in (0, 1) of da + 2 c2 s + 3 c3 s^2, ascending; 1.0 fills for none."""
    t1 = 1.0
    t2 = 1.0
    if c3 != 0.0:
        disc = c2 * c2 - 3.0 * c3 * da
        if disc > 0.0:
            sq = math.sqrt(disc)
            t1 = (-c2 - sq) / (3.0 * c3)
            t2 = (-c2 + sq) / (3.0 * c3)
            if t2 < t1:
                t1, t2 = t2, t1
    elif c2 != 0.0:
        t1 = -da / (2.0 * c2)
    if not 0.0 < t2 < 1.0:
        t2 = 1.0
    if not 0.0 < t1 < 1.0:
        t1 = t2
        t2 = 1.0
    return t1, t2


def _hermite_root(qa, da, c2, c3, kk, lo, hi, plo, phi):
    """Root of p(s) = qa + s (da + s (c2 + s c3)) = kk in [lo, hi].

    p(lo) = plo and p(hi) = phi lie on either side of kk.  KNOT_NEWTON
    Newton steps from the secant root; one that leaves the bracket kept
    from the signs of p - kk is replaced by its midpoint.
    """
    up = plo < kk
    th = lo + (hi - lo) * (kk - plo) / (phi - plo)
    for _ in range(KNOT_NEWTON):
        g = qa + th * (da + th * (c2 + th * c3)) - kk
        dg = da + th * (2.0 * c2 + 3.0 * th * c3)
        if (g < 0.0) == up:
            lo = th
        else:
            hi = th
        nt = th - g / dg if dg != 0.0 else -1.0
        if not lo <= nt <= hi:
            nt = 0.5 * (lo + hi)
        th = nt
    return th


def _knot_fraction(xa, ya, fxa, fya, xb, yb, fxb, fyb, h, table):
    """Fraction of a step of size h before |w| first crosses a cutoff knot.

    The step takes w from (xa, ya) to (xb, yb), with derivatives (fxa,
    fya) and (fxb, fyb) there.  The crossing is located on the cubic
    Hermite interpolant p(s), s in [0, 1], of |w|^2 over the step, split
    at its turning points into monotone pieces: the first piece that
    crosses a knot (as _knot_crossed) holds it, so a step that dips
    across a knot and back is caught too.  Returns 1.0 if p crosses none.
    """
    qa = xa * xa + ya * ya
    qb = xb * xb + yb * yb
    da = 2.0 * h * (xa * fxa + ya * fya)
    db = 2.0 * h * (xb * fxb + yb * fyb)
    d = qb - qa
    c2 = 3.0 * d - 2.0 * da - db
    c3 = da + db - 2.0 * d
    t1, t2 = _turning_points(da, c2, c3)
    lo = 0.0
    plo = qa
    for hi in (t1, t2, 1.0):
        if hi > lo:
            phi = qb if hi == 1.0 else qa + hi * (da + hi * (c2 + hi * c3))
            k = _knot_crossed(plo, phi, table)
            if k > 0.0:
                return _hermite_root(qa, da, c2, c3, k * k, lo, hi, plo, phi)
            lo = hi
            plo = phi
    return 1.0


def _event_eps(table, kind):
    """The epsilon with which a drive reads its event region.

    In cutoff mode a w-frame step that leaves the escape region through
    |w| = epsilon, the outer knot, is cut to land on it, on either side
    within KNOT_TOL as rounding falls; a drive counts a state on that knot
    (_on_knot) as outside the band |w| <= epsilon, so that the landing
    cannot hide the entry before it.  Every other drive reads epsilon.
    """
    eps = table[1]
    if kind == EVENT_PAIR_ESCAPE and table[0] != MODE_PURE:
        return eps - KNOT_TOL * eps
    return eps


def _lesser(a, b):
    """min(a, b) of floats as np.minimum takes it: nan if either is nan."""
    return a if a < b or a != a else b


def _greater(a, b):
    """max(a, b) of floats as np.maximum takes it: nan if either is nan."""
    return a if a > b or a != a else b


def _gap_ratio(x1, x2, r, radius, epsilon, kind, lesser, greater):
    """The margin ratio of an event region, the one definition of the regions.

    The least ratio of the bounds, from the pair coordinates x1, x2 and
    |w| = r: escape (and EVENT_DELTA) min(|x1|, |x2|) > radius and
    r > epsilon; truncation
    x1, x2 <= -epsilon and x1 + x2 <= -3 epsilon; V-entry the greater of
    V- (|x1| < epsilon, x2 < -2 epsilon) and V+ (|x2| < epsilon,
    x1 > 2 epsilon).  A state is inside where it exceeds 1, or is at least
    1 for the closed truncation region (_inside): division is correctly
    rounded and monotone, so for b > 0, a / b > 1 exactly when a > b and
    a / b >= 1 exactly when a >= b.  radius and epsilon are positive (only
    escape reads radius).  Floats with _lesser and _greater give the bits
    of arrays with np.minimum and np.maximum.
    """
    if kind == EVENT_PAIR_ESCAPE or kind == EVENT_DELTA:
        return lesser(lesser(abs(x1), abs(x2)) / radius, r / epsilon)
    if kind == EVENT_TRUNC_REGION:
        return lesser(lesser(-x1 / epsilon, -x2 / epsilon), -(x1 + x2) / (3.0 * epsilon))
    # 5e-324 is the least positive float: epsilon / 0 is inf, not an error
    e2 = 2.0 * epsilon
    return greater(lesser(epsilon / greater(abs(x1), 5e-324), -x2 / e2),
                   lesser(epsilon / greater(abs(x2), 5e-324), x1 / e2))


def _inside(ratio, kind):
    """Whether margin ratios (floats or arrays) lie inside the region kind."""
    return ratio >= 1.0 if kind == EVENT_TRUNC_REGION else ratio > 1.0


def _log_gap(v):
    """log v by math.log in both twins, -inf where v <= 0 or is nan."""
    return math.log(v) if v > 0.0 else -math.inf


def _event_ratio(y0, y1, y2, y3, radius, epsilon, kind):
    """The _gap_ratio of a state [z, w].

    Its log, the event gap (_log_gap), is continuous where finite and
    positive only inside the region: g > 0 implies a hit and a hit
    g >= 0.  Along a u-frame step |x_1,2| = e^((alpha-1) tau)
    |Re z0 +- Re u| with Re u almost constant, so g is almost linear in tau.
    """
    r = _hypot(y2, y3)
    x1, x2 = _pair_re(y0, y2, r)
    return _gap_ratio(x1, x2, r, radius, epsilon, kind, _lesser, _greater)


def _event_val(y0, y1, y2, y3, radius, epsilon, kind):
    """Event predicate at a state, from its _event_ratio; returns (hit, sign).

    A V-entry hit takes the sign of Re z, that of the band end it enters
    (x1 + x2 < -epsilon in V-, > epsilon in V+); any other state 0.
    """
    if kind == EVENT_NONE:
        return False, 0
    hit = _inside(_event_ratio(y0, y1, y2, y3, radius, epsilon, kind), kind)
    return hit, (1 if y0 > 0.0 else -1) if hit and kind == EVENT_V_ENTRY else 0


def _pick(c, a, b):
    """a if c else b: np.where for floats."""
    return a if c else b


def _event_probe(lo, hi, g_lo, g_hi, slow, tol, where):
    """The next time at which an event bracket [lo, hi] reads the dense output.

    The secant root of the gaps g_lo < 0 <= g_hi, moved EVENT_NUDGE tol
    (tol = EVENT_TOL max(hi, 1), the stop width) towards the farther end,
    past the root as seen from the nearer one, so that the bracket closes
    from both sides; the midpoint where a gap is not finite, g_hi <= g_lo,
    the moved root is not strictly inside, or the three iterations before
    did not halve the bracket (slow 3).  Arithmetic, comparisons and
    where alone, so floats with _pick give the bits of arrays with
    np.where.
    """
    secant = (slow < 3) & (abs(g_lo) < math.inf) & (abs(g_hi) < math.inf) & (g_lo < g_hi)
    x = hi - g_hi * (hi - lo) / where(secant, g_hi - g_lo, 1.0)
    x += where(hi - x > x - lo, EVENT_NUDGE * tol, -EVENT_NUDGE * tol)
    return where(secant & (lo < x) & (x < hi), x, 0.5 * (lo + hi))


def _advance(ya, yb, fa, fb, h_use, fdir, h_land, alpha, table, rtol, h_max, frame):
    """One judged DOP853 attempt of size fdir h_use from (ya, yb), derivative (fa, fb).

    frame is None in the w-frame, where the pair is w, stepped with
    _rhs2; in cutoff mode the attempt is cut at a knot and h_land carries
    the landing rule, as the module docstring says.  In the u-frame frame
    is the (table, EA, EB) of _rhs_u for this attempt, and no knot is
    cut.  The error sums the pair's squares.  Returns (verdict, na, nb,
    ka, kb, h, h_land), verdict ACCEPTED, RETAKE or DEAD (a non-finite
    attempt with h < 1e-14), n the new pair and, on acceptance, k the
    derivative that seeds the next step; h is the next step size.
    """
    hs = fdir * h_use
    rhs, arg = (_rhs2, table) if frame is None else (_rhs_u, frame)
    cutoff = frame is None and table[0] != MODE_PURE
    na, nb, u2, u3, v2, v3 = _step2(ya, yb, fa, fb, hs, rhs, alpha, arg)
    ka = kb = 0.0
    err = math.inf
    if math.isfinite(na) and math.isfinite(nb):
        s2 = ATOL + rtol * max(abs(ya), abs(na))
        s3 = ATOL + rtol * max(abs(yb), abs(nb))
        u2, u3, v2, v3 = u2 / s2, u3 / s3, v2 / s2, v3 / s3
        err = _err_norm(u2 * u2 + u3 * u3, v2 * v2 + v3 * v3, 2.0, hs)
        if cutoff and (
            err <= 1.0
            or _knot_crossed(ya * ya + yb * yb, na * na + nb * nb, table) > 0.0
        ):
            ka, kb = _rhs2(na, nb, alpha, table)
            frac = _knot_fraction(ya, yb, fa, fb, na, nb, ka, kb, hs, table)
            if frac < 1.0:
                return RETAKE, na, nb, ka, kb, h_use * frac, max(h_land, h_use)
    h = _next_h(err, h_use, h_max)
    verdict = DEAD if not err < math.inf and h < 1e-14 else RETAKE
    if err <= 1.0:
        verdict = ACCEPTED
        if h_land > 0.0:
            if _on_knot(na, nb, table):
                h = max(h, h_land)
            h_land = 0.0
        if not cutoff:
            ka, kb = rhs(na, nb, alpha, arg, 12)
    return verdict, na, nb, ka, kb, h, h_land


def _dense_event(pa, pb, fa, fb, na, nb, ka, kb, pre, end, h_acc, t, fdir, zx, zy,
                 alpha, table, frame, radius, eps, kind):
    """Locate an event crossing inside one accepted step of size h_acc from time t.

    The step took the pair p, with derivative f, to n, with derivative k,
    and the state pre = [z, w] outside the event region to the state end
    inside it, read with epsilon eps (_event_eps); frame is that of its
    _advance.  The bracket [0, h_acc] of the time offset closes on the
    dense output of the pair (_dense2), each state converted (_to_zw) with
    the factors at its own time and read once, by its _event_ratio: a hit
    (_inside) moves hi, a miss lo.  Each next time is _event_probe's, from
    the event gaps (_log_gap of the ratios) at lo and hi, the gap of the
    end that did not move halved when the other moved twice running (the
    Illinois rule; Dowell & Jarratt, BIT 11, 1971).  At most
    EVENT_ITERATIONS iterations, stopping once hi - lo < EVENT_TOL
    max(hi, 1).  Returns (state, dt): the state at the first time offset dt
    from t found inside the region, end itself if that is the whole step.
    """
    hs = fdir * h_acc
    uframe = frame is not None
    rhs, arg = _rhs2, table
    if uframe:
        da, db = _factors(alpha, fdir * t + _DENSE_NODES * hs)
        rhs, arg = _rhs_u, (table, frame[1] + da.tolist(), frame[2] + db.tolist())
    ca, cb = _dense2(pa, pb, fa, fb, na, nb, ka, kb, hs, rhs, alpha, arg)
    lo = 0.0
    hi = h_acc
    g_lo = _log_gap(_event_ratio(*pre, radius, eps, kind))
    g_hi = _log_gap(_event_ratio(*end, radius, eps, kind))
    side = slow = 0
    for _ in range(EVENT_ITERATIONS):
        width = hi - lo
        tol = EVENT_TOL * (hi if hi > 1.0 else 1.0)
        if width < tol:
            break
        x = _event_probe(lo, hi, g_lo, g_hi, slow, tol, _pick)
        ea, eb = _factors(alpha, fdir * (t + x))
        f = x / h_acc
        state = _to_zw(_contd8(pa, f, ca), _contd8(pb, f, cb), zx, zy, float(ea),
                       float(eb), uframe)
        v = _event_ratio(*state, radius, eps, kind)
        g = _log_gap(v)
        if _inside(v, kind):
            if side > 0:
                g_lo *= 0.5
            hi, g_hi, end, side = x, g, state, 1
        else:
            if side < 0:
                g_hi *= 0.5
            lo, g_lo, side = x, g, -1
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return end, hi


@np.errstate(over="ignore")
def _drive(
    y0, y1, y2, y3, t_end, alpha, table, rtol, radius, event_kind, max_steps, rec, fdir
):
    """Integrate one trajectory from t = 0 with adaptive steps and event location.

    Returns (status, t, y0, y1, y2, y3, event_sign, n_recorded, n_steps).
    t advances by the step size; fdir (+1 or -1) is the sign of every
    step, so fdir = -1 follows the upward flow.  z is taken in closed
    form (_factors at tau = fdir t) and the pair integrated is w, then u
    from the switch on (module docstring).  A start inside the event
    region is the event: the drive ends STATUS_EVENT at t = 0 after no
    attempt.  An accepted step that ends inside it is refined to the
    entry (_dense_event), but for EVENT_DELTA, whose every state gives
    Delta to DELTA_TOL (_delta_radius): the drive ends at that step's
    end.  The start and accepted states [z, w] are appended to rec as
    rows (t, y0, y1, y2, y3) until its capacity is reached; a rec of zero
    rows records nothing.  An accepted step whose state [z, w] is not
    finite ends the drive STATUS_NONFINITE at the state before it.
    """
    zx, zy = y0, y1
    va, vb = y2, y3
    t = 0.0
    h = H_FIRST
    h_land = 0.0
    uframe = False
    h_max = _h_max(event_kind, uframe)
    eps = _event_eps(table, event_kind)
    fa, fb = _rhs2(y2, y3, alpha, table)
    f12, f13 = fa, fb  # w' at the state [z, w], for the stall speed
    nrec = 0
    cap = rec.shape[0]
    if nrec < cap:
        rec[nrec] = t, y0, y1, y2, y3
        nrec += 1
    status = STATUS_RUNNING
    steps = 0
    hit, esign = _event_val(y0, y1, y2, y3, radius, eps, event_kind)
    while not hit and steps < max_steps:
        f10, f11 = _rhs_z(y0, y1, alpha)
        speed = math.sqrt(f10 * f10 + f11 * f11 + f12 * f12 + f13 * f13)
        if speed < STALL_SPEED:
            status = STATUS_STALLED
            break
        remaining = t_end - t
        if remaining <= 1e-14 * (1.0 if t_end < 1.0 else t_end):
            status = STATUS_TIME_END
            break
        h_use = h if h < remaining else remaining
        hs = fdir * h_use
        frame = None
        if uframe:
            ea, eb = _factors(alpha, fdir * t + _STEP_NODES * hs)
            frame = (table, ea.tolist(), eb.tolist())
            ea, eb = frame[1][12], frame[2][12]
        else:
            ea, eb = _factors(alpha, fdir * t + hs)
            ea, eb = float(ea), float(eb)
        verdict, na, nb, ka, kb, h, h_land = _advance(
            va, vb, fa, fb, h_use, fdir, h_land, alpha, table, rtol, h_max, frame
        )
        steps += 1
        if verdict == DEAD:
            status = STATUS_NONFINITE
            break
        if verdict != ACCEPTED:
            continue
        end = _to_zw(na, nb, zx, zy, ea, eb, uframe)
        if not all(map(math.isfinite, end)):
            status = STATUS_NONFINITE
            break
        # Re z keeps its sign along the drive, and with it a V-entry sign
        hit, esign = _event_val(*end, radius, eps, event_kind)
        if hit:
            dt = h_use  # a Delta row is read where it is found inside
            if event_kind != EVENT_DELTA:
                end, dt = _dense_event(
                    va, vb, fa, fb, na, nb, ka, kb, (y0, y1, y2, y3), end, h_use, t,
                    fdir, zx, zy, alpha, table, frame, radius, eps, event_kind,
                )
            t += dt
        else:
            va, vb, fa, fb = na, nb, ka, kb
            t += h_use
            if uframe:
                f12, f13 = _w_dot(va, vb, fa, fb, ea, eb, alpha)
            else:
                f12, f13 = ka, kb
                # the switch: |w| >= epsilon and growing along the drive
                if _hypot(na, nb) >= table[1] and fdir * (na * ka + nb * kb) > 0.0:
                    s = complex(np.sqrt(complex(na, nb)))
                    va, vb = s.real / ea, s.imag / eb
                    fa, fb = _rhs_u(va, vb, alpha, (table, (ea,), (eb,)), 0)
                    uframe = True
                    h_max = _h_max(event_kind, uframe)
        y0, y1, y2, y3 = end
        if nrec < cap:
            rec[nrec] = t, y0, y1, y2, y3
            nrec += 1
    if hit:
        status = STATUS_EVENT
    elif status == STATUS_RUNNING and t_end - t <= 1e-14 * (
        1.0 if t_end < 1.0 else t_end
    ):
        status = STATUS_TIME_END
    return status, t, y0, y1, y2, y3, esign, nrec, steps


def _drive_batch(
    Y, t_end, alpha, table, rtol, radius, event_kind, max_steps,
    out_status, out_t, out_sign, fdir,
):
    """Integrate every row of Y in place; fill status, time, event sign."""
    rec = np.empty((0, 5))
    for i, row in enumerate(Y.tolist()):
        res = _drive(*row, t_end, alpha, table, rtol, radius, event_kind, max_steps,
                     rec, fdir)
        out_status[i], out_t[i], out_sign[i] = res[0], res[1], res[6]
        Y[i] = res[2:6]


def _kappa_shrink_np(r, table):
    """Vectorized w-flow coefficients at radii r: (kappa, shrink).

    kappa = 2r/m'(r) and shrink = m(r)/(r m'(r)), so that the drift of
    Re w is kappa (2 alpha - 1)/2.  The pure profile has the closed form
    below (taken in x = eps/r^2 beyond R_BIG), which cutoff mode also uses
    inside table[2]; from there on m and m' come from the smoothing
    evaluator.
    """
    eps = table[1]
    if table[0] == MODE_PURE:
        big = r > R_BIG
        if big.any():
            rf = np.maximum(r, R_BIG)
            x = eps / rf / rf
            shrink = (1.0 + x) / (1.0 + 2.0 * x)
            kappa = 2.0 * rf * np.sqrt(1.0 + x) * shrink
            near = _kappa_shrink_np(np.minimum(r, R_BIG), table)
            return np.where(big, kappa, near[0]), np.where(big, shrink, near[1])
        rho2 = r * r + eps
        den = r * r + 2.0 * eps
        return 2.0 * rho2 * np.sqrt(rho2) / den, rho2 / den
    # inner radii read the profile at the knot and are replaced below
    rb = np.maximum(r, table[2])
    m, mp = smoothing._profile(rb, table, (1, 2))
    kappa = 2.0 * rb / mp
    shrink = m / (rb * mp)
    inner = r < table[2]
    kappa[inner], shrink[inner] = _kappa_shrink_np(r[inner], (MODE_PURE, eps))
    return kappa, shrink


def _rhs_w_np(W, alpha, table):
    """Vectorized right-hand side of the w-subsystem on rows [Re w, Im w]."""
    kappa, shrink = _kappa_shrink_np(np.hypot(W[:, 0], W[:, 1]), table)
    F = np.empty_like(W)
    F[:, 0] = 0.5 * kappa * (2.0 * alpha - 1.0) - shrink * W[:, 0]
    F[:, 1] = -shrink * W[:, 1]
    return F


def _rhs_u_np(U, ea, eb, alpha, table):
    """Vectorized twin of :func:`_rhs_u` on rows [Re u, Im u], factors ea, eb."""
    sx = ea * U[:, 0]
    sy = eb * U[:, 1]
    r = sx * sx + sy * sy
    x = table[1] / r / r
    g = np.sqrt(1.0 + x)
    d = 1.0 + 2.0 * x
    p = x * (x - g) / ((g + 1.0) * d)
    q = -x / d
    if table[0] != MODE_PURE:
        out = r >= table[4]
        p[out] = q[out] = 0.0
        mid = ~(r < table[2]) & ~out
        if mid.any():
            kappa, shrink = _kappa_shrink_np(r[mid], table)
            drift = 0.5 * kappa * (2.0 * alpha - 1.0)
            p[mid] = drift / ((2.0 * alpha - 1.0) * r[mid]) - 1.0
            q[mid] = shrink - 1.0
    c = (alpha - 0.5) * p
    F = np.empty_like(U)
    F[:, 0] = U[:, 0] * (c - 0.5 * q)
    F[:, 1] = -U[:, 1] * (c + 0.5 * q)
    return F


def _sum_sq(Q):
    """Row sums of squares of Q, over the columns left to right."""
    acc = Q[:, 0] * Q[:, 0]
    for j in range(1, Q.shape[1]):
        acc += Q[:, j] * Q[:, j]
    return acc


def _stages_np(Y, K1, h, rhs, t):
    """Stages 1-12 of a DOP853 step of per-row signed size h for all rows.

    rhs(Z, k, t, h) maps the state rows Z of stage index k (FRAME_NODES)
    of steps of size h from times t to derivative rows, and K1 is the
    derivative at Y.  Returns the list of the 12 stage derivatives, K1
    first.
    """
    hc = h[:, None]
    K = [K1]
    for k, terms in enumerate(STAGES, 1):
        K.append(rhs(Y + hc * _combo(K, terms), k, t, h))
    return K


def _attempt_np(Y, K1, h, rhs, rtol, t):
    """One embedded DOP853 attempt for all rows with per-row step h from times t.

    rhs and K1 are those of :func:`_stages_np`.  Returns the 8th order
    states and the scaled error of each row (as :func:`_err_norm`); rows
    whose new state is not finite get inf.
    """
    K = _stages_np(Y, K1, h, rhs, t)
    Yn = Y + h[:, None] * _combo(K, WEIGHTS)
    scale = ATOL + rtol * np.maximum(np.abs(Y), np.abs(Yn))
    sq5 = _sum_sq(_combo(K, ERR5) / scale)
    sq3 = _sum_sq(_combo(K, ERR3) / scale)
    root = np.sqrt(Y.shape[1] * (sq5 + 0.01 * sq3))
    err = np.abs(h) * sq5 / np.where(root > 0.0, root, 1.0)
    err[~np.isfinite(Yn).all(axis=1)] = np.inf
    return Yn, err


def _dense_np(Y, K1, Yn, Kn, h, rhs, t):
    """Dense output of accepted DOP853 steps, row by row, as :func:`_dense2`.

    Each step of signed size h from time t took Y, with derivative K1,
    to Yn, with derivative Kn; rhs is the one it was taken with.  Returns
    the 7 coefficients as one array of shape (7, rows, columns) that
    :func:`_contd8` reads.
    """
    hc = h[:, None]
    K = _stages_np(Y, K1, h, rhs, t) + [Kn]
    for k, terms in enumerate(DENSE_STAGES, 13):
        K.append(rhs(Y + hc * _combo(K, terms), k, t, h))
    return np.array(_contd8_coefs(Y, Yn, K, hc))


def _next_h_np(err, h_use, h_max):
    """Vectorized twin of :func:`_next_h`."""
    with np.errstate(divide="ignore"):
        fac = np.clip(0.9 / np.sqrt(np.sqrt(np.sqrt(err))), 0.2, 10.0)
    fac[~(err < np.inf)] = 0.5
    return np.minimum(h_use * fac, h_max)


def _holds_band_np(lo_q, hi_q, table):
    """Rows whose range [lo_q, hi_q] of |w|^2 holds a whole knot band.

    Only such a range can carry |w| across a knot, in the sense of
    :func:`_knot_crossed`; a nan bound counts as holding one.
    """
    hold = np.zeros(lo_q.size, dtype=bool)
    for k in table[2:5]:
        lo, hi = _band(k)
        hold |= ~(lo_q >= lo) & ~(hi_q <= hi)
    return hold


def _knot_cut_np(Wa, Fa, Wb, Fb, h, table):
    """:func:`_knot_fraction` of each row [Re w, Im w] of a batch of steps.

    The Hermite interpolant of |w|^2 over a step lies in the convex hull
    of its Bernstein control points qa, qa + da/3, qb - db/3 and qb, so
    only rows whose hull holds a knot band (_holds_band_np) go to the
    scalar rule; the rest cross no knot and get 1.0.
    """
    xa, ya, xb, yb = Wa[:, 0], Wa[:, 1], Wb[:, 0], Wb[:, 1]
    qa = xa * xa + ya * ya
    qb = xb * xb + yb * yb
    da = 2.0 * h * (xa * Fa[:, 0] + ya * Fa[:, 1])
    db = 2.0 * h * (xb * Fb[:, 0] + yb * Fb[:, 1])
    ca, cb = qa + da / 3.0, qb - db / 3.0
    lo = np.minimum(np.minimum(qa, ca), np.minimum(cb, qb))
    hi = np.maximum(np.maximum(qa, ca), np.maximum(cb, qb))
    # The scalar rule tests the interpolant at its turning points as
    # rounded, which may stray from the hull by a few ulps of its largest
    # term; all terms are within a small multiple of the largest control
    # point.  A wider hull only sends more rows to the scalar rule, which
    # returns 1.0 for them, so the pad may be generous but never short.
    pad = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    rows = np.nonzero(_holds_band_np(lo - pad, hi + pad, table))[0]
    frac = np.ones(qa.size)
    if rows.size:
        steps = np.column_stack([Wa[rows], Fa[rows], Wb[rows], Fb[rows], h[rows]])
        frac[rows] = [_knot_fraction(*row, table) for row in steps.tolist()]
    return frac


def pair_re_np(x, re_w, r):
    """Vectorized twin of :func:`_pair_re`: (x_hi, x_lo) arrays."""
    u = np.sqrt(0.5 * np.maximum(r + re_w, 0.0))
    return x + u, x - u


@np.errstate(over="ignore")  # epsilon / 5e-324 of a V-entry margin at x = 0
def _event_ratio_np(Y, radius, epsilon, kind):
    """Vectorized twin of :func:`_event_ratio`."""
    r = np.hypot(Y[:, 2], Y[:, 3])
    x1, x2 = pair_re_np(Y[:, 0], Y[:, 2], r)
    return _gap_ratio(x1, x2, r, radius, epsilon, kind, np.minimum, np.maximum)


def _event_np(Y, radius, epsilon, kind):
    """Vectorized twin of :func:`_event_val`; returns (hit, sign) arrays."""
    n = Y.shape[0]
    if kind == EVENT_NONE:
        hit = np.zeros(n, dtype=bool)
    else:
        hit = _inside(_event_ratio_np(Y, radius, epsilon, kind), kind)
    sign = np.zeros(n, dtype=np.int64)
    if kind == EVENT_V_ENTRY:
        sign[hit] = np.where(Y[hit, 0] > 0.0, 1, -1)
    return hit, sign


def _lockstep(Y, t, rhs, rtol, max_steps, status, stop, h_max, table, t_end, fdir,
              accept, start):
    """Advance the active rows of Y and t in place, one attempt per active
    row in each iteration, until no row is active.

    rhs(Z, k, t, h) is that of :func:`_stages_np`.  start = (active, h,
    K1, steps) gives the active rows, their next step sizes, derivatives
    and the attempts they have made; a row leaves once it has made
    max_steps attempts.  Each iteration stop(active) first clears the rows
    that end there, setting their status; steps of sign fdir are clipped
    to t_end - t and capped at h_max.  With a smoothing table in cutoff
    mode (table None: no knots) the two columns of Y are w, and a finite
    attempt that carries |w| across one of its knots is retaken, cut to
    the crossing by :func:`_knot_cut_np` as in :func:`_advance`, and the
    step after a cut one that lands on a knot (:func:`_on_knot`, row by
    row) resumes at no less than the step it cut; pure mode runs no knot
    code.  The accepted
    steps of rows ai, with end states Ya, derivatives Ka and sizes h_use,
    go to accept(ai, Ya, Ka, h_use) before they are taken: it returns the
    masks of those taken and of those whose rows stay active.  Returns
    (h, K1, steps).
    """
    cutoff = table is not None and table[0] != MODE_PURE
    active, h, K1, steps = start
    h_land = np.zeros(Y.shape[0])
    while True:
        active &= steps < max_steps
        stop(active)
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        steps[idx] += 1
        ti = t[idx]
        h_use = np.minimum(h[idx], t_end - ti)
        hs = fdir * h_use
        Yn, err = _attempt_np(Y[idx], K1[idx], hs, rhs, rtol, ti)
        h[idx] = _next_h_np(err, h_use, h_max)
        ok = err <= 1.0
        judged = np.ones(idx.size, dtype=bool)
        if cutoff:
            # accepted attempts, and rejected ones whose ends straddle a knot
            qa, qb = _sum_sq(Y[idx]), _sum_sq(Yn)
            test = np.isfinite(Yn).all(axis=1) & (
                ok | _holds_band_np(np.minimum(qa, qb), np.maximum(qa, qb), table))
            test = np.nonzero(test)[0]
            Kn = np.empty_like(Yn)
            Kn[test] = rhs(Yn[test], 12, ti[test], hs[test])
            ci = idx[test]
            frac = _knot_cut_np(Y[ci], K1[ci], Yn[test], Kn[test], hs[test], table)
            cut = frac < 1.0
            c, ci = test[cut], ci[cut]
            h[ci] = h_use[c] * frac[cut]
            h_land[ci] = np.maximum(h_land[ci], h_use[c])
            judged[c] = False
        acc = np.nonzero(judged & ok)[0]
        if acc.size:
            ai = idx[acc]
            Ya = Yn[acc]
            land = np.nonzero(h_land[ai])[0]
            if land.size:
                li = ai[land]
                on = li[np.array([_on_knot(x, y, table)
                                  for x, y in Ya[land].tolist()], dtype=bool)]
                h[on] = np.maximum(h[on], h_land[on])
                h_land[li] = 0.0
            Ka = Kn[acc] if cutoff else rhs(Ya, 12, ti[acc], hs[acc])
            take, stay = accept(ai, Ya, Ka, h_use[acc])
            active[ai[~stay]] = False
            acc, ai, Ya, Ka = acc[take], ai[take], Ya[take], Ka[take]
            Y[ai] = Ya
            t[ai] += h_use[acc]
            K1[ai] = Ka
        dead = idx[judged & ~(err < np.inf) & (h[idx] < 1e-14)]
        status[dead] = STATUS_NONFINITE
        active[dead] = False
    return h, K1, steps


@np.errstate(over="ignore", invalid="ignore")
def _drive_batch_np(
    Y, t_end, alpha, table, rtol, radius, event_kind, max_steps,
    out_status, out_t, out_sign, fdir,
):
    """Lockstep vectorized twin of :func:`_drive_batch`.

    Two lockstep passes follow the rule of :func:`_drive`: a row that
    starts inside the event region ends STATUS_EVENT at t = 0 and is never
    active; every other row starts in the w-frame, and the rows that
    switch continue in a second pass in the u-frame, so each pass has one
    right-hand side.  A row whose accepted step ends inside the event
    region stops there with STATUS_EVENT: a Delta row (EVENT_DELTA) takes
    the step and is read at its end, as in :func:`_drive`; any other row
    keeps its pre-step state, pair, derivative and time.  After each pass
    the dense output of its
    event steps is built in one batch (:func:`_dense_np`) and their events
    are located on it together, with the per-row arithmetic of
    :func:`_dense_event` and :func:`_event_probe`: per-row brackets, gaps
    and hits from one :func:`_event_ratio_np` per read, sides and counts
    of slow iterations, at most EVENT_ITERATIONS iterations, each row
    stopping once hi - lo < EVENT_TOL max(hi, 1).  A stopped row keeps its
    bracket.
    """
    arr = np.asarray(table)
    n = Y.shape[0]
    Z0 = Y[:, :2].copy()
    V = Y[:, 2:].copy()  # the pair of the w-frame pass
    U, KU = np.zeros((n, 2)), np.zeros((n, 2))  # the pair of the u-frame pass
    K1 = _rhs_w_np(V, alpha, arr)
    F = np.column_stack([(alpha - 1.0) * Z0[:, 0], -alpha * Z0[:, 1], K1])
    switched = np.zeros(n, dtype=bool)
    h_event, V_event, K_event = np.zeros(n), np.empty((n, 2)), np.empty((n, 2))
    end_gate = 1e-14 * max(1.0, abs(t_end))
    eps = _event_eps(table, event_kind)
    read_at_end = event_kind == EVENT_DELTA  # a Delta row is read where it is found

    def event(Z):
        return _event_np(Z, radius, eps, event_kind)[0]

    def ratio(Z):
        return _event_ratio_np(Z, radius, eps, event_kind)

    def gap(v):  # math.log over the rows, as the scalar twin takes it
        return np.array([_log_gap(g) for g in v.tolist()])

    def to_zw(P, rows, tau, uframe):
        ea, eb = _factors(alpha, tau)
        return np.column_stack(_to_zw(P[:, 0], P[:, 1], Z0[rows, 0], Z0[rows, 1],
                                      ea, eb, uframe)), ea, eb

    def stop(active):
        stalled = active & (np.sqrt(_sum_sq(F)) < STALL_SPEED)
        out_status[stalled] = STATUS_STALLED
        active &= ~stalled
        done = active & (t_end - out_t <= end_gate)
        out_status[done] = STATUS_TIME_END
        active &= ~done

    def accepter(uframe):
        def accept(ai, Pa, Ka, h_use):
            Yn, ea, eb = to_zw(Pa, ai, fdir * out_t[ai] + fdir * h_use, uframe)
            bad = ~np.isfinite(Yn).all(axis=1)
            out_status[ai[bad]] = STATUS_NONFINITE
            hit = ~bad & event(Yn)
            ev = ai[hit]
            out_status[ev] = STATUS_EVENT
            h_event[ev], V_event[ev], K_event[ev] = h_use[hit], Pa[hit], Ka[hit]
            take = ~bad if read_at_end else ~bad & ~hit
            ti = ai[take]
            Y[ti] = Yn[take]
            F[ti, 0] = (alpha - 1.0) * Y[ti, 0]
            F[ti, 1] = -alpha * Y[ti, 1]
            if uframe:
                F[ti, 2], F[ti, 3] = _w_dot(Pa[take, 0], Pa[take, 1], Ka[take, 0],
                                            Ka[take, 1], ea[take], eb[take], alpha)
                return take, take & ~hit
            F[ti, 2:] = Ka[take]
            grow = fdir * (Yn[:, 2] * Ka[:, 0] + Yn[:, 3] * Ka[:, 1]) > 0.0
            sw = take & ~hit & (np.hypot(Yn[:, 2], Yn[:, 3]) >= arr[1]) & grow
            if sw.any():
                s = np.empty(np.count_nonzero(sw), dtype=complex)
                s.real, s.imag = Yn[sw, 2], Yn[sw, 3]
                s = np.sqrt(s)
                si = ai[sw]
                U[si, 0], U[si, 1] = s.real / ea[sw], s.imag / eb[sw]
                KU[si] = _rhs_u_np(U[si], ea[sw], eb[sw], alpha, arr)
                switched[si] = True
            return take, take & ~hit & ~sw
        return accept

    def refine(ev, P, K, rhs, uframe):
        t, h = out_t[ev], h_event[ev]
        C = _dense_np(P, K, V_event[ev], K_event[ev], fdir * h, rhs, t)
        Yn = to_zw(V_event[ev], ev, fdir * t + fdir * h, uframe)[0]
        lo, hi = np.zeros(ev.size), h.copy()
        g_lo, g_hi = gap(ratio(Y[ev])), gap(ratio(Yn))  # Y holds the pre-step states
        side = np.zeros(ev.size, dtype=np.int64)
        slow = np.zeros(ev.size, dtype=np.int64)
        for _ in range(EVENT_ITERATIONS):
            width = hi - lo
            tol = EVENT_TOL * np.maximum(hi, 1.0)
            i = np.nonzero(width >= tol)[0]
            if not i.size:
                break
            x = _event_probe(lo[i], hi[i], g_lo[i], g_hi[i], slow[i], tol[i], np.where)
            Z = to_zw(_contd8(P[i], (x / h[i])[:, None], C[:, i]), ev[i],
                      fdir * (t[i] + x), uframe)[0]
            v = ratio(Z)
            mhit, g = _inside(v, event_kind), gap(v)
            up, down = i[mhit], i[~mhit]
            g_lo[up[side[up] > 0]] *= 0.5
            g_hi[down[side[down] < 0]] *= 0.5
            hi[up], g_hi[up], side[up] = x[mhit], g[mhit], 1
            lo[down], g_lo[down], side[down] = x[~mhit], g[~mhit], -1
            slow[i] = np.where(hi[i] - lo[i] > 0.5 * width[i], slow[i] + 1, 0)
        m = np.nonzero(hi < h)[0]
        Pm = _contd8(P[m], (hi[m] / h[m])[:, None], C[:, m])
        Yn[m] = to_zw(Pm, ev[m], fdir * (t[m] + hi[m]), uframe)[0]
        Y[ev] = Yn
        out_t[ev] += hi

    def w_rhs(Z, k, t, h):
        return _rhs_w_np(Z, alpha, arr)

    def u_rhs(Z, k, t, h):
        return _rhs_u_np(Z, *_factors(alpha, fdir * t + FRAME_NODES[k] * h), alpha, arr)

    out_t[:] = 0.0
    out_status[:] = STATUS_RUNNING
    out_sign[:] = 0
    inside = event(Y)
    for uframe in (False, True):
        if uframe:
            P, rhs, active = U, u_rhs, switched.copy()
            start = (active, h, KU, steps)
        else:
            P, rhs, active = V, w_rhs, ~inside
            start = (active, np.full(n, H_FIRST), K1, np.zeros(n, dtype=np.int64))
        h, K, steps = _lockstep(P, out_t, rhs, rtol, max_steps, out_status, stop,
                                _h_max(event_kind, uframe), None if uframe else table,
                                t_end, fdir, accepter(uframe), start)
        # no row that switched had an event in the w-frame pass
        ev = np.nonzero((out_status == STATUS_EVENT) & (switched == uframe))[0]
        if ev.size and not read_at_end:
            refine(ev, P[ev], K[ev], rhs, uframe)
    out_status[inside] = STATUS_EVENT
    ev = out_status == STATUS_EVENT
    out_sign[ev] = _event_np(Y[ev], radius, eps, event_kind)[1]
    leftover = out_status == STATUS_RUNNING
    out_status[leftover & (out_t >= t_end - end_gate)] = STATUS_TIME_END
