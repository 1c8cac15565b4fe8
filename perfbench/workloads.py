"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload is a closed loop with one client: ``next_input`` draws the
inputs of the next op, ``op`` makes the op's calls into hyperq through a
``Layers`` object (the raw functions, or span-recording wrappers in a traced
run), and ``check`` decides from the inputs alone, with plain-float
arithmetic written here, whether the op's output is right.  ``check`` returns
None for a correct op and a short reason otherwise; reasons listed in a
workload's ``KNOWN`` are documented defects of the program that the data
keeps on purpose (see DESIGN.md).  Each is returned only when the op shows
the defect's exact signature, so any other wrong answer on the same input
is an unexpected failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hyperq import (
    EPS_ALG,
    EPS_CLS,
    EPS_MEM,
    Mat2,
    NonTransitivityWitness,
    PreconditionError,
    SplitComplex,
    Vec2,
    change_basis,
    classify,
    decompose,
    doubly_stochastic_residual,
    extract_model,
    hyp_law,
    orthonormality_residual,
    prob_matrix,
    search_non_transitivity,
    transform_probabilities,
    trig_law,
    verify_witness,
)
from hyperq.cli import main as cli_main

import calibration

#: Phase range of the witness search; born-transform pairs use the same one.
PHASE = 3.0
EPS = sys.float_info.epsilon


# -- plain-float reference arithmetic ------------------------------------------
# Written in the same operation order as hyperq, so today's results are
# bit-identical; the checks still allow a few ulps so that a reordering
# elsewhere does not count as a wrong answer.


def amp(sign, q, xi):
    """``sign * sqrt(q) * expj(xi)`` as ``[x, y]``."""
    r = sign * math.sqrt(q)
    return [r * math.cosh(xi), r * math.sinh(xi)]


def mul(a, b):
    return [a[0] * b[0] + a[1] * b[1], a[0] * b[1] + b[0] * a[1]]


def nsq(a):
    return (a[0] - a[1]) * (a[0] + a[1])


def basis_change(beta, m):
    """Row vector ``beta`` times the 2x2 matrix ``m``."""
    out = []
    for k in (0, 1):
        u, v = mul(beta[0], m[0][k]), mul(beta[1], m[1][k])
        out.append([u[0] + v[0], u[1] + v[1]])
    return out


def family(p, g1, g2, d):
    """The decomposable unitary of ``make_decomposable_unitary``."""
    return [
        [amp(1, p, g1), amp(1, 1.0 - p, g2)],
        [amp(1, 1.0 - p, g1 - d), amp(-1, p, g2 - d)],
    ]


def draw(rng):
    """One draw of the witness search, in its documented order."""
    q1 = rng.uniform(0.0, 1.0)
    xi1 = rng.uniform(-PHASE, PHASE)
    xi2 = rng.uniform(-PHASE, PHASE)
    p = rng.uniform(0.0, 1.0)
    g1 = rng.uniform(-PHASE, PHASE)
    g2 = rng.uniform(-PHASE, PHASE)
    d = rng.uniform(-PHASE, PHASE)
    return q1, xi1, xi2, p, g1, g2, d


def replay_search(seed, max_iter):
    """The witness search redone in plain floats: (beta, B, alpha, index, ns)."""
    rng = random.Random(seed)
    for _ in range(max_iter):
        q1, xi1, xi2, p, g1, g2, d = draw(rng)
        if not (0.0 < q1 < 1.0 and 0.0 < p < 1.0):
            continue
        beta = [amp(1, q1, xi1), amp(1, 1.0 - q1, xi2)]
        m = family(p, g1, g2, d)
        alpha = basis_change(beta, m)
        for k in (0, 1):
            ns = nsq(alpha[k])
            if ns < -EPS_MEM:
                return beta, m, alpha, k + 1, ns
    return None


def magnitude(*vectors):
    """1 plus the largest squared component: the scale of norm_sq rounding."""
    return 1.0 + max(c * c for v in vectors for z in v for c in z)


def dist(a, b):
    return max(abs(x - y) for za, zb in zip(a, b) for x, y in zip(za, zb))


def law_value(p1, p2, theta, law, sign):
    if law == "trig":
        return p1 + p2 + 2.0 * math.sqrt(p1 * p2) * math.cos(theta)
    return p1 + p2 + sign * 2.0 * math.sqrt(p1 * p2) * math.cosh(theta)


def residual_ok(pprime, p1, p2, regime, theta, sign, theta_scale):
    """Forward check of a classify verdict against the value it explains.

    The bound scales with ``p1 + p2 + 2*sqrt(p1*p2)*cosh(theta)``, the size of
    the terms the value was summed from, so it holds where the recovered
    phase itself is ill-conditioned (near theta = 0).
    """
    if not (math.isfinite(theta) and theta >= 0.0 and sign in (1, -1)):
        return False
    root = math.sqrt(p1) * math.sqrt(p2)
    if regime == "trig":
        rebuilt = p1 + p2 + 2.0 * root * math.cos(theta)
    elif regime == "hyp":
        rebuilt = p1 + p2 + sign * 2.0 * root * math.cosh(theta)
    elif regime == "boundary":
        rebuilt = p1 + p2 + sign * 2.0 * root
    else:
        return False
    scale = p1 + p2 + 2.0 * root * math.cosh(theta_scale)
    bound = 32 * EPS * scale + 16 * math.ulp(0.0)
    if regime == "boundary":
        bound += 2.0 * EPS_CLS * root
    return abs(rebuilt - pprime) <= bound


# -- calls into hyperq ----------------------------------------------------------


def verify_matrix(basis):
    """The ``verify`` subcommand's three flags for a matrix."""
    residual = orthonormality_residual(basis)
    stochastic = doubly_stochastic_residual(prob_matrix(basis))
    in_cone = all(e.in_positive_cone(EPS_MEM) for e in basis.entries())
    return residual <= EPS_ALG, in_cone, stochastic <= EPS_ALG


def run_main(argv):
    """In-process ``hyperq`` with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


#: attribute -> (span name, public function) for every call an op makes.
CALLS = {
    "vec_from_list": ("space.from_list", Vec2.from_list),
    "mat_from_list": ("space.from_list", Mat2.from_list),
    "verify": ("space.verify", verify_matrix),
    "change_basis": ("space.change_basis", change_basis),
    "norm_sq": ("algebra.norm_sq", SplitComplex.norm_sq),
    "decompose": ("born.decompose", decompose),
    "extract_model": ("born.extract_model", extract_model),
    "transform_probabilities": ("born.transform_probabilities", transform_probabilities),
    "trig_law": ("interference.trig_law", trig_law),
    "hyp_law": ("interference.hyp_law", hyp_law),
    "classify": ("interference.classify", classify),
    "search": ("witness.search", search_non_transitivity),
    "verify_witness": ("witness.verify", verify_witness),
}


class Layers:
    """The functions an op calls: raw, or wrapped by a tracer into spans."""

    def __init__(self, tracer=None):
        for attr, (name, fn) in CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(name, fn))
        self.call = (lambda name, fn, *a: fn(*a)) if tracer is None else tracer.call


# -- workloads -------------------------------------------------------------------


class Workload:
    """Shared state: the input stream, the counters and the known defects."""

    name = ""
    batch = 128  # ops per throughput sample
    cal_ops = 32  # ops between two calibrations (a divisor of batch)
    CAL_NOMINAL = calibration.NOMINAL_US  # us a calibration takes at the reference speed
    warmup = 0  # ops run untimed during set-up
    KNOWN: frozenset = frozenset()

    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        self.root = root
        self.counters = Counter()
        self.index = 0

    def setup(self):
        """Generate what set-up needs and run the warm-up ops unchecked."""
        rng, self.rng = self.rng, random.Random(f"warm-up {self.rng.random()}")
        raw = Layers()
        for _ in range(self.warmup):
            try:
                self.op(raw, self.next_input())
            except Exception:  # a crash here is counted when it recurs timed
                pass
        self.rng, self.index = rng, 0

    def calibrate(self):
        """The machine's current speed, in us of the calibration loop."""
        return calibration.loop_us()

    def next_input(self):
        inp = self.make_input(self.index)
        self.index += 1
        return inp

    def after_traced_op(self, layers, inp):
        """Extra spans a traced run records after an op, outside its time."""

    def close(self):
        """Remove whatever set-up wrote."""


class WitnessSearch(Workload):
    name = "witness-search"
    warmup = 64

    def make_input(self, i):
        # every fourth search may draw only once, so the exhausted path is timed
        return self.rng.getrandbits(32), 1 if i % 4 == 3 else 10_000

    def op(self, L, inp):
        w = L.search(*inp)
        return w, w is not None and L.verify_witness(w)

    def check(self, inp, out):
        if isinstance(out, Exception):
            return f"crash {type(out).__name__}"
        w, verified = out
        ref = replay_search(*inp)
        c = self.counters
        c["witness.searches"] += 1
        c["witness.single_draws"] += inp[1] == 1
        if w is None:
            c["witness.exhausted"] += inp[1] == 1
            return None if ref is None else "missed witness"
        c["witness.found"] += 1
        if ref is None:
            return "witness where the replay finds none"
        if not verified or w.violating_index not in (1, 2):
            return "verify_witness rejected a hit"
        beta, m, alpha, index, ns = ref
        got_beta, got_m = w.beta.to_list(), w.basis.to_list()
        own = basis_change(got_beta, got_m)
        own_ns = nsq(own[w.violating_index - 1])
        tol = 1e-12 * magnitude(alpha)
        ok = (
            w.violating_index == index
            and own_ns < -EPS_MEM
            and abs(own_ns - w.norm_sq) <= tol
            and abs(ns - w.norm_sq) <= tol
            and max(dist(got_beta, beta), dist(got_m[0], m[0]), dist(got_m[1], m[1])) <= tol
            and dist(w.alpha.to_list(), own) <= tol
        )
        return None if ok else "witness differs from the replay"


def born_pair(rng, kind):
    """One (state, matrix, kind) as nested lists.

    valid        a decomposable state and a ``make_decomposable_unitary`` matrix
                 drawn exactly as the witness search draws them;
    nonunitary   the same with row 2 scaled off the unit hyperbola;
    unnormalised the same with the state scaled;
    jdominant    a unitary matrix whose column-1 entries lie outside the
                 positive cone (norm_sq = -t), built with phases in [-1, 1].
    """
    q1, xi1, xi2, p, g1, g2, d = draw(rng)
    beta = [amp(1, q1, xi1), amp(1, 1.0 - q1, xi2)]
    if kind == "jdominant":
        t = rng.uniform(0.05, 0.5)
        g1, g2, d = g1 / PHASE, g2 / PHASE, d / PHASE
        r = math.sqrt(t)
        a = [r * math.sinh(g1), r * math.cosh(g1)]
        b = amp(1, 1.0 + t, g2)
        u = [math.cosh(d), math.sinh(d)]
        row2_1 = mul([b[0], -b[1]], u)
        row2_2 = mul([a[0], -a[1]], u)
        return beta, [[a, b], [row2_1, [-row2_2[0], -row2_2[1]]]], kind
    m = family(p, g1, g2, d)
    if kind == "nonunitary":
        f = 1.0 + rng.uniform(0.05, 0.5)
        m[1] = [[f * z[0], f * z[1]] for z in m[1]]
    elif kind == "unnormalised":
        f = rng.uniform(1.05, 1.5)
        beta = [[f * z[0], f * z[1]] for z in beta]
    return beta, m, kind


#: verify flags (unitary, in cone, doubly stochastic) each kind must get
BORN_FLAGS = {
    "valid": (True, True, True),
    "nonunitary": (False, True, False),
    "unnormalised": (True, True, True),
    "jdominant": (True, False, True),
}


def born_kind(i):
    # 85% valid, 5% of each invalid kind
    return {0: "nonunitary", 7: "unnormalised", 14: "jdominant"}.get(i % 20, "valid")


class BornTransform(Workload):
    name = "born-transform"
    warmup = 200
    KNOWN = frozenset({"valid state rejected as not normalized"})

    def make_input(self, i):
        return born_pair(self.rng, born_kind(i))

    def op(self, L, inp):
        state, matrix, _ = inp
        beta = L.vec_from_list(state)
        basis = L.mat_from_list(matrix)
        flags = L.verify(basis)
        try:
            alpha = L.change_basis(beta, basis)
            dec = L.decompose(alpha)
            linalg = alpha, dec, L.norm_sq(alpha.c1), L.norm_sq(alpha.c2)
        except PreconditionError as exc:
            linalg = exc
        try:
            closed = L.transform_probabilities(L.extract_model(beta, basis))
        except PreconditionError as exc:
            closed = exc
        return flags, linalg, closed

    def check(self, inp, out):
        state, matrix, kind = inp
        c = self.counters
        if isinstance(out, Exception):
            return f"crash {type(out).__name__}"
        flags, linalg, closed = out
        c["born.valid" if kind == "valid" else "born.invalid"] += 1
        for result in (linalg, closed):
            if kind != "valid" and isinstance(result, PreconditionError):
                c[f"born.rejected.{type(result).__name__}"] += 1
        if flags != BORN_FLAGS[kind]:
            return "verify flags do not match the input"
        if kind == "nonunitary":
            ok = type(linalg).__name__ == "NotUnitaryError" and isinstance(closed, PreconditionError)
            return None if ok else "non-unitary matrix accepted"
        if kind == "unnormalised":
            ok = type(linalg).__name__ == "NotNormalizedError" and isinstance(closed, PreconditionError)
            return None if ok else "unnormalised state accepted"
        if kind == "jdominant":
            if type(closed).__name__ != "DegenerateNormError":
                return "j-dominant entries accepted by extract_model"
            closed = None
        if isinstance(closed, PreconditionError):
            c["born.spurious_rejects"] += 1
            return f"valid input rejected with {type(closed).__name__}"
        ref = basis_change(state, matrix)
        ns = (nsq(ref[0]), nsq(ref[1]))
        if isinstance(linalg, PreconditionError):
            c["born.spurious_rejects"] += 1
            # the known defect: the absolute tolerance of decompose, which the
            # plain-float coordinates miss too
            if type(linalg).__name__ == "NotNormalizedError" and abs(ns[0] + ns[1] - 1.0) > EPS_ALG:
                return "valid state rejected as not normalized"
            return f"valid input rejected with {type(linalg).__name__}"
        alpha, dec, ns1, ns2 = linalg
        scale = magnitude(ref)
        c["born.decompositions"] += 1
        c["born.decomposable"] += dec.decomposable
        if dist(alpha.to_list(), ref) > 1e-12 * scale:
            return "change_basis differs from the reference"
        if max(abs(ns1 - ns[0]), abs(ns2 - ns[1])) > 1e-12 * scale:
            return "norm_sq differs from the reference"
        if abs(min(ns) + EPS_ALG) > 1e-12 * scale and dec.decomposable != (min(ns) >= -EPS_ALG):
            return "decomposable flag differs from the reference"
        if dec.decomposable and max(abs(a - b) for a, b in zip(dec.probabilities, ns)) > 1e-12 * scale:
            return "probabilities differ from the reference"
        if closed is None:
            return None
        # the paper's identity: both routes give the same probabilities
        gap = max(abs(closed.p1 - ns[0]), abs(closed.p2 - ns[1]))
        if gap > 1e-9 * scale:
            return "closed form and linear algebra disagree"
        near = min(abs(p + EPS_ALG) for p in ns) <= 1e-9 * scale or min(
            abs(p - 1.0 - EPS_ALG) for p in ns
        ) <= 1e-9 * scale
        if not near and closed.in_range != dec.decomposable:
            return "in_range differs from decomposable"
        return None


def sweep_input(rng, i, points):
    """(p1, p2, law, sign, thetas, kind) for one interference sweep.

    80% generic pairs in (0, 1] on trig or hyp; 16% the hyp minus branch at
    p1 ~ p2 and small theta, where the law cancels; 2% subnormal and 2%
    near-overflow probabilities, where the program has known defects.
    """
    slot = i % 50
    law = "trig" if i % 2 else "hyp"
    sign = rng.choice((1, -1))
    p1, p2 = 1.0 - rng.random(), 1.0 - rng.random()
    top = math.pi if law == "trig" else rng.uniform(0.5, 6.0)
    kind = "generic"
    if slot == 48:
        kind = "subnormal"
        p1, p2 = rng.uniform(5e-324, 2e-308), rng.uniform(5e-324, 2e-308)
    elif slot == 49:
        kind = "overflow"
        p1, p2 = rng.uniform(1e308, 1.7e308), rng.uniform(1e308, 1.7e308)
    elif slot >= 40:
        kind = "cancellation"
        law, sign = "hyp", -1
        p2 = p1 * (1.0 + (rng.random() - 0.5) * 1e-12)
        top = 10.0 ** rng.uniform(-7.0, -2.0)
    thetas = [top * k / (points - 1) for k in range(points)]
    return p1, p2, law, sign, thetas, kind


def sweep_check(p1, p2, law, sign, thetas, kind, values, verdicts, counters):
    """Check one sweep; the first failure's reason, or None."""
    reason = None
    for theta, value, verdict in zip(thetas, values, verdicts):
        counters["interference.points"] += 1
        if isinstance(value, float) and not math.isfinite(value):
            fail = "law overflows to inf" if kind == "overflow" else "non-finite law value"
            reason = reason or fail
            continue
        if any(isinstance(r, PreconditionError) for r in (value, verdict)):
            # on near-overflow inputs a refusal is the documented answer
            if kind != "overflow":
                counters["interference.rejected"] += 1
                reason = reason or "valid input rejected"
            continue
        if isinstance(verdict, Exception):
            counters["interference.crashes"] += 1
            if kind == "subnormal" and isinstance(verdict, ZeroDivisionError):
                reason = reason or "classify crashes on subnormal input"
            else:
                reason = reason or f"classify raised {type(verdict).__name__}"
            continue
        counters[f"interference.regime.{verdict.regime}"] += 1
        t = theta if law == "hyp" else 0.0
        if not residual_ok(value, p1, p2, verdict.regime, verdict.theta, verdict.sign, t):
            reason = reason or "verdict does not reproduce the value"
    return reason


class InterferenceSweep(Workload):
    name = "interference-sweep"
    warmup = 50
    POINTS = 32
    KNOWN = frozenset({"law overflows to inf", "classify crashes on subnormal input"})

    def make_input(self, i):
        return sweep_input(self.rng, i, self.POINTS)

    def op(self, L, inp):
        p1, p2, law, sign, thetas, _ = inp
        values, verdicts = [], []
        for theta in thetas:
            try:
                if law == "trig":
                    value = L.trig_law(p1, p2, theta)
                else:
                    value = L.hyp_law(p1, p2, theta, sign)
            except PreconditionError as exc:
                values.append(exc)
                verdicts.append(None)
                continue
            try:
                verdict = L.classify(value, p1, p2)
            except Exception as exc:  # checked: only PreconditionError is documented
                verdict = exc
            values.append(value)
            verdicts.append(verdict)
        return values, verdicts

    def check(self, inp, out):
        if isinstance(out, Exception):
            return f"crash {type(out).__name__}"
        return sweep_check(*inp, *out, self.counters)


# -- command line ------------------------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(root, env, args):
    proc = subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_floats(text):
    """The numbers of a JSON document, or None when one is not finite."""
    bad = []
    data = json.loads(text, parse_constant=bad.append)
    return None if bad else data


CHILD_LOOP = """
s = []
for i in range(20000):
    s.append(f"{i * 0.1!r},{i * 1e-3!r}")
"""


class Cli(Workload):
    """``python -m hyperq`` child processes, one at a time.

    A cycle runs classify, verify, transform, witness and a 50-step interfere
    (start-up bound), then one LARGE-step interfere (CSV emission bound).
    Every eighth cycle uses the extreme inputs of the interference sweep.
    """

    name = "cli"
    batch = 6
    cal_ops = 1
    CAL_NOMINAL = 100_000.0
    warmup = 1
    LARGE = 20_000
    POOL = 16
    KNOWN = InterferenceSweep.KNOWN | BornTransform.KNOWN

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = child_env(root)
        self.dir = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.cycle = []

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for i in range(self.POOL):
            # i * 7 mod 20 takes the values 0, 7 and 14, so every kind occurs
            state, matrix, kind = born_pair(self.rng, born_kind(i * 7))
            files = []
            for name, data in ((f"state{i}.json", state), (f"matrix{i}.json", matrix)):
                (self.dir / name).write_text(json.dumps(data))
                files.append(str(self.dir / name))
            self.pool.append((state, matrix, kind, *files))
        super().setup()
        self.cycle = []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def calibrate(self):
        """Wall time in us of a child that starts and runs a fixed loop.

        Children run on whichever CPU the kernel picks, so a loop in this
        process does not track their speed; another child does.  Its loop
        stands for the pure-Python share of an op (CSV emission).
        """
        start = time.perf_counter_ns()
        run_child(self.root, self.env, ["-c", CHILD_LOOP])
        return (time.perf_counter_ns() - start) / 1e3

    def make_input(self, i):
        if not self.cycle:
            self.cycle = self.make_cycle(i // self.batch)
        return self.cycle.pop(0)

    def make_cycle(self, c):
        rng = self.rng
        extreme = c % 8 == 7
        ops = []
        p1, p2 = 1.0 - rng.random(), 1.0 - rng.random()
        law, sign, theta = rng.choice(("trig", "hyp")), rng.choice((1, -1)), rng.uniform(0.0, 3.0)
        if extreme:
            p1, p2 = rng.uniform(5e-324, 2e-308), rng.uniform(5e-324, 2e-308)
        pprime = law_value(p1, p2, theta, law, sign)
        ops.append(("classify", ["--p1", repr(p1), "--p2", repr(p2), "--pprime", repr(pprime)],
                    (pprime, p1, p2, "subnormal" if extreme else "generic", theta if law == "hyp" else 0.0)))
        state, matrix, kind, state_file, matrix_file = self.pool[c % self.POOL]
        ops.append(("verify", ["--matrix", matrix_file], (matrix, kind)))
        ops.append(("transform", ["--state", state_file, "--matrix", matrix_file], (state, matrix, kind)))
        seed, max_iter = rng.getrandbits(32), 1 if c % 4 == 3 else 10_000
        ops.append(("witness", ["--seed", str(seed), "--max-iter", str(max_iter)], (seed, max_iter)))
        for slot, steps in ((c % 40, 50), ((c + 1) % 40, self.LARGE)):
            # slots below 40 are the generic pairs, alternating trig and hyp
            p1, p2, law, sign, thetas, kind = sweep_input(rng, slot, steps)
            if extreme and steps == 50:
                p1, p2, kind = 1e308, 1e308, "overflow"
            argv = ["--law", law, "--p1", repr(p1), "--p2", repr(p2), "--theta-min", "0.0",
                    "--theta-max", repr(thetas[-1]), "--steps", str(steps),
                    "--sign", "+" if sign > 0 else "-"]
            ops.append(("interfere", argv, (p1, p2, law, sign, thetas, kind)))
        return [(sub, [sub, *argv], expect) for sub, argv, expect in ops]

    def op(self, L, inp):
        sub, argv, _ = inp
        return L.call(f"cli.process.{sub}", run_child, self.root, self.env, ["-m", "hyperq", *argv])

    def after_traced_op(self, L, inp):
        sub, argv, _ = inp
        try:
            L.call(f"cli.main.{sub}", run_main, argv)
        except Exception:  # the child's result is what the op is judged on
            pass

    def check(self, inp, out):
        if isinstance(out, Exception):
            return f"crash {type(out).__name__}"
        sub, argv, expect = inp
        code, stdout, stderr = out
        self.counters["cli.stdout_bytes"] += len(stdout.encode())
        self.counters["cli.ops"] += 1
        return getattr(self, f"check_{sub}")(code, stdout, stderr, *expect)

    def wrong_exit(self, reason):
        self.counters["cli.exit_mismatch"] += 1
        return reason

    def check_classify(self, code, stdout, stderr, pprime, p1, p2, kind, theta):
        if code != 0:
            crash = kind == "subnormal" and "ZeroDivisionError" in stderr
            known = "classify crashes on subnormal input"
            return self.wrong_exit(known if crash else f"exit {code} from classify")
        v = parse_floats(stdout)
        if v is None:
            return "non-finite number on stdout"
        if not residual_ok(pprime, p1, p2, v["regime"], v["theta"], v["sign"], theta):
            return "classify verdict does not reproduce pprime"
        return None

    def check_verify(self, code, stdout, _stderr, matrix, kind):
        flags = BORN_FLAGS[kind]
        if code != (0 if all(flags) else 3):
            return self.wrong_exit(f"exit {code} from verify")
        v = parse_floats(stdout)
        if v is None:
            return "non-finite number on stdout"
        got = (v["unitary"], v["entries_in_g_plus"], v["doubly_stochastic"])
        return None if got == flags else "verify flags do not match the input"

    def check_transform(self, code, stdout, _stderr, state, matrix, kind):
        if kind in ("nonunitary", "unnormalised"):
            return None if code == 2 and stdout == "" else self.wrong_exit(f"exit {code} from transform")
        ref = basis_change(state, matrix)
        scale = magnitude(ref)
        ns = [nsq(z) for z in ref]
        if code == 2:
            if abs(ns[0] + ns[1] - 1.0) > EPS_ALG:
                return self.wrong_exit("valid state rejected as not normalized")
            return self.wrong_exit("exit 2 from transform on a valid input")
        v = parse_floats(stdout)
        if v is None:
            return "non-finite number on stdout"
        if code != (0 if v["decomposable"] else 3):
            return self.wrong_exit(f"exit {code} from transform")
        if dist(v["coefficients"], ref) > 1e-12 * scale:
            return "coefficients differ from the reference"
        if abs(min(ns) + EPS_ALG) > 1e-12 * scale and v["decomposable"] != (min(ns) >= -EPS_ALG):
            return "decomposable flag differs from the reference"
        probs = v["probabilities"]
        if v["decomposable"] and max(abs(a - b) for a, b in zip(probs, ns)) > 1e-12 * scale:
            return "probabilities differ from the reference"
        return None

    def check_witness(self, code, stdout, _stderr, seed, max_iter):
        ref = replay_search(seed, max_iter)
        if ref is None:
            ok = code == 4 and json.loads(stdout) == {"found": False}
            return None if ok else self.wrong_exit(f"exit {code} from an exhausted witness search")
        if code != 0:
            return self.wrong_exit(f"exit {code} from witness")
        v = parse_floats(stdout)
        if v is None:
            return "non-finite number on stdout"
        w = NonTransitivityWitness(
            Vec2.from_list(v["beta"]), Mat2.from_list(v["B"]), Vec2.from_list(v["alpha"]),
            v["violating_index"], v["norm_sq"],
        )
        beta, m, alpha, index, ns = ref
        tol = 1e-12 * magnitude(alpha)
        ok = (
            verify_witness(w)
            and index == v["violating_index"]
            and abs(ns - v["norm_sq"]) <= tol
            and max(dist(v["beta"], beta), dist(v["alpha"], alpha)) <= tol
        )
        return None if ok else "witness differs from the replay"

    def check_interfere(self, code, stdout, _stderr, p1, p2, law, sign, thetas, kind):
        if code == 2 and kind == "overflow" and stdout == "":
            return None  # the documented refusal of a sweep that overflows
        if code != 0:
            return self.wrong_exit(f"exit {code} from interfere")
        lines = stdout.splitlines()
        if lines[:1] != ["theta,p_prime"] or len(lines) != len(thetas) + 1:
            return "interfere printed the wrong rows"
        span = thetas[-1]
        for k, line in enumerate(lines[1:]):
            theta, value = map(float, line.split(","))
            if not (math.isfinite(theta) and math.isfinite(value)):
                return "law overflows to inf" if kind == "overflow" else "non-finite number on stdout"
            want_theta = span * k / (len(thetas) - 1)
            want = law_value(p1, p2, want_theta, law, sign)
            scale = p1 + p2 + 2.0 * math.sqrt(p1 * p2) * math.cosh(want_theta)
            if abs(theta - want_theta) > 4 * EPS * span or abs(value - want) > 1e-12 * scale:
                return "interfere row differs from the reference"
        return None


WORKLOADS = {w.name: w for w in (WitnessSearch, BornTransform, InterferenceSweep, Cli)}


def make(name, seed, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
