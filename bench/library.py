"""The two warm library workloads, ``words_warm`` and ``powers_deep``.

Both run in this process as a closed loop with one caller: each op is
one call into ``fdtc.fdtc`` on a word the seed generated, timed from the
word's construction to the returned result.  Set-up builds fresh
triangulations and computes one warm-up coefficient per surface, which
compiles every generator the ops use, so the timed ops never search.

Words are kept in the benchmark's own form, a list of letters
``(kind, name, power)`` applied right to left; the package only sees the
generator lists built from them.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

# words_warm: each pass makes one group per word length, striding through
# the lengths so that the groups a run reaches before its time is up cover
# short and long words evenly; the surface alternates between passes.
WORD_LENGTHS = range(1, 25)
LENGTH_STRIDE = 7  # coprime to len(WORD_LENGTHS)
WARM_SURFACES = ("S11", "S12")
MAX_SHIFT = 20

# powers_deep: each pass makes DEEP_EXACT_OPS fdtc_exact ops whose exponent
# sums are evenly spaced, and one translation_estimate sweep of exponent sum
# DEEP_SWEEP_SUM per N_max in DEEP_SWEEP_N_MAX and per boundary exponent
# n = 1, -1.  Fixing the sums keeps the replay work of a pass the same for
# every seed; the seed splits the sums into exponents of at most MAX_POWER.
# A sweep's cost depends mostly on N_max and n (with n = 0 the comparisons
# stay short), so these sweeps form one cluster of similar cost above the
# exact ops, and the 90th percentile falls inside that cluster.
DEEP_EXACT_OPS = 20
DEEP_SUM_MIN, DEEP_SUM_STEP = 20, 8
DEEP_SWEEP_SUM = 6
DEEP_SWEEP_N_MAX = (30, 32, 34, 32)
MAX_POWER = 60


def inverse(word):
    return [(kind, name, -p) for (kind, name, p) in reversed(word)]


def power(word, m):
    return inverse(word) * -m if m < 0 else list(word) * m


class Op:
    """One timed call: ``fdtc_exact`` of ``word`` at ``component``, or a
    ``translation_estimate`` sweep to ``n_max``.

    ``expect`` says how the result is checked: ("value", x) for a
    reference value, ("lin", key, a, b) for a*c(key) + b, ("defect",
    k1, k2) for |c - c(k1) - c(k2)| <= 1, ("any",) for the
    denominator bound alone, ("sweep", x) for every bracket containing
    x.  ``group`` maps the keys of the ops of its group checked so far to
    their values."""

    __slots__ = ("key", "surface", "component", "word", "expect", "n_max",
                 "group")

    def __init__(self, key, surface, component, word, expect, n_max=None,
                 group=None):
        self.key = key
        self.surface = surface
        self.component = component
        self.word = word
        self.expect = expect
        self.n_max = n_max
        self.group = {} if group is None else group


def random_word(rng, surf, length):
    letters = [("twist", name, s) for name in sorted(surf["curves"])
               for s in (1, -1)]
    letters += [("boundary", lab, s) for lab in surf["surface"]["boundary"]
                for s in (1, -1)]
    return [rng.choice(letters) for _ in range(length)]


def exact_families(refs, surface_key):
    return [f for f in refs["families"]
            if f["surface"] == surface_key and f["kind"] == "exact"]


def words_warm_groups(seed, refs):
    """The endless stream of words_warm groups.  Each group holds a
    random word w and the derived words the quasimorphism laws relate to
    it, plus one reference family value."""
    rng = random.Random(seed)
    n = len(WORD_LENGTHS)
    i = 0
    while True:
        sk = WARM_SURFACES[(i + i // n) % len(WARM_SURFACES)]
        length = WORD_LENGTHS[(LENGTH_STRIDE * i) % n]
        surf = refs["surfaces"][sk]
        C = rng.choice(surf["surface"]["boundary"])
        w = random_word(rng, surf, length)
        u = random_word(rng, surf, rng.randint(1, 6))
        shift = 1 + (7 * i) % MAX_SHIFT
        fam = rng.choice(exact_families(refs, sk))
        j = rng.randint(1, 4)
        i += 1
        g = {}
        yield [
            Op("w", sk, C, w, ("any",), group=g),
            Op("w2", sk, C, w + w, ("lin", "w", 2, 0), group=g),
            Op("winv", sk, C, inverse(w), ("lin", "w", -1, 0), group=g),
            Op("shift", sk, C, [("boundary", C, shift)] + w,
               ("lin", "w", 1, shift), group=g),
            Op("conj", sk, C, u + w + inverse(u), ("lin", "w", 1, 0), group=g),
            Op("u", sk, C, u, ("any",), group=g),
            Op("uw", sk, C, u + w, ("defect", "u", "w"), group=g),
            Op("ref", sk, fam["component"],
               power([tuple(x) for x in fam["word"]], j),
               ("value", j * Fraction(fam["value_per_power"])), group=g),
        ]


def _split(rng, total, parts):
    """total as a sum of `parts` integers in [1, MAX_POWER]."""
    exps = [1] * parts
    for _ in range(total - parts):
        i = rng.randrange(parts)
        while exps[i] >= MAX_POWER:
            i = (i + 1) % parts
        exps[i] += 1
    return exps


def normal_form(n, exps):
    """T_boundary^n T_a^p1 T_b^-q1 ... T_a^pk T_b^-qk on S_{1,1}."""
    word = [("boundary", "S", n)] if n else []
    for i in range(0, len(exps), 2):
        word += [("twist", "a", exps[i]), ("twist", "b", -exps[i + 1])]
    return word


def powers_deep_groups(seed, refs):
    """The endless stream of powers_deep ops, one per group, in passes of
    DEEP_EXACT_OPS exact ops and the sweeps, in seeded order."""
    rng = random.Random(seed)
    while True:
        ops = []
        for i in range(DEEP_EXACT_OPS):
            total = DEEP_SUM_MIN + DEEP_SUM_STEP * i
            k = max(1 + i % 4, -(-total // (2 * MAX_POWER)))
            n = rng.choice((-1, 0, 1))
            ops.append(Op("nf", "S11", "S", normal_form(n, _split(rng, total, 2 * k)),
                          ("value", Fraction(n))))
        for n_max in DEEP_SWEEP_N_MAX:
            for n in (1, -1):
                word = normal_form(n, _split(rng, DEEP_SWEEP_SUM, 2))
                ops.append(Op("sweep", "S11", "S", word, ("sweep", Fraction(n)),
                              n_max))
        rng.shuffle(ops)
        for op in ops:
            yield [op]


def warm_up_word(surf):
    """Every letter a workload uses on the surface, once."""
    word = [("boundary", lab, 1) for lab in surf["surface"]["boundary"]]
    return word + [("twist", name, 1) for name in sorted(surf["curves"])]


class Library:
    """The package entry points and one warm triangulation per surface."""

    def __init__(self, refs, surface_keys):
        from fdtc.surface import SurfaceSpec, standard_triangulation
        from fdtc.mcg import Generator, MappingClassWord
        from fdtc import fdtc as fdtc_mod

        self.Generator = Generator
        self.MappingClassWord = MappingClassWord
        self.fdtc = fdtc_mod
        self.refs = refs
        self.tris = {}
        self.D = {}
        for key in surface_keys:
            surf = refs["surfaces"][key]
            spec = SurfaceSpec.from_json(surf["surface"])
            self.tris[key] = standard_triangulation(spec)
            self.D[key] = surf["D"]

    def warm_up(self):
        for key in self.tris:
            surf = self.refs["surfaces"][key]
            lab = surf["surface"]["boundary"][0]
            self.exact(key, lab, warm_up_word(surf))

    def build(self, surface_key, word):
        curves = self.refs["surfaces"][surface_key]["curves"]
        G = self.Generator
        gens = []
        for kind, name, p in word:
            if kind == "twist":
                gens.append(G.twist(curves[name], p))
            else:
                gens.append(G.boundary(name, p))
        return self.MappingClassWord(self.tris[surface_key], gens)

    def exact(self, surface_key, C, word):
        return self.fdtc.fdtc_exact(self.build(surface_key, word), C).value

    def run_op(self, op):
        """The op's result: a Fraction (None for a bare interval), or the
        list of sweep intervals."""
        if op.n_max is not None:
            return self.fdtc.translation_estimate(
                self.build(op.surface, op.word), op.component, op.n_max)
        return self.exact(op.surface, op.component, op.word)


def check(op, result, D):
    """True when the op's result meets its expectation, given the values
    of the earlier ops of its group."""
    done = op.group
    kind = op.expect[0]
    if kind == "sweep":
        x = op.expect[1]
        for n, iv in enumerate(result, start=1):
            if not iv.contains(x):
                return False
            if iv.is_point:
                if iv.lo != x:
                    return False
            elif iv.hi - iv.lo != Fraction(1, n):
                return False
        return len(result) == op.n_max
    if result is None or result.denominator > D:
        return False
    if kind == "value":
        return result == op.expect[1]
    if kind == "lin":
        base = done.get(op.expect[1])
        return base is None or result == op.expect[2] * base + op.expect[3]
    if kind == "defect":
        c1, c2 = done.get(op.expect[1]), done.get(op.expect[2])
        return c1 is None or c2 is None or abs(result - c1 - c2) <= 1
    return kind == "any"


def purge_package():
    for name in [k for k in sys.modules if k == "fdtc" or k.startswith("fdtc.")]:
        del sys.modules[name]


class Workload:
    """Set-up and ops of ``words_warm`` or ``powers_deep``.

    A traced op runs with ``tracer`` installed; the tracer finds the
    functions to wrap on its first install, so a traced run sets up only
    once."""

    def __init__(self, name, refs, tracer=None):
        self.refs = refs
        self.keys = WARM_SURFACES if name == "words_warm" else ("S11",)
        self.make = words_warm_groups if name == "words_warm" else powers_deep_groups
        self.tracer = tracer
        self.lib = None

    def units(self, seed):
        return self.make(seed, self.refs)

    def setup(self):
        """One cold set-up (import, triangulations, one warm-up
        coefficient per surface); returns its wall seconds."""
        t0 = time.perf_counter()
        purge_package()
        lib = Library(self.refs, self.keys)
        lib.warm_up()
        self.lib = lib
        return time.perf_counter() - t0

    def run_op(self, op, op_id, traced):
        """(wall seconds, ok, failure description) of one op."""
        lib, tracer = self.lib, self.tracer
        if traced:
            tracer.op = op_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = lib.run_op(op)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        ok = error is None and check(op, result, lib.D[op.surface])
        if ok and op.n_max is None:
            op.group[op.key] = result
        return t1 - t0, ok, "%s %s %s: %s" % (
            op.key, op.surface, op.word, error or "got %s" % (result,))
