"""The ``cli_cold`` workload: one ``fdtc`` command per fresh interpreter.

A closed loop with one caller: each op spawns ``python -m fdtc ...`` on
a problem file written during set-up, waits for it to exit (with a
timeout), and checks its report against the reference table.  An op is
timed from spawn to exit, so it includes interpreter start, import and
every generator compile the request needs: a CLI user pays those on
every run.

The ops come in blocks of 100 with fixed class shares, so that
the median falls inside the light class and the 90th percentile inside
the compile class, a few ranks away from either class boundary:

- light (62): classify, foliation check/otdisc/bounds, surface info;
- small (16): fdtc exact on S_{1,1} and S_{1,2};
- compile (22): fdtc braid with sigma_1 on the 3-punctured disc (20),
  fdtc braid with sigma_2, sigma_3 on the 4-punctured disc (1) and
  fdtc exact on S_{2,1} (1).

The 90th percentile is the 12th fastest of the 20 sigma_1 requests, near
the middle of their class, where the order statistic moves least.  The
S_{2,1} request takes a fifth of a block's time, so it is the same in
every block (the chain once): its cost then does not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from library import inverse, power

BLOCK = (
    ("classify", 16), ("foliation_check", 12), ("foliation_otdisc", 12),
    ("foliation_bounds", 10), ("surface_info", 12),
    ("exact_S11", 8), ("exact_S12", 8),
    ("braid_D3", 20), ("braid_D4", 1), ("exact_S21", 1),
)
REQUEST_TIMEOUT_S = 60.0


class Request:
    """One CLI invocation and the report it must produce."""

    __slots__ = ("kind", "problem", "args", "expect")

    def __init__(self, kind, problem, args, expect):
        self.kind = kind
        self.problem = problem
        self.args = args
        self.expect = expect


def _letters(word):
    out = []
    for kind, name, p in word:
        out.append({kind: name, "power": p})
    return out


def _word_problem(surf, word):
    return {"surface": surf["surface"], "curves": surf["curves"],
            "words": {"phi": _letters(word)}}


def _family(refs, fid):
    for f in refs["families"]:
        if f["id"] == fid:
            return f
    raise KeyError(fid)


def _exact_request(rng, refs, family_ids, j_max, shift_max, conj_letters):
    fam = _family(refs, rng.choice(family_ids))
    surf = refs["surfaces"][fam["surface"]]
    C = fam["component"]
    j = rng.randint(1, j_max)
    word = power([tuple(x) for x in fam["word"]], j)
    value = j * Fraction(fam["value_per_power"])
    if conj_letters:
        u = [rng.choice(conj_letters)]
        word = u + word + inverse(u)
    shift = rng.randint(-shift_max, shift_max) if shift_max else 0
    if shift:
        word = [("boundary", C, shift)] + word
        value += shift
    action = "braid" if fam["kind"] == "braid" else "exact"
    args = ["fdtc", action, None, "--word", "phi"]
    if action == "exact":
        args += ["--component", C]
    return Request("fdtc_" + action, _word_problem(surf, word), args,
                   {"value": str(value)})


def _ot_disc_json(spokes):
    """The overtwisted disc certificate with one negative centre and
    ``spokes`` positive spokes, written out by hand."""
    ells = [{"id": "v-", "sign": -1, "boundary_label": "C", "essential": True,
             "strongly_essential": True, "a_arcs_present": False}]
    hyps, inc = [], []
    for i in range(1, spokes + 1):
        ells.append({"id": "w%d" % i, "sign": 1, "boundary_label": "C",
                     "essential": True, "strongly_essential": True,
                     "a_arcs_present": True})
        hyps.append({"id": "h%d" % i, "sign": 1, "region_type": "ab",
                     "degenerated": False})
        inc += [["h%d" % i, "v-"], ["h%d" % i, "w%d" % i],
                ["h%d" % i, "w%d" % (i % spokes + 1)]]
    return {"surface": {"genus": 0, "boundary_count": 1},
            "elliptic_points": ells, "hyperbolic_points": hyps,
            "singular_leaf_incidence": inc,
            "c_circles": {"present": False, "essential": False}}


TRIVIAL_DISC = {
    "surface": {"genus": 0, "boundary_count": 1},
    "elliptic_points": [
        {"id": "v1", "sign": 1, "boundary_label": "C", "essential": True,
         "strongly_essential": True, "a_arcs_present": True},
        {"id": "v2", "sign": 1, "boundary_label": "C", "essential": True,
         "strongly_essential": True, "a_arcs_present": True}],
    "hyperbolic_points": [{"id": "h1", "sign": 1, "region_type": "aa",
                           "degenerated": False}],
    "singular_leaf_incidence": [["h1", "v1"], ["h1", "v2"]],
    "c_circles": {"present": False, "essential": False},
}


def _foliation_request(rng, refs, action):
    fol = refs["foliation"]
    if action != "bounds" and rng.random() < 0.25:
        graph, ref = TRIVIAL_DISC, fol["trivial_disc"]
    else:
        graph, ref = _ot_disc_json(rng.randint(2, 6)), fol["ot_disc"]
    problem = {"surface": {"genus": 0, "boundary": ["C"]},
               "foliations": {"g": graph}}
    args = ["foliation", action, None, "--graph", "g"]
    if action == "bounds":
        args += ["--points", "w1", "--mode", "braid"]
    return Request("foliation_" + action, problem, args, ref)


def _classify_request(rng, refs):
    case = rng.choice(refs["classify"]["cases"])
    labels = sorted(case["coefficients"])
    problem = {"surface": {"genus": 1, "boundary": labels},
               "assignment": {"coefficients": case["coefficients"],
                              "connected_boundary": case["connected_boundary"]},
               "nt_type": case["nt_type"], "tight": case["tight"]}
    return Request("classify", problem, ["classify", None],
                   {"conclusions": case["expect"]})


def _surface_request(rng, refs):
    key = rng.choice(sorted(refs["surfaces"]))
    surf = refs["surfaces"][key]
    spec = surf["surface"]
    g, d, n = spec["genus"], len(spec["boundary"]), spec.get("punctures", 0)
    D = surf["D"]
    return Request("surface_info", {"surface": spec, "curves": surf["curves"]},
                   ["surface", "info", None],
                   {"genus": g, "punctures": n, "denominator_bound": D,
                    "key_lemma_power": D * (D - 1) + 1,
                    "euler_characteristic": 2 - 2 * g - d - n})


def make_block(rng, refs):
    """One block of requests with the class shares of BLOCK, in seeded
    order."""
    makers = {
        "classify": lambda: _classify_request(rng, refs),
        "foliation_check": lambda: _foliation_request(rng, refs, "check"),
        "foliation_otdisc": lambda: _foliation_request(rng, refs, "otdisc"),
        "foliation_bounds": lambda: _foliation_request(rng, refs, "bounds"),
        "surface_info": lambda: _surface_request(rng, refs),
        "exact_S11": lambda: _exact_request(
            rng, refs, ["torus_chain"], 6, 3,
            [("twist", "a", 1), ("twist", "b", -1)]),
        "exact_S12": lambda: _exact_request(
            rng, refs, ["two_holed_chain_C1", "two_holed_chain_C2"], 4, 3,
            [("twist", "b", 1), ("twist", "c", -1)]),
        "braid_D3": lambda: _exact_request(
            rng, refs, ["d3_half_twist", "d3_rotation", "d3_garside"], 3, 0,
            [("braid", 2, 1), ("braid", 2, -1)]),
        "braid_D4": lambda: _exact_request(
            rng, refs, ["d4_inner_rotation"], 3, 0,
            [("braid", 3, 1), ("braid", 3, -1)]),
        "exact_S21": lambda: _exact_request(
            rng, refs, ["genus2_chain"], 1, 0, []),
    }
    block = [makers[kind]() for kind, count in BLOCK for _ in range(count)]
    rng.shuffle(block)
    return block


def check_report(req, report) -> bool:
    results = report.get("results") or []
    if not results:
        return False
    r = results[0]
    e = req.expect
    if req.kind.startswith("fdtc_"):
        return r.get("value") == e["value"]
    if req.kind == "classify":
        return [v["conclusion"] for v in results] == e["conclusions"]
    if req.kind == "surface_info":
        return all(r.get(k) == v for k, v in e.items())
    if req.kind == "foliation_bounds":
        b = e["spoke_bounds"]
        return (r["lower"] == {"num": b["lower"], "den": 1}
                and r["upper"] == {"num": b["upper"], "den": 1})
    if req.kind == "foliation_otdisc":
        return (r["valid"] is e["otdisc_valid"]
                and r["non_right_veering"] is e["non_right_veering"])
    return (r["ok"] is e["check_ok"]
            and r["euler_characteristic"] == e["euler_characteristic"]
            and r["self_linking"] == e["self_linking"])


class Runner:
    """Set-up and ops of ``cli_cold``: request files under ``work``, and
    one child interpreter per request.  Traced requests run under the
    tracer and leave their spans under ``trace_dir``.  A request still
    running at ``deadline`` (a perf_counter time) is killed."""

    def __init__(self, root: Path, work: Path, block, deadline, trace_dir=None):
        self.root = root
        self.work = work
        self.block = block
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # bytecode is cached after the first start, as for an installed
        # package, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def units(self):
        """The block, endlessly; an op is a request's index in it."""
        return itertools.repeat(range(len(self.block)))

    def setup(self):
        """Write the request files and start one interpreter that imports
        fdtc.cli; returns the wall seconds."""
        t0 = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        for i, req in enumerate(self.block):
            (self.work / ("req-%d.json" % i)).write_text(json.dumps(req.problem))
        code, _, _ = self.spawn([sys.executable, "-c", "import fdtc.cli"],
                                REQUEST_TIMEOUT_S)
        if code != 0:
            raise SystemExit("bench: python -c 'import fdtc.cli' failed")
        return time.perf_counter() - t0

    def spawn(self, argv, timeout):
        """Run argv to completion; returns (exit code or None on timeout,
        wall seconds from spawn to exit, stdout bytes)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, env=self.env,
                                  cwd=self.root, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, b""
        return proc.returncode, time.perf_counter() - t0, proc.stdout

    def run_op(self, i, op_id, traced):
        """(wall seconds, ok, failure description) of request ``i``."""
        req = self.block[i]
        timeout = min(REQUEST_TIMEOUT_S, self.deadline - time.perf_counter())
        code, wall, stdout = self.spawn(self.command(i, req, op_id, traced),
                                        timeout)
        if code is None:
            ok, why = False, "timeout after %.1f s" % timeout
        elif code != 0:
            ok, why = False, "exit code %d" % code
        else:
            try:
                ok = check_report(req, json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                ok, why = False, "unreadable report: %s" % exc
            else:
                why = "wrong report: %s" % stdout[:300]
        return wall, ok, "%s %s: %s" % (req.kind, req.args, why)

    def command(self, i, req, op_id, traced):
        """argv of request ``i``, under the tracer when ``traced``."""
        args = [str(self.work / ("req-%d.json" % i)) if a is None else a
                for a in req.args]
        if not traced:
            return [sys.executable, "-m", "fdtc"] + args
        child = str(Path(__file__).resolve().parent / "child.py")
        prefix = str(self.trace_dir / ("op-%d" % op_id))
        return [sys.executable, child, prefix, str(op_id), "--"] + args
