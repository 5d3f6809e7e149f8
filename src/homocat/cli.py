"""Command line scenario runner: builds the demo scenarios, executes named
check suites across the library, and emits deterministic text or JSON
reports.  Exit code 0 when no check fails, 2 when a check is inconclusive,
3 on configuration errors."""

import argparse
import json
import sys

from . import __version__
from .exactlinalg import PrimeField, Rationals, Integers, Matrix
from .modulecat import cyclic_algebra, regular_module, trivial_module
from .complexes import (
    Complex, ChainMap, atom, shift, tensor, cone, minimize,
    is_contractible, identity_map, restrict,
)
from .eigen import (
    ScalarShift, Eigenmap, eigencone, is_eigenobject,
    check_PD1, check_PD2, check_PD3_capped, eigen_locus,
    mixed_eigencone, is_split_eigenobject,
)
from .interpolation import (
    TruncationWindow, build_Cab, build_Cba, periodicity_map, canonical_map,
    window_restrict, window_bounds, EMPTY_WINDOW,
    verify_compact_description, verify_P_koszul, build_P,
    quasi_idempotent_check, verify_eigenaction,
)
from .diagonalize import (
    verify_orthogonality, verify_idempotence,
    verify_decomposition_of_identity, tightness_spot_check,
)
from .obstructions import (
    z_cycle, bound_cycle, w_cycle, secondary_certificate,
    cones_commute_equivalence, self_obstruction_certificate,
    self_obstruction_consequence, commutation_homotopy,
)
from .complexes import Homotopy, PASS, FAIL, INCONCLUSIVE

SKIPPED = "SKIPPED"

RINGS = {"f2": PrimeField(2), "q": Rationals(), "z": Integers()}

DEFAULTS = {"ring": "f2", "m": 2, "depth": 12, "edge": None,
            "seed": 0xC0FFEE, "format": "text", "direction": "above"}


class SchemaViolation(Exception):
    pass


def cyclic_scenario(ring, m):
    """The standard m-periodic scenario over k[x]/(x^m - 1): the three-term
    complex F = (A -> A -> unit), the map sending 1 to 1 + x + ... + x^{m-1},
    and the inclusion of the final term."""
    if m < 2:
        raise SchemaViolation("m must be at least 2")
    alg = cyclic_algebra(ring, m)
    A = regular_module(alg)
    one = trivial_module(alg)
    xm1 = A.x_action - Matrix.identity(ring, m)
    aug = Matrix(ring, 1, m, [ring.one()] * m)
    F = Complex(alg, 0, [A, A, one], [xm1, aug])
    al = ChainMap(atom(one), F, 0,
                  {0: Matrix(ring, m, 1, [ring.one()] * m)})
    be = ChainMap(shift(atom(one), -2), F, 0, {2: Matrix.identity(ring, 1)})
    ea = Eigenmap(ScalarShift(0), al)
    eb = Eigenmap(ScalarShift(-2), be)
    return alg, A, one, F, ea, eb


def _outcome(v, detail):
    """A check's (status, detail); a non-PASS verdict's reason is appended."""
    if v.status != PASS and v.reason:
        detail = f"{detail}: {v.reason}"
    return v.status, detail


def _zero_hom(src, tgt):
    return Homotopy(src, tgt, -1, {})


def _trivial_pair_certificate(f, g):
    hs = (_zero_hom(tensor(g.src, f.src), tensor(f.tgt, g.src)),
          _zero_hom(tensor(g.tgt, f.src), tensor(f.tgt, g.tgt)))
    ks = (_zero_hom(tensor(g.src, f.src), tensor(f.src, g.tgt)),
          _zero_hom(tensor(g.src, f.tgt), tensor(f.tgt, g.tgt)))
    cert, v = secondary_certificate(f, g, hs, ks)
    if not v.passed:
        return None
    return cert


# -- cyclic demo checks ---------------------------------------------------------

def _cyclic_checks(ring_name, m, depth, edge, seed, direction):
    ring = RINGS[ring_name]
    alg, A, one, F, ea, eb = cyclic_scenario(ring, m)
    w = TruncationWindow(depth, edge)
    state = {}

    def projectors():
        if "Pa" not in state:
            state["Pa"] = build_P([eb, ea], 1, w, direction=direction)
            state["Pb"] = build_P([eb, ea], 0, w, direction=direction)
        return state["Pa"], state["Pb"]

    def certificates():
        if "certs" not in state:
            ca, _ = self_obstruction_certificate(ea.map)
            cb, _ = self_obstruction_certificate(eb.map)
            state["certs"] = {("w", 0): cb, ("w", 1): ca,
                              ("z", 0, 1): _trivial_pair_certificate(
                                  eb.map, ea.map)}
        return state["certs"]

    def c_pd1():
        v = check_PD1([eb, ea])
        return _outcome(v, "eigencones tensor to zero in both orders")

    def c_pd2():
        v = check_PD2([eb, ea])
        return _outcome(
            v, "single eigencones are acyclic but non-contractible")

    def c_pd3():
        v = check_PD3_capped([eb, ea], max_length=4)
        return _outcome(v, "tensor words of eigencones vanish up to length 4")

    def c_projector_form():
        Pa, Pb = projectors()
        win = window_restrict(Pb.complex, w, direction=direction)
        if win is None:
            return INCONCLUSIVE, EMPTY_WINDOW
        r = minimize(win).minimal
        interior = [d for d in r.degrees()
                    if r.term(d).dim and d != max(r.degrees())]
        ok = all(r.term(d).dim == m for d in interior) \
            and r.term(max(r.degrees())).dim == 1
        return (PASS if ok else FAIL,
                "one regular module per stable degree with the trivial "
                "module on top")

    def c_orthogonality():
        Pa, Pb = projectors()
        v = verify_orthogonality([Pa, Pb], direction=direction, seed=seed)
        return _outcome(v, "products of distinct projectors vanish")

    def c_idempotence():
        Pa, Pb = projectors()
        v = verify_idempotence(Pb, direction=direction, seed=seed)
        return _outcome(v, "projector squares to itself on the stable window")

    def c_decomposition():
        Pa, Pb = projectors()
        v = verify_decomposition_of_identity([Pb, Pa])
        return _outcome(v, "the projector convolution is the unit")

    def c_tightness():
        Pa, Pb = projectors()
        v = tightness_spot_check([ea, eb], [Pa, Pb],
                                 [atom(A), atom(one)],
                                 direction=direction, seed=seed)
        return _outcome(v, "projectors detect exactly the eigenobjects")

    def c_periodicity():
        for build, e, sh in ((build_Cab, ea, 2), (build_Cba, eb, 0)):
            tp = build(ea, eb, w, direction=direction)
            u = periodicity_map(tp)
            lo, hi = window_bounds(tp.complex, w, direction=direction)
            if lo >= hi:
                return INCONCLUSIVE, EMPTY_WINDOW
            r = minimize(restrict(cone(u), lo, hi)).minimal
            expect = shift(cone(e.map), sh)
            got = {d: r.term(d).dim for d in r.degrees()
                   if r.term(d).dim and lo < d <= hi}
            want = {d: expect.term(d).dim for d in expect.degrees()
                    if expect.term(d).dim and lo < d <= hi}
            if got != want:
                return FAIL, "cone of the periodicity map is wrong"
        return PASS, "cone of the periodicity map is the eigencone"

    def c_koszul_compact():
        for kind in ("Cab", "Cba"):
            v = verify_compact_description(ea, eb, w, kind=kind,
                                           direction=direction)
            if not v.passed:
                return _outcome(v, f"compact description fails for {kind}")
        return PASS, "zigzag totals match their compact descriptions"

    def c_koszul_projector():
        v = verify_P_koszul([eb, ea], 1, w, direction=direction)
        return _outcome(v, "projector matches its Koszul reconstruction")

    def c_eigenaction():
        v = verify_eigenaction([eb, ea], 1, w, certificates(), j=0)
        return _outcome(v, "periodicity map realizes the scalar action")

    def c_quasi_idempotent():
        v = quasi_idempotent_check([eb, ea], 1, certificates())
        return _outcome(v, "Koszul object squares to a scalar multiple")

    def c_obstruction_z():
        cert = certificates()[("z", 0, 1)]
        return ((PASS if cert is not None and cert.passed else FAIL),
                "secondary obstruction cycle assembled and bounded")

    def c_obstruction_w():
        h = _zero_hom(tensor(ea.map.src, F), tensor(F, F))
        wv, v = w_cycle(ea, h)
        return _outcome(v, "self obstruction cycle assembled and checked")

    def c_cones_commute():
        cert = certificates()[("z", 0, 1)]
        if cert is None:
            return FAIL, "no certificate"
        v = cones_commute_equivalence(eb.map, ea.map, cert)
        return _outcome(v, "explicit equivalence commuting the eigencones")

    def c_self_obstruction():
        for e in (ea, eb):
            cert, cv = self_obstruction_certificate(e.map)
            if not cv.passed:
                return _outcome(cv, "no bounding data")
            v = self_obstruction_consequence(e.map, cert)
            if not v.passed:
                return _outcome(v, "cone square fails to split")
        return PASS, "cone squares split off the shifted source"

    def c_semisimple():
        r = minimize(F).minimal
        collapsed = (r.total_dim() == 1)
        return (PASS if collapsed else FAIL,
                "the complex minimizes to the monoidal unit: the scenario "
                "is semisimple over this ring")

    order = [
        ("pd1", c_pd1), ("pd2", c_pd2), ("pd3_capped", c_pd3),
        ("projector_form", c_projector_form),
        ("orthogonality", c_orthogonality),
        ("idempotence", c_idempotence),
        ("decomposition_of_identity", c_decomposition),
        ("tightness", c_tightness),
        ("periodicity", c_periodicity),
        ("koszul_compact", c_koszul_compact),
        ("koszul_projector", c_koszul_projector),
        ("eigenaction", c_eigenaction),
        ("quasi_idempotent", c_quasi_idempotent),
        ("obstruction_z", c_obstruction_z),
        ("obstruction_w", c_obstruction_w),
        ("cones_commute", c_cones_commute),
        ("self_obstruction", c_self_obstruction),
        ("semisimple_collapse", c_semisimple),
    ]
    if not ring.is_field:
        applicable = {"pd1", "pd2", "obstruction_z", "obstruction_w",
                      "cones_commute", "self_obstruction"}
    elif ring.p is None or m % ring.p:
        # Maschke: k[x]/(x^m - 1) is semisimple when char k does not divide m
        applicable = {"semisimple_collapse"}
    else:
        applicable = {cid for cid, _ in order} - {"semisimple_collapse"}
    return order, applicable


def _obstruction_check_ids():
    return {"obstruction_z", "obstruction_w", "cones_commute",
            "self_obstruction"}


# -- integers demo ----------------------------------------------------------------

def _integers_checks(seed):
    alg = cyclic_algebra(Integers(), 1)
    one = trivial_module(alg)
    F = atom(one)

    def mult(k):
        return Eigenmap(ScalarShift(0),
                        ChainMap(atom(one), F, 0,
                                 {0: Matrix(Integers(), 1, 1,
                                            [Integers().coerce(k)])}))

    def zmod(n):
        return Complex(alg, 0, [one, one],
                       [Matrix(Integers(), 1, 1, [Integers().coerce(n)])])

    def c_modular():
        import math
        for k in (2, 3, 5):
            for n in (2, 3, 5):
                want = math.gcd(k, n) == 1
                got = is_eigenobject(mult(k), zmod(n)).passed
                if got != want:
                    return FAIL, f"multiplication by {k} on the {n}-torsion " \
                                 f"model disagrees with modular invertibility"
        return PASS, "eigenobject verdicts match modular invertibility"

    def c_nilpotent():
        v = is_eigenobject(mult(2), zmod(2))
        return ((PASS if not v.passed else FAIL),
                "multiplication by 2 is nilpotent on the 2-torsion model")

    def c_locus():
        import math
        objs = [("Z/2", zmod(2)), ("Z/3", zmod(3)), ("Z/5", zmod(5))]
        rep = eigen_locus(mult(2), mult(3), objs, samples=6, seed=seed)
        if not (rep["fusion_ok"] and rep["verdict"].passed):
            return FAIL, "locus fusion law violated"
        return PASS, "the product locus is the intersection of the factors"

    order = [("modular_verdicts", c_modular),
             ("nilpotent_control", c_nilpotent),
             ("locus_fusion", c_locus)]
    return order, {cid for cid, _ in order}


# -- mixed demo -------------------------------------------------------------------

def _mixed_checks():
    Zr = Integers()
    alg = cyclic_algebra(Zr, 1)
    one = trivial_module(alg)

    def mk(n):
        return Matrix(Zr, 1, 1, [Zr.coerce(n)])

    F = Complex(alg, -1, [one, one], [mk(2)])
    a = ChainMap(atom(one), F, 0, {0: mk(1)})
    mu = shift(atom(one), 1)
    b = ChainMap(F, mu, 0, {-1: mk(1)})

    def c_lambda():
        lam = mixed_eigencone(a, b)
        v = is_contractible(lam)
        return _outcome(v, "the interpolating object is contractible")

    def c_split():
        v = is_split_eigenobject(a, b, F)
        return _outcome(
            v, "the two-term model splits into shifts as displayed")

    def c_not_split():
        C = Complex(alg, -1, [one, one], [mk(4)])
        v = is_split_eigenobject(a, b, C)
        return ((PASS if v.status == FAIL else FAIL),
                "the cone of multiplication by four is not split")

    order = [("lambda_contractible", c_lambda),
             ("split_model", c_split),
             ("cone_closure_control", c_not_split)]
    return order, {cid for cid, _ in order}


# -- report assembly --------------------------------------------------------------

def run_checks(order, applicable, selected=None):
    known = {cid for cid, _ in order}
    if selected is not None:
        unknown = [c for c in selected if c not in known]
        if unknown:
            raise SchemaViolation(f"unknown check ids: {unknown}")
    records = []
    for cid, fn in order:
        if selected is not None and cid not in selected:
            continue
        if cid not in applicable:
            records.append({"id": cid, "status": SKIPPED,
                            "detail": "not applicable over this ring",
                            "timing_ms": 0})
            continue
        status, detail = fn()
        records.append({"id": cid, "status": status, "detail": detail,
                        "timing_ms": 0})
    return records


def build_report(scenario, records):
    return {"version": __version__,
            "seed": scenario.get("seed", DEFAULTS["seed"]),
            "scenario": scenario,
            "checks": records}


def emit_report(report, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    s = report["scenario"]
    out.write(f"homocat report v{report['version']}\n")
    out.write("scenario: " + json.dumps(s, sort_keys=True) + "\n")
    for rec in report["checks"]:
        out.write(f"[{rec['status']:<12}] {rec['id']}: {rec['detail']}\n")
    counts = {}
    for rec in report["checks"]:
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    out.write("summary: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())) + "\n")


def report_exit_code(report):
    statuses = {rec["status"] for rec in report["checks"]}
    if FAIL in statuses:
        return 1
    if INCONCLUSIVE in statuses:
        return 2
    return 0


def _field(scenario, name, valid, expected):
    value = scenario.get(name, DEFAULTS[name])
    if not valid(value):
        raise SchemaViolation(f"{name} must be {expected}, got {value!r}")
    return value


def _positive_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def run_scenario(scenario, restrict_to=None):
    demo = scenario.get("demo")
    ring = scenario.get("ring", DEFAULTS["ring"])
    if ring not in RINGS:
        raise SchemaViolation(f"unknown ring {ring!r}")
    seed = _field(scenario, "seed",
                  lambda v: isinstance(v, int) and not isinstance(v, bool),
                  "an integer")
    if demo == "cyclic":
        m = _field(scenario, "m", _positive_int, "an integer >= 1")
        depth = _field(scenario, "depth", _positive_int, "an integer >= 1")
        edge = _field(scenario, "edge",
                      lambda v: v is None or _positive_int(v),
                      "null or an integer >= 1") or max(4, depth // 3)
        direction = _field(scenario, "direction",
                           lambda v: v in ("above", "below"),
                           "'above' or 'below'")
        order, applicable = _cyclic_checks(ring, m, depth, edge, seed,
                                           direction)
    elif demo == "integers":
        order, applicable = _integers_checks(seed)
    elif demo == "mixed":
        order, applicable = _mixed_checks()
    else:
        raise SchemaViolation(f"unknown demo {demo!r}")
    selected = scenario.get("checks")
    if restrict_to is not None:
        pool = [cid for cid, _ in order if cid in restrict_to]
        selected = pool if selected is None else \
            [c for c in selected if c in restrict_to]
    records = run_checks(order, applicable, selected)
    return build_report(scenario, records)


def _load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise SchemaViolation(f"cannot read scenario: {ex}")
    if not isinstance(data, dict):
        raise SchemaViolation("scenario must be a JSON object")
    if "checks" in data and not isinstance(data["checks"], list):
        raise SchemaViolation("checks must be a list of check ids")
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homocat",
        description="exact verification of categorical diagonalization data")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a builtin demo scenario")
    demo.add_argument("which", choices=["cyclic", "integers", "mixed"])
    demo.add_argument("--ring", choices=["f2", "q", "z"],
                      default=DEFAULTS["ring"])
    demo.add_argument("--m", type=int, default=DEFAULTS["m"])
    demo.add_argument("--depth", type=int, default=DEFAULTS["depth"])
    demo.add_argument("--edge", type=int, default=None)
    demo.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    demo.add_argument("--format", choices=["text", "json"],
                      default=DEFAULTS["format"])
    demo.add_argument("--direction", choices=["above", "below"],
                      default=DEFAULTS["direction"])

    for name in ("verify", "obstructions"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--format", choices=["text", "json"],
                       default=DEFAULTS["format"])

    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            scenario = {"demo": args.which, "ring": args.ring, "m": args.m,
                        "depth": args.depth, "edge": args.edge,
                        "seed": args.seed, "direction": args.direction}
            report = run_scenario(scenario)
        else:
            scenario = _load_scenario(args.scenario)
            restrict = _obstruction_check_ids() \
                if args.command == "obstructions" else None
            report = run_scenario(scenario, restrict_to=restrict)
    except SchemaViolation as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    emit_report(report, args.format)
    return report_exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
