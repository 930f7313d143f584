"""Inputs, pinned expectations and output checks for the three workloads.

A workload is a list of cases made from --seed.  The seed picks only the
twists (c, chi0, the determinant shift of the labels) and the case order;
the symbol spaces, fields and module sizes that set the cost are fixed, so
every seed does the same work.  Each case runs through gl3hecke's public
functions, looked up as module attributes at call time so that a traced
pass sees them wrapped, and returns plain data.  check() compares it with
values pinned when the benchmark was written and with oracles computed here
without the library: elliptic point counts, minimal polynomials, carrier dimensions and
the closed form of the orbit representatives.
"""

from __future__ import annotations

import random
from math import comb, gcd

from gl3hecke import characters, ffield, heckegl3, modrep, transfer, weights

WHY = {
    "boundary-fixture": "GL(3) coset translation and boundary T(l,k) assembly on one shared F_5 symbol space "
    "(p=5, N1=11, window up to 23); the eigen search is cheap and never extends the field",
    "boundary-ext": "distinct symbol spaces whose eigenvalues need F_{p^2} or F_{p^3}: presentation, brute-force "
    "eigen split and extension-field arithmetic dominate, coset work is small",
    "local-weights": "weight prediction, GL(3) module spin/radical from a cold cache with repeated keys, and P^2(Z/N) "
    "orbit tables; symbol spaces only in the small chain case",
}

# -- boundary-fixture ----------------------------------------------------------

FIXTURE_WINDOW = (2, 7, 13, 17, 19, 23)
FIXTURE_SYSTEMS = 1  # the level-11 newform and the Eisenstein series agree mod 5

# -- boundary-ext --------------------------------------------------------------

EXT_WINDOW = (2, 3)
EXT_D = 17  # prime to every p, N1 and window prime below, so chi0 mod 17 is a real twist
# (p, a, b, N1) -> sorted per-system fingerprints: ((l, minimal polynomial of
# lambda_l over F_p, constant term first), ...) for l in EXT_WINDOW.
EXT_SPACES = {
    (13, 4, 0, 11): [
        ((2, (4, 1)), (3, (2, 1))),
        ((2, (6, 1)), (3, (3, 1))),
        ((2, (6, 1, 0, 1)), (3, (3, 9, 5, 1))),
        ((2, (6, 1, 0, 1)), (3, (3, 9, 5, 1))),
        ((2, (6, 1, 0, 1)), (3, (3, 9, 5, 1))),
    ],
    (7, 4, 0, 11): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (4, 1)), (3, (1, 1))),
        ((2, (6, 1, 0, 1)), (3, (1, 0, 1, 1))),
        ((2, (6, 1, 0, 1)), (3, (1, 0, 1, 1))),
        ((2, (6, 1, 0, 1)), (3, (1, 0, 1, 1))),
    ],
    (7, 0, 0, 53): [
        ((2, (1, 1)), (3, (3, 1))),
        ((2, (4, 1)), (3, (3, 1))),
        ((2, (6, 4, 1, 1)), (3, (1, 6, 4, 1))),
        ((2, (6, 4, 1, 1)), (3, (1, 6, 4, 1))),
        ((2, (6, 4, 1, 1)), (3, (1, 6, 4, 1))),
    ],
    (5, 4, 0, 11): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (4, 1)), (3, (0, 1))),
        ((2, (4, 3, 1)), (3, (2, 0, 1))),
        ((2, (4, 3, 1)), (3, (2, 0, 1))),
    ],
    (5, 0, 0, 43): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (2, 1)), (3, (2, 1))),
        ((2, (3, 0, 1)), (3, (3, 0, 1))),
        ((2, (3, 0, 1)), (3, (3, 0, 1))),
    ],
    (5, 0, 0, 29): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (4, 2, 1)), (3, (4, 3, 1))),
        ((2, (4, 2, 1)), (3, (4, 3, 1))),
    ],
    (5, 0, 0, 67): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (3, 1)), (3, (2, 1))),
        ((2, (4, 1)), (3, (4, 1))),
    ],
    (13, 0, 0, 11): [
        ((2, (2, 1)), (3, (1, 1))),
        ((2, (10, 1)), (3, (9, 1))),
    ],
}

# -- local-weights -------------------------------------------------------------

# (p, kind, flag, a, b, c, m) -> predicted weights at determinant shift 0
INERTIAL = {
    (7, "ordinary", "tame", 1, 3, 5, None): [(3, 2, 1), (7, 6, 5), (9, 6, 3), (11, 8, 5)],
    (7, "ordinary", "peu", 1, 3, 5, None): [(9, 6, 3), (11, 8, 5)],
    (7, "supersingular", "tame", None, None, 0, 9): [(0, 0, 0), (4, 1, 1), (6, 6, 0)],
    (11, "ordinary", "tame", 0, 4, 7, None): [(5, 3, 0), (12, 9, 7), (15, 9, 4), (18, 13, 7)],
    (11, "ordinary", "peu", 0, 4, 7, None): [(15, 9, 4), (18, 13, 7)],
    (13, "supersingular", "tame", None, None, 0, 57): [(3, 3, 0), (10, 4, 4)],
}
# (p, x-y, y-z) -> dimension of the irreducible module
MODULE_DIMS = {
    (5, 1, 3): 18,
    (5, 3, 1): 18,
    (7, 0, 0): 1,
    (7, 0, 6): 28,
    (7, 1, 1): 8,
    (7, 3, 0): 10,
    (7, 3, 3): 37,
    (11, 2, 3): 42,
    (11, 3, 2): 42,
    (11, 5, 6): 183,
    (11, 6, 5): 183,
    (13, 0, 3): 10,
    (13, 6, 0): 28,
}
ORBIT_LEVELS = (30, 42)
ORBIT_SAMPLES = 32

# -- the chain every workload runs once, on its smallest instance ----------------

CHAIN_INERTIAL = {(5, "ordinary", "tame", 0, 0, 2, None): [(4, 3, 0), (6, 3, 2)]}
CHAIN_WINDOW = (2,)
CHAIN_ORBIT_LEVEL = 11


# -- independent oracles -------------------------------------------------------


def elliptic_ap(l):
    """l + 1 - #E(F_l) for E: y^2 + y = x^3 - x^2 - 10x - 20 (conductor 11)."""
    count = 1
    for x in range(l):
        rhs = x**3 - x * x - 10 * x - 20
        count += sum(1 for y in range(l) if (y * y + y - rhs) % l == 0)
    return l + 1 - count


def p2_size(N):
    """Number of points of P^2(Z/N) for squarefree N."""
    out, n, q = 1, N, 2
    while n > 1:
        if n % q == 0:
            out *= q * q + q + 1
            n //= q
        q += 1
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def normalize_weight(p, x, y, z):
    delta = z % (p - 1) - z
    return (x + delta, y + delta, z + delta)


def _solve_mod(cols, b, p):
    """x with sum x_i cols_i = b over F_p, or None."""
    k = len(cols)
    rows = [[col[i] for col in cols] + [b[i]] for i in range(len(b))]
    pivots, r = [], 0
    for c in range(k):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(u - f * v) % p for u, v in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[k] % p for row in rows[r:]):
        return None
    x = [0] * k
    for i, c in enumerate(pivots):
        x[c] = rows[i][k]
    return x


def _mulmod(a, b, f, p):
    r = len(f) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            for i in range(r + 1):
                prod[k - r + i] -= c * f[i]
    return [v % p for v in prod[:r]]


def minpoly(value):
    """Minimal polynomial over F_p of a field element given as (coords,
    modulus, p), computed from the coordinates alone; it does not depend on
    the choice of modulus or of Galois conjugate."""
    coords, modulus, p = value
    powers = []
    cur = [1] + [0] * (len(coords) - 1)
    while True:
        sol = _solve_mod(powers, cur, p) if powers else None
        if sol is not None:
            return tuple([(-v) % p for v in sol] + [1])
        powers.append(cur)
        cur = _mulmod(cur, list(coords), list(modulus), p)


def _element(x):
    return (tuple(x.coords), tuple(x.field.modulus), x.field.p)


def _fingerprint(lambdas):
    return tuple((l, minpoly(v)) for l, v in sorted(lambdas.items()))


# -- case generation -------------------------------------------------------------


def _chi0(p, d, kind):
    field = ffield.FiniteField(p, 1)
    if kind == "quadratic":
        return characters.DirichletCharacter.quadratic(field, d)
    return characters.DirichletCharacter.trivial(field, d)


def _fixture_case(rng, d, window):
    c = rng.randrange(4)
    kind = rng.choice(("trivial", "quadratic")) if d > 1 else "trivial"
    return {
        "id": "fixture:d%d:c%d:%s:l<=%d" % (d, c, kind, max(window)),
        "kind": "fixture",
        "d": d,
        "c": c,
        "chi0": _chi0(5, d, kind),
        "window": window,
    }


def _inertial_cases(rng, table):
    """A predict case per inertial datum, twisted by a seeded power k of the
    cyclotomic character (which shifts every predicted label by k), and a
    module case per predicted weight."""
    cases = []
    for key, base in table.items():
        p, kind, flag, a, b, c, m = key
        k = rng.randrange(p - 1)
        data = dict(p=p, kind=kind, c=c + k)
        if kind == weights.ORDINARY:
            data.update(a=a + k, b=b + k, flag=flag)
        else:
            data.update(m=m + k * (p + 1))
        want = sorted(normalize_weight(p, x + k, y + k, z + k) for x, y, z in base)
        cases.append({"id": "predict:p%d:%s:%s:shift%d" % (p, kind, flag, k), "kind": "predict", "data": data, "want": want})
        cases += [{"id": "module:p%d:%d,%d,%d" % ((p,) + w), "kind": "module", "p": p, "weight": w} for w in want]
    return cases


def _orbit_case(rng, N):
    points = []
    while len(points) < ORBIT_SAMPLES:
        v = tuple(rng.randrange(N) for _ in range(3))
        if gcd(gcd(gcd(v[0], v[1]), v[2]), N) == 1:
            points.append(v)
    return {"id": "orbits:N%d" % N, "kind": "orbits", "N": N, "points": points}


def make_cases(workload, seed):
    """The seeded case list of one pass: dicts with id, kind and params.
    Every workload also runs the whole chain once on its smallest instance
    (the CHAIN_* inputs), so that every layer is present in every pass."""
    rng = random.Random("%s/%d" % (workload, seed))
    cases = _inertial_cases(rng, CHAIN_INERTIAL) + [_fixture_case(rng, 1, CHAIN_WINDOW), _orbit_case(rng, CHAIN_ORBIT_LEVEL)]
    if workload == "boundary-fixture":
        cases += [_fixture_case(rng, d, FIXTURE_WINDOW) for d in (1, 3)]
    elif workload == "boundary-ext":
        for (p, a, b, N1) in EXT_SPACES:
            c = rng.randrange(p - 1)
            kind = rng.choice(("trivial", "quadratic"))
            cases.append(
                {
                    "id": "ext:p%d:w%d,%d:N%d:c%d:%s" % (p, a, b, N1, c, kind),
                    "kind": "ext",
                    "space": (p, a, b, N1),
                    "d": EXT_D,
                    "c": c,
                    "chi0": _chi0(p, EXT_D, kind),
                }
            )
    elif workload == "local-weights":
        cases += _inertial_cases(rng, INERTIAL) + [_orbit_case(rng, N) for N in ORBIT_LEVELS]
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(cases)
    return cases


def key_repeat_share(cases):
    """Share of module builds whose key (p, x-y, y-z) occurs earlier in the
    pass: the work the inputs share, whatever the case order."""
    keys = [(c["p"], c["weight"][0] - c["weight"][1], c["weight"][1] - c["weight"][2]) for c in cases if c["kind"] == "module"]
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


# -- running -------------------------------------------------------------------


class Runner:
    """Runs cases.  install() also records the eigensystems found inside
    BoundaryDatum.build, which the datum does not hand back."""

    def __init__(self):
        self.systems = []

    def install(self):
        search = transfer.find_eigensystems

        def capture(*args, **kwargs):
            out = search(*args, **kwargs)
            self.systems.append(out)
            return out

        transfer.find_eigensystems = capture

    def run(self, case):
        return getattr(self, "_run_" + case["kind"])(case)

    def _boundary(self, p, a, b, N1, case, window):
        self.systems.clear()
        datum = transfer.BoundaryDatum.build(p, a, b, case["c"], case["d"], N1, chi0=case["chi0"], window=window)
        report = transfer.run_transfer_checks(datum, window)
        return {
            "N": datum.N,
            "systems": [{l: _element(v) for l, v in s.lambdas.items()} for s in self.systems[-1]],
            "lambdas": {l: _element(v) for l, v in datum.eigen.lambdas.items()},
            "report": report,
        }

    def _run_fixture(self, case):
        return self._boundary(5, 0, 0, 11, case, case["window"])

    def _run_ext(self, case):
        p, a, b, N1 = case["space"]
        return self._boundary(p, a, b, N1, case, EXT_WINDOW)

    def _run_predict(self, case):
        return sorted(w.as_tuple() for w in weights.predict_weights(weights.InertialData(**case["data"])))

    def _run_module(self, case):
        mod = modrep.build_gl3_module(case["p"], *case["weight"])
        levi = modrep.u_invariants(mod)
        return {
            "label": tuple(mod.label),
            "dim": mod.dim,
            "carrier_dim": mod.carrier_dim,
            "levi_dim": levi.dim,
            "gl1_exponent": levi.gl1_exponent,
            "gl2_label": tuple(levi.gl2_module.label),
        }

    def _run_orbits(self, case):
        N = case["N"]
        orbits = heckegl3.ProjectiveOrbits(N)
        return {
            "count": orbits.orbit_count,
            "standard": {d: orbits.orbit_rep((1, d, 0)) for d in divisors(N)},
            "points": [orbits.orbit_rep(v) for v in case["points"]],
        }


# -- checking ------------------------------------------------------------------


def _check_report(out, p, window):
    problems = []
    want = [l for l in window if gcd(l, p * out["N"]) == 1]
    if [e["l"] for e in out["report"]] != want:
        problems.append("report covers %s, expected %s" % ([e["l"] for e in out["report"]], want))
    for e in out["report"]:
        bad = sorted(k for k, v in e.items() if k != "l" and v is not True)
        if bad:
            problems.append("l=%d: false flags %s" % (e["l"], bad))
    return problems


def check(case, out):
    """Problems found in the output of one case; empty when it is correct."""
    kind = case["kind"]
    problems = []
    if kind == "fixture":
        problems += _check_report(out, 5, case["window"])
        if len(out["systems"]) != FIXTURE_SYSTEMS:
            problems.append("%d eigensystems, expected %d" % (len(out["systems"]), FIXTURE_SYSTEMS))
        for l in case["window"]:
            want = ((-elliptic_ap(l)) % 5, 1)
            if minpoly(out["lambdas"][l]) != want:
                problems.append("lambda_%d has minimal polynomial %s, expected %s" % (l, minpoly(out["lambdas"][l]), want))
    elif kind == "ext":
        p = case["space"][0]
        problems += _check_report(out, p, EXT_WINDOW)
        pinned = EXT_SPACES[case["space"]]
        got = sorted(_fingerprint(s) for s in out["systems"])
        if got != pinned:
            problems.append("eigensystem fingerprints %s, expected %s" % (got, pinned))
        if _fingerprint(out["lambdas"]) not in pinned:
            problems.append("datum eigenclass %s is not a pinned system" % (_fingerprint(out["lambdas"]),))
    elif kind == "predict":
        if out != case["want"]:
            problems.append("predicted %s, expected %s" % (out, case["want"]))
    elif kind == "module":
        p, (x, y, z) = case["p"], case["weight"]
        want = {
            "label": (x, y, z),
            "dim": MODULE_DIMS[(p, x - y, y - z)],
            "carrier_dim": comb(x - y + 2, 2) * comb(y - z + 2, 2),
            "levi_dim": x - y + 1,
            "gl1_exponent": z % (p - 1),
            "gl2_label": (x, y),
        }
        problems += ["%s=%s, expected %s" % (k, out[k], v) for k, v in want.items() if out[k] != v]
    elif kind == "orbits":
        N = case["N"]
        if out["count"] != len(divisors(N)):
            problems.append("%d orbits, expected %d" % (out["count"], len(divisors(N))))
        problems += ["orbit_rep((1,%d,0)) = %d" % (d, r) for d, r in out["standard"].items() if r != d]
        for v, r in zip(case["points"], out["points"]):
            if r != gcd(gcd(v[1], v[2]), N):
                problems.append("orbit_rep(%s) = %d, expected gcd(v1, v2, N) = %d" % (v, r, gcd(gcd(v[1], v[2]), N)))
    return problems


def corrupt(case, out):
    """A copy of a correct output with one value changed, for the self-check."""
    kind = case["kind"]
    if kind in ("fixture", "ext"):
        l = min(out["lambdas"])
        coords, modulus, p = out["lambdas"][l]
        lambdas = dict(out["lambdas"])
        lambdas[l] = (((coords[0] + 1) % p,) + coords[1:], modulus, p)
        return dict(out, lambdas=lambdas)
    if kind == "predict":
        return out[1:]
    if kind == "module":
        return dict(out, dim=out["dim"] + 1)
    if kind == "orbits":
        standard = dict(out["standard"])
        standard[case["N"]] = 1
        return dict(out, standard=standard)
    raise ValueError(kind)
