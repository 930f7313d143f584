"""Weight, level, and nebentype prediction for three-dimensional mod-p data
that splits as a two-dimensional piece plus a character.

The input is local: exponents of the diagonal inertia characters at p (mod
p-1 for ordinary data, a niveau-2 exponent mod p^2-1 for supersingular data),
a wildness flag, the cyclotomic twist exponent c of the character summand,
and the prime-to-p conductor/character data.  Prediction is by brute-force
enumeration of all integer lifts of the exponents inside the inequality
windows; the windows have size at most p, so nothing clever is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from math import gcd

from .arith import is_prime, is_squarefree
from .characters import DirichletCharacter, niveau2_normal_form

ORDINARY = "ordinary"
SUPERSINGULAR = "supersingular"
TAME = "tame"
PEU = "peu"
TRES = "tres"


@dataclass(frozen=True)
class WeightTriple:
    """p-restricted label (x, y, z): x >= y >= z, gaps <= p-1, 0 <= z <= p-2.

    Labels differing by adding one multiple of p-1 to every entry name the
    same module; normalize() fixes the representative with z in [0, p-2].
    """

    p: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        p = self.p
        if not (0 <= self.x - self.y <= p - 1 and 0 <= self.y - self.z <= p - 1):
            raise ValueError("label %s is not p-restricted" % ((self.x, self.y, self.z),))
        if not 0 <= self.z <= p - 2:
            raise ValueError("label %s is not normalized" % ((self.x, self.y, self.z),))

    @classmethod
    def normalize(cls, p, x, y, z):
        delta = z % (p - 1) - z
        return cls(p, x + delta, y + delta, z + delta)

    def as_tuple(self):
        return (self.x, self.y, self.z)

    def dual(self):
        """Label of the contragredient module, normalized."""
        return WeightTriple.normalize(self.p, -self.z, -self.y, -self.x)


def dual_weight(t):
    """Contragredient label reversal (x,y,z) -> (-z,-y,-x), renormalized.

    An involution; it exchanges the two prediction recipes across the
    twisted-contragredient operation on inertial data.
    """
    return t.dual()


@dataclass(frozen=True)
class InertialData:
    """Local data determining the weight/level/nebentype prediction.

    ordinary: a, b are the exponents mod p-1 of the diagonal inertia
    characters of the two-dimensional piece, with flag tame/peu/tres.
    supersingular: m is the niveau-2 exponent mod p^2-1, never a multiple
    of p+1.  c is the cyclotomic exponent of the character summand, d its
    prime-to-p conductor, N1 the conductor of the two-dimensional piece.
    """

    p: int
    kind: str
    c: int
    d: int = 1
    N1: int = 1
    a: int | None = None
    b: int | None = None
    flag: str = TAME
    m: int | None = None
    chi0: DirichletCharacter | None = None
    chi1: DirichletCharacter | None = None

    def __post_init__(self):
        p = self.p
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if self.kind not in (ORDINARY, SUPERSINGULAR):
            raise ValueError("kind must be ordinary or supersingular")
        if not is_squarefree(self.N1 * self.d):
            raise ValueError("N1*d = %d must be squarefree" % (self.N1 * self.d))
        if gcd(self.N1 * self.d, p) != 1:
            raise ValueError("level must be prime to p")
        object.__setattr__(self, "c", self.c % (p - 1))
        if self.kind == ORDINARY:
            if self.a is None or self.b is None:
                raise ValueError("ordinary data needs exponents a, b")
            object.__setattr__(self, "a", self.a % (p - 1))
            object.__setattr__(self, "b", self.b % (p - 1))
            if self.flag not in (TAME, PEU, TRES):
                raise ValueError("flag must be tame, peu, or tres")
            if self.flag == TRES and (self.a - self.b - 1) % (p - 1) != 0:
                raise ValueError("tres ramifie requires a = b+1 mod p-1")
        else:
            if self.m is None:
                raise ValueError("supersingular data needs the niveau-2 exponent m")
            if self.flag != TAME:
                raise ValueError("wildness flags apply only to ordinary data")
            object.__setattr__(self, "m", self.m % (p**2 - 1))
            if self.m % (p + 1) == 0:
                raise ValueError("niveau-2 exponent must not be a multiple of p+1")
        if self.chi0 is not None and self.chi0.modulus != self.d:
            raise ValueError("chi0 must have modulus d")
        if self.chi1 is not None and self.chi1.modulus != self.N1:
            raise ValueError("chi1 must have modulus N1")


def _lifts_in_window(residue, lo, p):
    """Integer lifts of residue mod p-1 lying in (lo, lo+p]."""
    out = []
    t = lo + 1 + (residue - lo - 1) % (p - 1)
    while t <= lo + p:
        out.append(t)
        t += p - 1
    return out


def enumerate_weight_lifts(data):
    """All (WeightTriple, recipe, (a~, b~, c~)) from the two recipes.

    recipe 1 takes lifts with 0 < a-b, b-c <= p and 0 <= c < p-1 and emits
    (a-2, b-1, c); recipe 2 takes 0 < c-a, a-b <= p and 0 <= b < p-1 and
    emits (c-2, a-1, b).  Tame ordinary data also contributes the recipes
    with the two diagonal exponents swapped; a tres ramifie flag restricts
    to lifts with a-b = p exactly.
    """
    p = data.p
    out = []
    if data.kind == ORDINARY:
        pairs = [(data.a, data.b)]
        if data.flag == TAME:
            pairs.append((data.b, data.a))
        for alpha, beta in pairs:
            out.extend(_recipes_fixed_diff(p, alpha, beta, data.c, None, data.flag))
    else:
        A, B = niveau2_normal_form(p, data.m)
        out.extend(_recipes_fixed_diff(p, A % (p - 1), B % (p - 1), data.c, A - B, TAME))
    return out


def _recipes_fixed_diff(p, alpha, beta, gamma, forced_diff, flag):
    """Lift enumeration; forced_diff pins a-b (supersingular normal form)."""
    out = []
    c1 = gamma % (p - 1)
    # recipe 1: c fixed in [0, p-2], then b above c, then a above b
    for bt in _lifts_in_window(beta, c1, p):
        for at in _lifts_in_window(alpha, bt, p):
            if forced_diff is not None and at - bt != forced_diff:
                continue
            if flag == TRES and at - bt != p:
                continue
            out.append((WeightTriple.normalize(p, at - 2, bt - 1, c1), 1, (at, bt, c1)))
    # recipe 2: b fixed in [0, p-2], then a above b, then c above a
    b2 = beta % (p - 1)
    for at in _lifts_in_window(alpha, b2, p):
        if forced_diff is not None and at - b2 != forced_diff:
            continue
        if flag == TRES and at - b2 != p:
            continue
        for ct in _lifts_in_window(gamma, at, p):
            out.append((WeightTriple.normalize(p, ct - 2, at - 1, b2), 2, (at, b2, ct)))
    return out


def predict_weights(data):
    """The set of predicted WeightTriples for the given inertial data."""
    return {t for t, _, _ in enumerate_weight_lifts(data)}


def predict_weights_by_recipe(data):
    """(recipe-1 set, recipe-2 set)."""
    lifts = enumerate_weight_lifts(data)
    return (
        {t for t, r, _ in lifts if r == 1},
        {t for t, r, _ in lifts if r == 2},
    )


def is_tame_generic(data):
    """No boundary congruence holds: pairwise differences of (a, b, c)
    avoid 0 and +-1 mod p-1.  Such data yields exactly four weights."""
    if data.kind != ORDINARY or data.flag != TAME:
        return False
    p = data.p
    for x, y in [(data.a, data.b), (data.b, data.c), (data.c, data.a)]:
        if (x - y) % (p - 1) in (0, 1, p - 2):
            return False
    return True


def predict_level_nebentype(data):
    """(N, nebentype) with N = N1*d and nebentype = chi0*chi1 mod N."""
    N = data.N1 * data.d
    if data.chi0 is None or data.chi1 is None:
        raise ValueError("level/nebentype prediction needs chi0 and chi1")
    eps = data.chi0.lift(N) * data.chi1.lift(N)
    return N, eps


def twisted_contragredient_data(data):
    """Inertial data of the twisted contragredient (inverse-transpose with a
    double cyclotomic twist): exponents (a, b, c) -> (2-b, 2-a, 2-c), niveau-2
    exponent m -> 2(p+1)-m, characters inverted, conductors unchanged."""
    p = data.p
    kwargs = dict(
        p=p,
        kind=data.kind,
        c=(2 - data.c) % (p - 1),
        d=data.d,
        N1=data.N1,
        flag=data.flag,
        chi0=None if data.chi0 is None else data.chi0.inverse(),
        chi1=None if data.chi1 is None else data.chi1.inverse(),
    )
    if data.kind == ORDINARY:
        kwargs["a"] = (2 - data.b) % (p - 1)
        kwargs["b"] = (2 - data.a) % (p - 1)
    else:
        kwargs["m"] = (2 * (p + 1) - data.m) % (p**2 - 1)
    return InertialData(**kwargs)
