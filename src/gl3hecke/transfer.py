"""Rank-3 Hecke operators on boundary symbol spaces and the attachment
characteristic-polynomial identity.

The operator for a prime l and k in {1,2,3} is assembled from the Levi
blocks psi1, psi2 of its right cosets, which heckegl3.hecke_orbit_action
returns as arrays: each representative contributes the scalar
chi0(psi1) * psi1^c times the chi1-twisted symbol action of psi2.  The
operator is linear in that coset sum, so cosets sharing a psi2 block are
grouped exactly: their scalars are added.  The operator is applied to
classes, and several ks of one prime are applied in one pass: the cosets of
all of them are grouped at once by psi2, their scalars added per k, one
SymbolSpace.semigroup_act call moves the classes by the distinct live psi2 of
all the ks, and each image, times its scalar for each k, is added into the
slice of that k.
run_transfer_checks makes one such pass per prime, for T(l,1), T(l,2) and
T(l,3) together, and not one for the whole window: a pass holds all its
images at once.  On (p,a,b,c,d,N1) = (11,4,0,1,5,133), window up to 47, the
per-prime passes stay under the 154 MB peak of building the datum, while
one pass over the 2,227 distinct psi2 of the whole window peaks at 301 MB.

Nothing is hand-simplified: the operators never use the closed-form
eigenvalues.  Those are written once, in expected_eigenvalues
(FrobeniusData.from_boundary builds on it), and run_transfer_checks
compares the measured eigenvalues with them.  T(l,3) has the single coset
diag(l,l,l), and its measured eigenvalue enters the attachment identity
together with those of T(l,1) and T(l,2).

The operators act over the scalar field F of the symbol space (see
linalg).  The eigenclass lives over the possibly larger field E its
eigenvalues generate, and eigenvalue_of moves it by linalg.extend_scalars:
its r_E F_p coordinate columns are classes over F, moved as one block, and
only their images are embedded in E.  The closed forms and Frobenius data
are evaluated in E, with chi0(l) and chi1(l) embedded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import is_prime
from .characters import DirichletCharacter
from .heckegl3 import hecke_orbit_action
from .linalg import eigenvalue, extend_scalars, matmul_mod
from .modsym2 import EigenSystem, SymbolSpace, find_eigensystems


@dataclass
class BoundaryDatum:
    """Everything needed to run the eigenvalue transfer at one boundary
    stratum: the symbol space at level N1 = N/d with its eigenclass, the
    exponent c, and chi0, the factor of the character that the space's chi1
    does not carry.  p, the weight (a, b), N1 and chi1 are the space's.
    eigen may be None for a datum that only builds operators.

    A datum checks its own fields when constructed: chi0 has modulus d, d is
    prime to p N1, as the level N = d N1 and heckegl3.hecke_orbit_action
    need, and the eigensystem is one of this space's."""

    c: int
    d: int
    chi0: DirichletCharacter
    space: SymbolSpace
    eigen: EigenSystem

    def __post_init__(self):
        _check_level(self.space.p, self.space.N, self.d, self.chi0)
        if self.eigen is not None and self.eigen.space is not self.space:
            raise ValueError("the eigensystem is not one of the datum's space")

    @property
    def N(self):
        return self.space.N * self.d

    @classmethod
    def build(cls, p, a, b, c, d, N1, chi0=None, chi1=None, window=(2,), lambdas=None):
        """Construct the symbol space at level N1 over chi1's field (F_p by
        default), locate the eigensystem with the given lambda fingerprint
        (or the first one), and package the datum.  The datum's own checks
        on the window, chi0 and d run first, before any space is built."""
        unsearched = sorted(set(lambdas or ()) - set(window))
        if unsearched:
            raise ValueError("l = %d is not in the datum's window %s" % (unsearched[0], tuple(sorted(window))))
        for l in window:
            if not is_prime(l):
                raise ValueError("l = %d in the window is not prime" % l)
            if (p * N1) % l == 0:
                raise ValueError("l = %d in the window is not prime to p * N1 = %d" % (l, p * N1))
        _check_level(p, N1, d, chi0)
        space = SymbolSpace(N1, p, a, b, chi1=chi1)
        chi0 = DirichletCharacter.trivial(space.field, d) if chi0 is None else chi0.over(space.field)
        systems = find_eigensystems(space, list(window))
        if not systems:
            raise ValueError("no eigensystem found in the window")
        matches = [s for s in systems if all(s.lambdas[l] == s.field.from_int(x) for l, x in (lambdas or {}).items())]
        if not matches:
            raise ValueError("no eigensystem matches the requested eigenvalues")
        return cls(c=c, d=d, chi0=chi0, space=space, eigen=matches[0])


def _check_level(p, N1, d, chi0):
    """Raise ValueError unless chi0 (None: not yet chosen) has modulus d and
    d is prime to p N1."""
    if chi0 is not None and chi0.modulus != d:
        raise ValueError("chi0 must have modulus d")
    if gcd(d, p * N1) != 1:
        raise ValueError("d = %d must be prime to p * N1 = %d" % (d, p * N1))


def gl3_hecke_on_boundary(datum, l, k, V):
    """T(l,k) V for V one class (dim, r) or a block of classes as columns
    (dim, n, r) over the space's field, from the per-coset Levi blocks.  k
    is one k, and the image has the shape of V, or a sequence of ks, and
    the images are stacked along a first axis, one per k, as semigroup_act
    stacks its matrices; one k is the one-element case of the same pass.

    One hecke_orbit_action call gives the cosets of all the ks, each
    tagged with its k's slot.  Every psi2 lies in the level-N1 semigroup by
    the closed form (heckegl3._levi_blocks), and semigroup_act checks each
    one it moves V by.  The cosets of all the ks are then grouped at once
    by psi2, which is exact because each operator is linear in its coset
    sum: each coset's scalar chi0(psi1) * psi1^c is read from the table of
    chi0 and from a table of the c-th powers mod p, and added as a
    coordinate array into a (psi2, k) table with np.add.at.
    A psi2 is live when any of its sums is nonzero.  One
    space.semigroup_act call moves V by the live psi2, and one product adds
    each image, times its scalar for each k, into the slice of that k.

    All the images of the call are held at once, which is why
    run_transfer_checks stacks the ks of one prime and not the primes of its
    window (module docstring)."""
    space = datum.space
    p = space.p
    N, d = datum.N, datum.d
    if gcd(l, p * N) != 1:
        raise ValueError("l must be prime to p and the level")
    field = space.field
    ks = (k,) if np.ndim(k) == 0 else tuple(k)
    cosets = hecke_orbit_action(l, ks, N, d)
    # the coordinates of each coset's scalar chi0(psi1) * psi1^c: chi0 read
    # from its table, the power from a table mod p
    chi = datum.chi0.values[cosets.psi1 % datum.chi0.modulus]
    power = np.array([pow(u, datum.c % (p - 1), p) for u in range(p)], dtype=np.int64)
    scalars = chi * power[cosets.psi1 % p][:, None] % p
    # added up per (psi2, k), the psi2 rows grouped as opaque items (several
    # times faster than np.unique(rows, axis=0))
    blocks, block = np.unique(_opaque(cosets.psi2.reshape(-1, 4)), return_inverse=True)
    coef = np.zeros((len(blocks), len(ks), field.r), dtype=np.int64)
    np.add.at(coef, (block, cosets.slot), scalars)
    coef %= p
    live = coef.any(axis=(1, 2))
    V = np.asarray(V, dtype=np.int64)
    out = np.zeros((len(ks),) + V.shape, dtype=np.int64)
    if live.any():
        coef = coef[live]
        # the images of V under every live psi2
        images = space.semigroup_act(V, blocks[live].view(np.int64).reshape(-1, 2, 2))
        n, r = len(coef), field.r
        # out[i][x, s] = sum over psi2 g and t of images[g][x, t] M[g, i][s, t],
        # M[g, i] the multiplication matrix of coef[g, i]: one product over (g, t)
        M = field.mul_matrices(coef).transpose(0, 3, 1, 2).reshape(n * r, len(ks) * r)
        X = images.reshape(n, -1, r).swapaxes(0, 1).reshape(-1, n * r)
        out = matmul_mod(X, M, p).reshape(-1, len(ks), r).swapaxes(0, 1).reshape(out.shape)
    return out if np.ndim(k) else out[0]


def _opaque(rows):
    """The rows of the int64 array rows, each viewed as one opaque item."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def eigenvalue_of(datum, l, k):
    """The scalar by which T(l,k) acts on the eigenclass: exact, in the
    field E of the eigenclass, or None.  For a sequence of ks, the tuple of
    those scalars, from one gl3_hecke_on_boundary pass over all of them.
    T(l,k) stays over the space's field and moves the class by its F_p
    coordinate columns (linalg.extend_scalars)."""
    F, E, v = datum.space.field, datum.eigen.field, datum.eigen.vector
    ks = (k,) if np.ndim(k) == 0 else tuple(k)
    images = extend_scalars(lambda B: gl3_hecke_on_boundary(datum, l, ks, B), v, F, E)
    values = tuple(eigenvalue(Tv, v, E) for Tv in images)
    return values if np.ndim(k) else values[0]


def _character_values(datum, l):
    """chi0(l) and chi1(l), embedded in the field of the eigenclass."""
    field = datum.eigen.field
    return tuple(x.field.embed(x, field) for x in (datum.chi0(l), datum.space.chi1(l)))


def _lambda(datum, l):
    """The eigenclass's rank-2 eigenvalue at l, or ValueError when l was
    not in the window the datum was searched over."""
    lambdas = datum.eigen.lambdas
    if l not in lambdas:
        raise ValueError("l = %d is not in the datum's window %s" % (l, tuple(sorted(lambdas))))
    return lambdas[l]


def expected_eigenvalues(datum, l):
    """The closed-form oracle values for T(l,1) and T(l,2) on the class."""
    field = datum.eigen.field
    p = datum.space.p
    lam = _lambda(datum, l)
    lmod = field.from_int(l % p)
    chi0l, chi1l = _character_values(datum, l)
    (a, b), c = datum.space.weight, datum.c
    e1 = lmod * lam + chi0l * field.from_int(pow(l, c % (p - 1), p))
    e2 = chi1l * field.from_int(pow(l, (a + b + 2) % (p - 1), p)) + chi0l * field.from_int(
        pow(l, c % (p - 1), p)
    ) * lam
    return e1, e2


@dataclass
class FrobeniusData:
    """Characteristic-polynomial data of the three-dimensional mod-p
    representation at a prime l: det(I - rho(Frob_l) X) = 1 - c1 X + c2 X^2
    - c3 X^3."""

    l: int
    c1: object
    c2: object
    c3: object

    @classmethod
    def from_boundary(cls, datum, l):
        """c1 and c2 / l are the expected eigenvalues of T(l,1) and T(l,2)."""
        e1, e2 = expected_eigenvalues(datum, l)
        field = datum.eigen.field
        p = datum.space.p
        chi0l, chi1l = _character_values(datum, l)
        det = chi0l * chi1l * field.from_int(pow(l, (sum(datum.space.weight) + 3 + datum.c) % (p - 1), p))
        return cls(l=l, c1=e1, c2=field.from_int(l % p) * e2, c3=det)


def verify_attachment(frob, a1, a2, a3):
    """True iff 1 - a1 X + l a2 X^2 - l^3 a3 X^3 equals the characteristic
    polynomial coefficients of the Frobenius data, coefficientwise."""
    field = frob.c1.field
    l = field.from_int(frob.l % field.p)
    return (
        frob.c1 == a1
        and frob.c2 == l * a2
        and frob.c3 == l**3 * a3
    )


def twisted_contragredient(frob):
    """Frobenius data of the inverse-transpose twisted by the square of the
    cyclotomic character: (c1, c2, c3) -> (l^2 c2/c3, l^4 c1/c3, l^6/c3)."""
    if frob.c3.is_zero():
        raise ValueError("determinant coefficient must be invertible")
    field = frob.c1.field
    l = field.from_int(frob.l % field.p)
    return FrobeniusData(
        l=frob.l,
        c1=l**2 * frob.c2 / frob.c3,
        c2=l**4 * frob.c1 / frob.c3,
        c3=l**6 / frob.c3,
    )


def run_transfer_checks(datum, window):
    """Per-prime report: operator eigenvalues vs the closed forms, and the
    attachment identity on the measured T(l,1), T(l,2), T(l,3) eigenvalues,
    all three from one eigenvalue_of pass per prime.  Raises ValueError,
    before any operator is built, when a prime of the window was not
    searched."""
    primes = [l for l in window if gcd(l, datum.space.p * datum.N) == 1]
    for l in primes:
        _lambda(datum, l)
    report = []
    for l in primes:
        ev1, ev2, ev3 = eigenvalue_of(datum, l, (1, 2, 3))
        e1, e2 = expected_eigenvalues(datum, l)
        frob = FrobeniusData.from_boundary(datum, l)
        report.append(
            {
                "l": l,
                "t1_matches": ev1 is not None and ev1 == e1,
                "t2_matches": ev2 is not None and ev2 == e2,
                "attachment": None not in (ev1, ev2, ev3) and verify_attachment(frob, ev1, ev2, ev3),
            }
        )
    return report
