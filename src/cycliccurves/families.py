"""Concrete curve families with a large cyclic automorphism group.

Five families are modeled, each a curve of genus g >= 2 carrying a
cyclic automorphism group of order N >= 2g + 1:

  * Kummer        y^N = x^r (1-x)^s           N coprime to char, tame
  * Hyperelliptic y^2 = (x^(g+1)-1)(x^(g+1)-lambda),  N = 2g + 2, tame
  * ASPower       y^p - y = a(x^m - b)        N = p*m, wild
  * ASRational    b*y^p + c*y = a*x + 1/x     N = 2p,  wild
  * Homma         y^p - y = x^2               N = p,   wild

Each family is one immutable class, the one place its equation and
generator are stated (Kummer is a tuple, its own `PrimitivePair`; the
others are frozen dataclasses): invariants (`n`, the group order, and
`genus`); its branch of the classification (`branch`, `wild`), its
short orbits with their stabilisers' filtrations (`ramification`) and,
but for Kummer, its models of genus g in characteristic p
(`of_genus`); the curve as lhs(y) = rhs(x) over one finite field, with
preconditions, x-domain, the fibre sizes of lhs and the places the
affine points do not give (`equation`); the generator on affine
points, which finds its root of unity in the field (`point_map`,
`affine_fixed`); and the command-line spec `name:field,...` (`name`,
`spec_fields`).
Classification, counting, automorphism checks (`fforacle`) and spec
parsing (`cli`) are generic over these, so adding a family means adding
one class to `FAMILIES`.  The wild ones, b*y^p + c*y = f(x), share the
base `ArtinSchreier`: each lists its short or polar x-orbits (`places`),
from which one rule (Stichtenoth, Prop. 3.7.8) derives N, the genus and
the rational places over the poles of f, and `ramification.orbit_datum`,
the one constructor of orbit data, the filtration data; the base alone
refuses a genus below 2.

Models are field-agnostic value objects: parameters are either plain
integers (residues below p, base-p encodings of field elements in
[p, q)) or strings standing for symbolic parameters.  Only `equation`
and `point_map` see a field, the one they take as an argument;
`lifted` moves a model's coefficients into an extension field.

Constructors reject parameters that give genus < 2 or a zero coefficient.
"""

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Any, ClassVar

import numpy as np

from .intmath import is_int, is_prime
from .ramification import orbit_datum, tame_orbits, tame_signature

Param = int | str


class NotPrimitive(ValueError):
    """(r, s) is not a primitive exponent pair for the given N."""


class DegenerateModel(ValueError):
    """Parameters produce a curve of genus < 2 or a singular family."""


class PreconditionViolated(ValueError):
    """A model/field precondition fails (divisibility, zero parameter...)."""


class PrimitivePair(tuple):
    """Exponent pair (r, s) for y^n = x^r (1-x)^s.

    Requires ints with r, s >= 1, r + s <= n - 1 and gcd(r, s, n) = 1.
    `genus` is (n + 2 - gcd(n,r) - gcd(n,s) - gcd(n,r+s)) / 2, and
    `ramification` has gcd(n, r) places over x = 0 with stabiliser
    n/gcd(n, r), and so for s and r + s over 1 and infinity (`signature`
    is their view); both come once at construction from the same gcd
    triple that checks primitivity.  The pair is the immutable tuple
    (n, r, s, genus, ramification), whose last two follow from the first
    three.
    """

    __slots__ = ()
    n, r, s, genus, ramification = map(property, map(itemgetter, range(5)))
    signature = property(lambda pair: tame_signature(pair.ramification))

    def __new__(cls, n, r, s):
        if not (is_int(n) and is_int(r) and is_int(s)):
            raise NotPrimitive(f"(n, r, s)=({n!r}, {r!r}, {s!r}) must be ints")
        if r < 1 or s < 1 or r + s > n - 1:
            raise NotPrimitive(f"(r, s)=({r}, {s}) outside range for n={n}")
        a, b, c = gcd(n, r), gcd(n, s), gcd(n, r + s)
        if gcd(a, b) != 1:
            raise NotPrimitive(f"gcd(r, s, n) != 1 for ({r}, {s}) mod {n}")
        total = n + 2 - a - b - c
        assert total % 2 == 0, (n, r, s)
        return tuple.__new__(cls, (n, r, s, total // 2, tame_orbits(
            n, tuple(sorted((n // a, n // b, n // c))))))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, r={self.r}, s={self.s})"


def kummer_genus(n: int, r: int, s: int) -> int:
    """Genus of y^n = x^r (1-x)^s for a primitive pair."""
    return PrimitivePair(n, r, s).genus


# ---------------------------------------------------------------------------
# equations over a finite field


def _require(cond, msg):
    if not cond:
        raise PreconditionViolated(msg)


def _bind(value, fld):
    """Resolve an integer model parameter to an element of `fld`, as the
    field represents it (`element`): values below p are prime-subfield
    residues, values in [p, q) base-p encodings.  Every constant of an
    equation enters through here, so one statement serves a field and
    its `LogView`."""
    if not isinstance(value, int):
        raise PreconditionViolated(
            f"symbolic parameter {value!r} cannot be evaluated in a field")
    if value < fld.p:
        return fld.element(value % fld.p)
    if value < fld.q:
        return fld.element(value)
    raise PreconditionViolated(
        f"parameter {value} outside field of size {fld.q}")


def _is_zero_residue(value, p):
    # integers in [p, q) are base-p encodings of nonzero elements
    return isinstance(value, int) and value < p and value % p == 0


# The two left sides, each with its fibre rule: the number of y in the
# field with lhs(y) = v, in closed form.

def _power_lhs(fld, n):
    """y^n: a nonzero v has gcd(n, q-1) n-th roots when it is an n-th
    power and none otherwise."""
    return (lambda y: fld.pow(y, n)), (lambda v: fld.num_nth_roots(v, n))


def _kernel_root(fld, b, c):
    """A nonzero root lam of b*Y^p + c*Y, lam^(p-1) = -c/b, or None; the
    roots are then lam * F_p."""
    return fld.nth_root(fld.mul(fld.neg(c), fld.inv(b)), fld.p - 1)


def _additive_lhs(fld, b, c):
    """b*y^p + c*y, F_p-linear (Artin-Schreier y^p - y at b = 1, c = -1).
    With a kernel root lam, y = lam*z turns it into -c*lam*(z^p - z), so
    v has p preimages where Tr(v/(c*lam)) = 0 and none otherwise (Tr is
    F_p-linear, so prime-field factors of v do not move its zeros);
    without one the map is a bijection and every v has one preimage."""
    p = fld.p
    lam = _kernel_root(fld, b, c)

    def lhs(y):
        return fld.add(fld.mul(b, fld.pow(y, p)), fld.mul(c, y))
    if lam is None:
        return lhs, np.ones_like
    # w = 1/(c*lam), once per equation, and left out when in F_p, that
    # is, when w^p = w
    w = fld.inv(fld.mul(c, lam))
    scaled = (lambda v: v) if fld.pow(w, p) == w else (
        lambda v: fld.mul(w, v))
    return lhs, lambda v: np.where(fld.trace(scaled(v)) == 0, p, 0)


@dataclass(frozen=True)
class Equation:
    """A family's affine model lhs(y) = rhs(x), bound to one field.

    `lhs`, `rhs` and `fibre` take numpy arrays of field elements and
    evaluate every element in one call.  `fibre(v)` is the number of y
    with lhs(y) = v.  `extra` is the number of rational places of the
    smooth model beyond the affine points: the places at infinity and
    over `missing_x` (x values outside the affine model), less any
    affine points that are not places of their own.
    """

    fld: Any
    lhs: Callable[[np.ndarray], np.ndarray]
    fibre: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[[np.ndarray], np.ndarray]
    extra: int
    missing_x: tuple = ()

    def affine_xs(self, lo=0, hi=None):
        """The x values of the affine model at positions [lo, hi) of the
        field's enumeration (`elements`), the whole field by default,
        less the `missing_x` (encodings): the element e sits at position
        min(e, q - 1)."""
        fld = self.fld
        xs = fld.elements(lo, hi)
        at = (min(fld.element(x), fld.q - 1) - lo for x in self.missing_x)
        missing = [i for i in at if 0 <= i < len(xs)]
        return np.delete(xs, missing) if missing else xs


# ---------------------------------------------------------------------------
# the families


class CurveModel:
    """Base class for the tagged union of curve families.

    A model is its own classification entry.  Its read-only attributes
    are `n`, the order of its cyclic group, `genus`, `ramification`,
    every short orbit over the x-line (quotient genus 0): its size and
    its stabiliser's lower-numbering filtration, in the tame form p = 0
    where the family does not fix p, and `signature`, a tame model's
    type read off them (None for a wild one).  `model` is the model
    itself, so code that read an entry's model reads it unchanged.
    """

    __slots__ = ()  # so that a slotted family has no instance dict

    name: ClassVar[str]  # spec keyword
    branch: ClassVar[str]  # classification branch
    wild: ClassVar[bool] = False  # p divides the group order
    spec_fields: ClassVar[tuple[str, ...]]  # spec parameters, in order
    coefficients: ClassVar[int] = 0  # trailing spec fields: field elements
    affine_fixed: ClassVar[tuple] = ()  # affine points the generator fixes
    model = property(lambda model: model)
    signature = property(lambda model: None if model.wild
                         else tame_signature(model.ramification))

    def spec_values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.spec_fields)

    @classmethod
    def of_genus(cls, p: int, g: int):
        """Yield the symbolic models of genus g in characteristic p (0 or
        an odd prime); Kummer's are found by classify's pair search."""
        raise NotImplementedError

    def equation(self, fld) -> Equation:
        """The curve over `fld`, its parameters read in `fld`.  Raises
        PreconditionViolated where the model is not defined or not
        smooth over `fld`."""
        raise NotImplementedError

    def lifted(self, src, fld):
        """This model with its coefficients read in `src` and moved into
        its extension `fld`; the model itself when the two are one field."""
        if fld.q == src.q:
            return self
        values = self.spec_values()
        k = len(values) - self.coefficients
        return type(self)(*values[:k], *(fld.lift_from(_bind(v, src), src)
                                         for v in values[k:]))

    def point_map(self, fld) -> Callable:
        """The generator, of order `n`, on affine points over `fld`;
        PreconditionViolated if `fld` lacks its root of unity."""
        raise NotImplementedError


class Kummer(PrimitivePair, CurveModel):
    """y^n = x^r (1-x)^s with (r, s) a primitive pair of genus >= 2: one
    object that is the model, its entry and its pair (`pair`)."""

    __slots__ = ()
    name = "kummer"
    branch = "I-Kummer"
    spec_fields = ("n", "r", "s")
    affine_fixed = ((0, 0), (1, 0))
    pair = property(lambda model: model)

    def __new__(cls, n, r, s):
        model = super().__new__(cls, n, r, s)
        if model.genus < 2:
            raise DegenerateModel(f"{model!r} has genus {model.genus} < 2")
        return model

    def equation(self, fld):
        n, r, s = self[:3]
        _require(n % fld.p, f"p={fld.p} divides n={n}; y^n = x^r(1-x)^s is "
                 "purely inseparable over the x-line here")
        # Over x = 0, 1 and infinity the rational places correspond to
        # the roots in F_q of z^d = u, where d is gcd(n, ord) and u is
        # the value of the local unit part: 1 over x = 0 and (-1)^s over
        # x = 1 and infinity, in place of the affine (0, 0) and (1, 0).
        one = _bind(1, fld)
        minus_one_s = fld.neg(one) if s % 2 else one
        extra = int(fld.num_nth_roots(one, gcd(n, r))
                    + fld.num_nth_roots(minus_one_s, gcd(n, s))
                    + fld.num_nth_roots(minus_one_s, gcd(n, r + s))) - 2
        return Equation(
            fld, *_power_lhs(fld, n),
            rhs=lambda x: fld.pow_product(x, r, fld.sub(one, x), s),
            extra=extra)

    def point_map(self, fld):
        zeta = fld.element_of_order(self.n)
        return lambda pt: (pt[0], fld.mul(zeta, pt[1]))


@dataclass(frozen=True)
class Hyperelliptic(CurveModel):
    """y^2 = (x^(g+1) - 1)(x^(g+1) - lam), g even, lam outside {0, 1}."""

    name = "hyper"
    branch = "I-Hyperelliptic"
    spec_fields = ("g", "lam")
    coefficients = 1

    g: int
    lam: Param

    def __post_init__(self):
        if not is_int(self.g) or self.g < 2 or self.g % 2:
            raise DegenerateModel(f"genus {self.g!r} is not an even int >= 2")
        if isinstance(self.lam, int) and self.lam in (0, 1):
            raise DegenerateModel(f"lambda={self.lam} degenerates the family")

    genus = property(lambda model: model.g)
    n = property(lambda model: 2 * model.g + 2)
    # stabilisers: 2 at the roots of each factor of the right side,
    # g + 1 at the places over x = 0 and over infinity
    ramification = property(lambda model: tame_orbits(
        model.n, (2, 2, model.g + 1, model.g + 1)))

    @classmethod
    def of_genus(cls, p, g):
        # the group order 2g + 2 must be prime to p
        if g % 2 == 0 and (p == 0 or (2 * g + 2) % p):
            yield cls(g, "lambda")

    def equation(self, fld):
        lam, one = _bind(self.lam, fld), _bind(1, fld)
        _require(lam not in (_bind(0, fld), one),
                 f"lambda={self.lam} is 0 or 1 in field")
        _require((self.g + 1) % fld.p != 0,
                 f"p={fld.p} divides g+1; family is singular here")
        e = self.g + 1

        def rhs(x):
            xe = fld.pow(x, e)
            return fld.mul(fld.sub(xe, one), fld.sub(xe, lam))

        # degree 2g + 2 with a square leading coefficient: two places
        # at infinity
        return Equation(fld, *_power_lhs(fld, 2), rhs=rhs, extra=2)

    def point_map(self, fld):
        zeta = fld.element_of_order(self.g + 1)
        return lambda pt: (fld.mul(zeta, pt[0]), fld.neg(pt[1]))


class ArtinSchreier(CurveModel):
    """b*y^p + c*y = f(x), p an odd prime; `sides` reads b, c and f in a
    field.  `places()` gives (e, m) per short or polar x-orbit: the order
    of its tame stabiliser, and that of each pole of f on it (0: none);
    N, the genus (at least 2) and the filtration data derive from it."""

    wild = True
    missing_x: ClassVar[tuple] = ()

    def __post_init__(self):
        if not is_int(self.p) or self.p == 2 or not is_prime(self.p):
            raise DegenerateModel(f"odd prime required, got {self.p!r}")
        if (g := self.genus) < 2:
            raise DegenerateModel(f"{self!r} has genus {g} < 2")

    @property
    def genus(self):
        # each pole of order m adds m + 1, t/e of them on an orbit, t = N/p
        p, t = self.p, self.n // self.p
        return (p - 1) * (sum(t // e * (m + 1) for e, m in self.places()
                              if m) - 2) // 2

    @property
    def n(self):
        # p times the order of the tame part, which fixes two x when > 1
        return self.p * max(e for e, _ in self.places())

    @property
    def ramification(self):
        p, n = self.p, self.n
        return tuple([orbit_datum(p, n, e, m) for e, m in self.places()])

    def equation(self, fld):
        _require(fld.p == self.p,
                 f"curve lives in characteristic {self.p}, field has {fld.p}")
        b, c, f = self.sides(fld)
        # one rational place over each pole, N/(e*p) poles on an orbit
        t = self.n // self.p
        return Equation(fld, *_additive_lhs(fld, b, c), rhs=f,
                        extra=sum(t // e for e, m in self.places() if m),
                        missing_x=self.missing_x)


@dataclass(frozen=True)
class ASPower(ArtinSchreier):
    """y^p - y = a(x^m - b) with m > 1 coprime to p and a nonzero."""

    name = "aspower"
    branch = "II-ASPower"
    spec_fields = ("p", "m", "a", "b")
    coefficients = 2

    p: int
    m: int
    a: Param
    b: Param

    def __post_init__(self):
        super().__post_init__()  # the genus floor refuses m < 2
        if not is_int(self.m) or gcd(self.m, self.p) != 1:
            raise DegenerateModel(f"m={self.m!r} must be an int coprime to p")
        if _is_zero_residue(self.a, self.p):
            raise DegenerateModel("coefficient a must be nonzero")

    def places(self):
        # x -> zeta*x fixes infinity, a pole of order m, and 0
        return ((self.m, self.m), (self.m, 0))

    @classmethod
    def of_genus(cls, p, g):
        # g = (p-1)(m-1)/2 solved for m
        if p and 2 * g % (p - 1) == 0:
            m = 2 * g // (p - 1) + 1
            if m > 1 and m % p:
                yield cls(p, m, "a", "b")

    def sides(self, fld):
        a, b, m = _bind(self.a, fld), _bind(self.b, fld), self.m
        return (_bind(1, fld), _bind(fld.p - 1, fld),
                lambda x: fld.mul(a, fld.sub(fld.pow(x, m), b)))

    def point_map(self, fld):
        zeta = fld.element_of_order(self.m)
        return lambda pt: (fld.mul(zeta, pt[0]), fld.add(pt[1], 1))


@dataclass(frozen=True)
class ASRational(ArtinSchreier):
    """b*y^p + c*y = a*x + 1/x with a, b, c nonzero."""

    name = "asrational"
    branch = "II-ASRational"
    spec_fields = ("p", "a", "b", "c")
    coefficients = 3
    missing_x = (0,)

    p: int
    a: Param
    b: Param
    c: Param

    def __post_init__(self):
        super().__post_init__()
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if _is_zero_residue(v, self.p):
                raise DegenerateModel(f"coefficient {name} must be nonzero")

    def places(self):
        # 1/(a*x) swaps the simple poles 0, infinity and fixes two x
        return ((1, 1), (2, 0), (2, 0))

    @classmethod
    def of_genus(cls, p, g):
        if p and g == p - 1:
            yield cls(p, "a", "b", "c")

    def sides(self, fld):
        a, b, c = (_bind(v, fld) for v in (self.a, self.b, self.c))
        return b, c, lambda x: fld.add(fld.mul(a, x), fld.inv(x))

    def point_map(self, fld):
        a, b, c = (_bind(v, fld) for v in (self.a, self.b, self.c))
        # lhs is additive, so y -> y + gamma preserves it when
        # lhs(gamma) = 0; gamma is the least nonzero such y
        lam = _kernel_root(fld, b, c)
        if lam is None:
            raise PreconditionViolated(
                "additive polynomial b*Y^p + c*Y has no nonzero root in field")
        gamma = int(fld.mul(lam, np.arange(1, fld.p)).min())
        return lambda pt: (fld.inv(fld.mul(a, pt[0])), fld.add(pt[1], gamma))


@dataclass(frozen=True)
class Homma(ArtinSchreier):
    """y^p - y = x^2, carrying a cyclic group of order exactly p."""

    name = "homma"
    branch = "III-Homma"
    spec_fields = ("p",)

    p: int

    def places(self):
        # the group fixes x; infinity is a pole of order 2
        return ((1, 2),)

    @classmethod
    def of_genus(cls, p, g):
        if p == 2 * g + 1:
            yield cls(p)

    def sides(self, fld):
        return _bind(1, fld), _bind(fld.p - 1, fld), lambda x: fld.mul(x, x)

    def point_map(self, fld):
        return lambda pt: (pt[0], fld.add(pt[1], 1))


FAMILIES = (Kummer, Hyperelliptic, ASPower, ASRational, Homma)
