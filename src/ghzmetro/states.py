"""Construction and representation of n-qubit GHZ-diagonal states.

A GHZ-diagonal state is a mixture of the generalized GHZ projectors built
from ``|phi_i^+-> = (|i> +- |i_bar>)/sqrt(2)``, where ``i_bar`` is the
bitwise complement of the n-bit string ``i``.  In the computational basis
such a state has support only on the main diagonal and the antidiagonal,
with

    rho[i, i] = rho[i_bar, i_bar] = (lambda_i^+ + lambda_i^-) / 2
    rho[i, i_bar]                 = (lambda_i^+ - lambda_i^-) / 2

Sectors are keyed on representative indices ``i < 2**(n-1)`` (the n-bit
pattern of a representative starts with 0); ``2**n - 1 - i`` labels the
same two-dimensional sector.  ``GhzDiagonalState`` stores a sparse sector
table; ``BandState`` stores one weight pair per populated band, 0..k+m for
a family member.  Each state builds and checks its class table once, at
construction; formulas read it through ``classes()``, so they run on the
band classes at any n.  ``sectors()`` lists the populated sectors one by
one from each type's walk ``_sector_classes()`` of (sector, class) pairs.
All eigenvalues are exact rationals, held as integer rows (s, d) over one
denominator per state, and both readers yield those rows, so every
closed-form quantity is tolerance-free.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from fractions import Fraction
from itertools import accumulate, chain

from . import DomainError, SizeLimitError


def canonical_index(r: int, n: int) -> int:
    """Map a raw index r in [0, 2^n) to its sector representative min(r, 2^n-1-r)."""
    if not 0 <= r < (1 << n):
        raise DomainError(f"index {r} outside [0, 2^{n})")
    return min(r, (1 << n) - 1 - r)


def _check_representative(i: int, n: int) -> None:
    if not 0 <= i < (1 << (n - 1)):
        raise DomainError(
            f"index {i} out of representative range [0, 2^{n - 1}) for n = {n}"
        )


def weight(n: int, i: int) -> int:
    """Zero-count minus one-count of the n-bit pattern of representative i.

    This is the relative phase speed of sector i under rotations generated by
    half the total sigma_z; it can be negative for representatives whose bit
    pattern holds more ones than zeros.
    """
    _check_representative(i, n)
    return n - 2 * i.bit_count()


def _binomial_row(n: int, top: int) -> list:
    """[C(n, 0), ..., C(n, top)] by C(n, j+1) = C(n, j) (n - j) / (j + 1), exactly."""
    return list(accumulate(range(top), lambda c, j: c * (n - j) // (j + 1), initial=1))


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("sector eigenvalues must be exact rationals, not floats")
    return Fraction(x)


class _Record:
    """Frozen record, as a frozen dataclass behaves but cheaper to import.

    The fields are the annotations of the class and its bases in MRO order.
    ``__init__`` takes every field, by position or keyword, and calls
    ``__post_init__``; afterwards nothing can be assigned or deleted.
    Equality (between records of one class) and hash are those of the fields.
    """

    _fields = ()  # set on each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys(name for klass in reversed(cls.__mro__)
                                          for name in vars(klass).get("__annotations__", {})))

    def __init__(self, *args, **kwargs):
        cls, given = type(self), dict(zip(self._fields, args))
        if len(args) > len(given) or given.keys() & kwargs or kwargs.keys() - set(self._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(self._fields)}")
        given.update(kwargs)
        for name in self._fields:
            if name not in given:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            object.__setattr__(self, name, given[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


class SectorState(_Record):
    """Reads shared by both state types.  Each type's ``_normalize()`` checks
    its fields and returns its classes ``(representative, multiplicity,
    lambda^+, lambda^-)``, ascending.  Construction stores each as the integer
    row ``(representative, multiplicity, s, d)`` over ``den``, the lcm of the
    weights' distinct denominators, each divided into it once, with s / den =
    lambda^+ + lambda^- and d / den = lambda^+ - lambda^-, and checks the
    trace.  ``classes()`` yields the stored rows.  A class's sectors are
    related by a qubit permutation and share s and d; the lowest is the
    representative.  Each type walks its populated sectors i, ascending, in
    ``_sector_classes()``, as pairs ``(i, c)``, c the index of i's class row.
    """

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need at least 2 qubits, got n = {self.n}")
        rows = tuple(self._normalize())
        denominators = {x.denominator for row in rows for x in row[2:]}
        den = math.lcm(*denominators)
        scale = {q: den // q for q in denominators}
        ints = ([x.numerator * scale[x.denominator] for x in row[2:]] for row in rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_classes", tuple((rep, mult, p + q, p - q) for
                                                   (rep, mult, _, _), (p, q) in zip(rows, ints)))
        total = self.trace()
        if total != 1:
            raise DomainError(f"eigenvalues must sum to 1 exactly, got {total}")

    def classes(self) -> Iterator[tuple[int, int, int, int]]:
        return iter(self._classes)

    def trace(self) -> Fraction:
        return Fraction(sum(mult * s for _, mult, s, _ in self._classes), self.den)

    def sectors(self) -> Iterator[tuple[int, int, int]]:
        """Rows ``(i, s_i, d_i)`` over ``den`` of the populated sectors, ascending i."""
        rows = [(s, d) for _, _, s, d in self._classes]
        return ((i, *rows[c]) for i, c in self._sector_classes())


class GhzDiagonalState(SectorState):
    """Exact eigenvalue table of an n-qubit GHZ-diagonal state, sector by sector.

    ``lambda_plus[i]`` / ``lambda_minus[i]`` are the weights of the even and
    odd GHZ projectors of sector i; missing representatives carry weight 0.
    The table must be nonnegative and sum to exactly 1.  Each populated
    sector is its own class, with multiplicity 1.
    """

    n: int
    lambda_plus: Mapping[int, Fraction]
    lambda_minus: Mapping[int, Fraction]

    def _normalize(self) -> Iterator[tuple[int, int, Fraction, Fraction]]:
        for name in ("lambda_plus", "lambda_minus"):
            table = {i: _as_fraction(v) for i, v in getattr(self, name).items()}
            for i, v in table.items():
                _check_representative(i, self.n)
                if v < 0:
                    raise DomainError(f"negative eigenvalue {v} at sector {i}")
            # canonical sparse storage: zero entries and missing entries coincide
            object.__setattr__(self, name, {i: v for i, v in table.items() if v})
        lp, lm = self.lambda_plus, self.lambda_minus
        return ((i, 1, lp.get(i, 0), lm.get(i, 0)) for i in sorted(lp.keys() | lm.keys()))

    def _sector_classes(self) -> Iterator[tuple[int, int]]:
        """Stored entries are nonzero and nonnegative, so the populated sectors
        are exactly the keys of the two tables, each its own class; the walk
        costs O(support), not O(2^(n-1))."""
        return ((i, c) for c, (i, _, _, _) in enumerate(self._classes))


SECTOR_LIST_LIMIT = 20  # qubit cap of listing a band state's sectors one by one


class BandState(SectorState):
    """GHZ-diagonal state that depends on a sector only through its band.

    ``plus[b]`` / ``minus[b]`` are the even and odd weights of every sector
    on band b = 0..t, the smaller one-count min(c, n - c) of its two strings;
    construction drops trailing bands whose two weights are zero, and the
    bands above t are empty.  No qubit permutation changes a band, so the
    state is invariant under all of them.
    Its classes are the popcounts c <= t and n - t <= c < n: representative
    ``(1 << c) - 1``, multiplicity C(n-1, c), band min(c, n-c).  Every family
    member is stored this way, and only the sector walk lists sectors one by one.
    """

    n: int
    plus: tuple[Fraction, ...]
    minus: tuple[Fraction, ...]

    def _normalize(self) -> Iterator[tuple[int, int, Fraction, Fraction]]:
        n = self.n
        plus, minus = (tuple(map(_as_fraction, table)) for table in (self.plus, self.minus))
        if not 1 <= len(plus) == len(minus) <= n // 2 + 1 or min(plus + minus) < 0:
            raise DomainError(f"need 1..{n // 2 + 1} pairs of nonnegative band weights, n = {n}")
        t = max((b for b in range(len(plus)) if plus[b] or minus[b]), default=0)
        object.__setattr__(self, "plus", plus[:t + 1])
        object.__setattr__(self, "minus", minus[:t + 1])
        mult = _binomial_row(n - 1, t)  # C(n-1, c) = C(n-1, n-1-c)
        rows = ((c, plus[min(c, n - c)], minus[min(c, n - c)])
                for c in chain(range(t + 1), range(max(t + 1, n - t), n)))
        return (((1 << c) - 1, mult[min(c, n - 1 - c)], p, q)
                for c, p, q in rows if p or q)

    def _sector_classes(self) -> Iterator[tuple[int, int]]:
        """Each sector's class is its popcount's.  Refused above
        ``SECTOR_LIST_LIMIT`` qubits when called, before any sector is listed."""
        if self.n > SECTOR_LIST_LIMIT:
            raise SizeLimitError(f"listing the sectors one by one needs "
                                 f"n <= {SECTOR_LIST_LIMIT}, got n = {self.n}")
        index = [None] * self.n  # popcount -> class
        for c, (rep, _, _, _) in enumerate(self._classes):
            index[rep.bit_count()] = c
        return ((i, c) for i in range(1 << (self.n - 1))
                if (c := index[i.bit_count()]) is not None)


# -- reference states -------------------------------------------------------


def ghz_state(n: int) -> BandState:
    """Pure n-qubit GHZ state: all weight on the even projector of sector 0."""
    return BandState(n, (1,), (0,))


def maximally_mixed_state(n: int) -> BandState:
    w = (Fraction(1, 1 << n),) * (n // 2 + 1)
    return BandState(n, w, w)


# -- the binomial families ---------------------------------------------------


FAMILY_BIT_LIMIT = 1 << 27  # bits of (k + m + 1) binomial or class rows of n bits each


def _check_family(n: int, k: int, m: int) -> None:
    """Parameters with k+m > n/2 would make the table sum to less than 1 (the
    required bands do not exist) and are rejected rather than renormalized.
    A member whose rows would pass ``FAMILY_BIT_LIMIT`` is refused before
    any row is built."""
    if m < 0:
        raise DomainError(f"mixing width must be >= 0, got m = {m}")
    if k < 1 or 2 * k > n:
        raise DomainError(f"need 1 <= k <= n/2, got k = {k} for n = {n}")
    if 2 * (k + m) > n:
        raise DomainError(f"mixing range {k}..{k + m} is not normalizable for n = {n}: "
                          "need k + m <= n/2")
    if (k + m + 1) * n > FAMILY_BIT_LIMIT:
        raise SizeLimitError(f"rho_{n},{k},{m} needs (k + m + 1) * n = {(k + m + 1) * n} "
                             f"bits of rows, more than {FAMILY_BIT_LIMIT} (2^27)")


def build_rho_nk(n: int, k: int) -> BandState:
    """Noisy GHZ-diagonal family member with ones-threshold k.

    Sectors whose band (smaller one-count) is below k carry the full weight
    ``lam = 1 / sum_{j<=k} C(n,j)`` on the even projector only; sectors on
    band k are equal even/odd mixtures.  When 2k == n the band-k sectors
    each absorb the weight of two index strings (the two members of the
    sector both sit on the band), which is what keeps the trace at exactly 1.
    This is the width-0 member of ``build_rho_nkm``.
    """
    return build_rho_nkm(n, k, 0)


def build_rho_nkm(n: int, k: int, m: int) -> BandState:
    """Wider-mixing family: bands k..k+m mixed, bands below k pure-even.

    The normalizer is ``1 / sum_{j<=k+m} C(n,j)``; m = 0 is ``build_rho_nk``.
    """
    _check_family(n, k, m)
    lam = Fraction(1, sum(_binomial_row(n, k + m)))
    mixed = tuple(lam if 2 * b == n else lam / 2 for b in range(k, k + m + 1))
    return BandState(n, (lam,) * k + mixed, (0,) * k + mixed)
