"""Exact combinatorics of the semi-simplex category and Yoneda subfunctors.

Objects are ``[n] = {0..n}``; morphisms ``[k] -> [n]`` are strictly
increasing functions, and a map is its image, a (k+1)-subset of ``{0..n}``:
the j-th face of a map is its image with the j-th entry deleted, and
composing is indexing (``categories.semisimplex_category``).  A subfunctor
of the representable on ``[n]`` is a sieve: a downward-closed family of
subsets of ``{0..n}``, holding the maps whose images are its members;
``Sieve.cells`` lists them level by level.  A sieve is stored as one
integer with a bit for each of the 2^(n+1) subsets.  The central algorithm
factors the spine-into-horn inclusion as a chain of horn pushout steps, each
removing a maximal set ``S`` together with ``S\\{h}`` from the current
sieve.  Steps are generated and checked as masks: a step is the mask of S
and its pivot h, checked by one pass over the bits outside S that finds
the first failing check in their documented order, and makes one new
integer; no step builds a set.  A semi-simplicial set is a
``categories.SetDiagram`` over the semi-simplex category, and
``nat_transforms`` maps a sieve into one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .categories import SetDiagram
from .solver import solve

MAX_DIM = 12     # a sieve is an int of 2^(n+1) bits; guard the exponent


class DimensionError(ValueError):
    pass


def _check_dim(n: int):
    if n < 0:
        raise DimensionError(f"dimension must be non-negative, got {n}")
    if n > MAX_DIM:
        raise DimensionError(f"dimension {n} exceeds the cap {MAX_DIM}")


# ---------------------------------------------------------------------------
# Monotone maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonoMap:
    """A strictly increasing map [k] -> [n], stored as its image.  The image
    is taken as given: every map the package builds is a cell of a sieve
    or a face of one."""

    n: int
    image: tuple[int, ...]


def identity_map(n: int) -> MonoMap:
    return MonoMap(n, tuple(range(n + 1)))


# ---------------------------------------------------------------------------
# Sieves: the subfunctors of the representable on [n]
# ---------------------------------------------------------------------------

def _mask(s: Iterable[int]) -> int:
    """The bitmask of a subset of {0..n}: bit i is set when i is in it."""
    m = 0
    for i in s:
        m |= 1 << i
    return m


def _elements(m: int) -> list[int]:
    """The set bits of m in increasing order, read off its binary digits:
    the elements of the set with mask m, or the member masks of a sieve's
    bits."""
    return [i for i, b in enumerate(reversed(bin(m)[2:])) if b == "1"]


@dataclass(frozen=True)
class Sieve:
    """A subfunctor of the representable on [n], as a downward-closed family
    of subsets of {0..n}.

    A map [k] -> [n] is determined by its image, so the subfunctor holds
    exactly the maps whose image is a non-empty member; ``cells`` lists them.
    The family is one integer: bit ``m`` is set exactly when the subset with
    mask ``m`` is a member, so equality, order and horn removal are integer
    arithmetic and a copy is one int.  The constructor takes the bits as
    they are: each function below that makes a sieve shows that its bits
    are downward closed.
    """

    n: int
    bits: int

    @property
    def members(self) -> frozenset:
        """The family as a frozenset of frozensets, built on each read."""
        return frozenset(frozenset(_elements(m)) for m in _elements(self.bits))

    def cells(self) -> list[tuple[int, MonoMap]]:
        """The subfunctor level by level: ``(k, g)`` for each map
        g : [k] -> [n] whose image is a member, sorted by ``(k, image)``."""
        images = sorted((tuple(_elements(m)) for m in _elements(self.bits)
                         if m), key=lambda im: (len(im), im))
        return [(len(im) - 1, MonoMap(self.n, im)) for im in images]

    def __le__(self, other: "Sieve") -> bool:
        return self.n == other.n and not self.bits & ~other.bits


def full_subfunctor(n: int) -> Sieve:
    """The representable on [n]: every subset of {0..n}."""
    _check_dim(n)
    return Sieve(n, (1 << 2 ** (n + 1)) - 1)


def boundary_subfunctor(n: int) -> Sieve:
    """Every map into [n] but the identity, whose image {0..n} has the
    largest mask."""
    _check_dim(n)
    return Sieve(n, (1 << 2 ** (n + 1) - 1) - 1)


def zigzag_sieve(n: int) -> Sieve:
    """The spine: the vertices and the edges {i, i+1}."""
    _check_dim(n)
    # the empty set, the vertices {i} and the edges {i, i+1}, by their masks
    return Sieve(n, 1 | sum(1 << (1 << i) for i in range(n + 1))
                 | sum(1 << (3 << i) for i in range(n)))


def horn_sieve(n: int, k: int) -> Sieve:
    """Every map into [n] but the identity and the k-th face."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range for [{n}]")
    return horn_remove(full_subfunctor(n), frozenset(range(n + 1)), k)


def horn_remove(x: Sieve, s: Iterable[int], h: int) -> Sieve:
    """Remove S and S\\{h} from the sieve; a pushout of a horn inclusion."""
    s = frozenset(s)
    if not s <= frozenset(range(x.n + 1)):    # a set with no bit
        raise ValueError(f"{sorted(s)} is not a member of the sieve")
    return Sieve(x.n, _remove_step(x.bits, x.n, _mask(s), h))


def _remove_step(bits: int, n: int, m: int, h: int) -> int:
    """``horn_remove`` of the set with mask m on the bits of a sieve on
    [n]; returns the new bits.

    The checks run in their documented order, and the first that fails
    names the fault: S is a member, S is maximal, h is in S, S\\{h} lies
    below no other member.  The family is downward closed, so a member
    above S or S\\{h} shows as one set with a single element y outside S
    added, and one pass over the set bits of the complement tests both: it
    refuses the first y with S + y a member and only notes one with
    S\\{h} + y a member, which is refused after the pivot.  1 << h is
    built only once h is known to be in S, since h comes from the caller."""
    if not bits >> m & 1:             # a mask above [n] has no bit either
        raise ValueError(f"{_elements(m)} is not a member of the sieve")
    pivot = h >= 0 and m >> h & 1
    face = m ^ 1 << h if pivot else m
    above = bits >> m                 # bit y: S + y is a member
    near = above | bits >> face       # or S\{h} + y, when h is in S
    o = (1 << n + 1) - 1 ^ m
    closure = False
    while o:
        y = o & -o                    # {y} outside S, so m + y is m | y
        if near >> y & 1:
            if above >> y & 1:
                raise ValueError(f"{_elements(m)} is not maximal in the sieve")
            closure = True
        o ^= y
    if not pivot:
        raise ValueError(f"{h} is not an element of {_elements(m)}")
    if closure:
        raise ValueError(
            f"removing {_elements(m)} at {h} breaks downward closure: "
            f"{_elements(face)} still below another member")
    # Neither S nor S\{h} lies below a remaining member, so the rest stays
    # downward closed.
    return bits & ~(1 << m | 1 << face)


# ---------------------------------------------------------------------------
# The spine-through-horn factorization
# ---------------------------------------------------------------------------

class HornStep(NamedTuple):
    """One horn pushout: remove S and S\\{h}, with S held as its mask."""

    mask: int
    h: int

    @property
    def inner(self) -> bool:
        """h is in S and neither its least nor its greatest element."""
        m, h = self
        return h >= 0 and m >> h & 1 == 1 and m & -m < 1 << h and m >> h > 1

    def to_json(self) -> dict:
        return {"S": _elements(self.mask), "h": self.h, "inner": self.inner}


@dataclass
class Factorization:
    """A chain of horn pushouts from the horn sieve down to the zigzag.

    ``length`` is the number of removed subsets (simplices), which is twice
    the number of pushout steps: every step removes exactly two sets.
    ``bits`` holds the integer of every sieve of the chain, the horn first
    and the zigzag last, as ``factor_spine_to_horn`` computed them while
    validating the steps.
    """

    n: int
    k: int
    steps: list[HornStep]
    bits: list[int] = field(repr=False)

    @property
    def length(self) -> int:
        return 2 * len(self.steps)

    def sieves(self) -> list[Sieve]:
        """The chain of sieves that ``factor_spine_to_horn`` validated, one
        per step after the horn; no step is run again."""
        return [Sieve(self.n, b) for b in self.bits]

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "length": self.length,
                "steps": [s.to_json() for s in self.steps]}


class UnsupportedHorn(ValueError):
    """The spine is not contained in this horn, so no factorization exists."""

    def __init__(self, n: int, k: int, witness: frozenset):
        super().__init__(
            f"spine({n}) is not contained in horn({n},{k}): the spine cell "
            f"{sorted(witness)} is missing from the horn")
        self.n = n
        self.k = k
        self.witness = witness


def _interval_steps(a: int, b: int) -> list[HornStep]:
    """Steps reducing the principal sieve on [a,b] to its zigzag part: for
    each pivot j from a+1 to b-1, the sets of [j-1,b] with j internal."""
    return [HornStep(m, j) for j in range(a + 1, b)
            for m in _cosieve_order_interval(j - 1, b, j)]


def _cosieve_order_interval(a: int, b: int, j: int) -> list[int]:
    """The masks of the subsets S of [a,b] with j internal to S, largest
    first, then lex.

    S\\{j} is a combination of the other elements' bits with one below
    and one above j's, and its sum is its mask; removing the common j
    keeps the lex order, which the smallest element of a symmetric
    difference decides."""
    jb = 1 << j
    others = [1 << i for i in range(a, b + 1) if i != j]
    return [sum(c) | jb
            for r in range(b - a, 1, -1)
            for c in itertools.combinations(others, r)
            if c[0] < jb < c[-1]]


def factor_spine_to_horn(n: int, k: int) -> Factorization:
    """Factor the spine-into-horn inclusion through horn pushout steps.

    For an inner horn (0 < k < n) all steps are inner.  For k in {0, n}
    (with n >= 3) the chain follows the inner construction at the pivot
    n-1 (resp. 1), with the first step swapped so that it matches the
    outer horn.  For n = 1 and for the outer horns of n = 2 the spine is
    not contained in the horn at all and UnsupportedHorn is raised.
    Steps are generated and checked as masks.
    """
    start = horn_sieve(n, k)
    end = zigzag_sieve(n)
    if not end <= start:
        witness = min(end.members - start.members,
                      key=lambda s: tuple(sorted(s)))
        raise UnsupportedHorn(n, k, witness)
    full = (1 << n + 1) - 1
    if 0 < k < n:
        j, steps = k, []
    else:
        j = n - 1 if k == 0 else 1
        steps = [HornStep(full ^ 1 << j, k)]
    # full - {k} never has k internal, so this drops only `full` when inner
    drop = (full, full ^ 1 << k)
    steps += [HornStep(m, j) for m in _cosieve_order_interval(0, n, j)
              if m not in drop]
    steps += _interval_steps(0, j) + _interval_steps(j, n)
    bits = [start.bits]
    for m, h in steps:           # validates each step on one int
        bits.append(_remove_step(bits[-1], n, m, h))
    if bits[-1] != end.bits:
        raise AssertionError("factorization did not land on the zigzag sieve")
    return Factorization(n, k, steps, bits)


# ---------------------------------------------------------------------------
# Natural transformations into a semi-simplicial set
# ---------------------------------------------------------------------------

def nat_transforms(f: Sieve, x: SetDiagram) -> list[dict]:
    """All natural transformations from the subfunctor into X, a diagram
    on ``categories.semisimplex_category``.

    A transformation assigns to every cell (k, g) of F an element of
    X_k, commuting with the elementary cofaces: the j-th face of g is g
    with the j-th entry of its image deleted, and X acts on it along
    ``("m", k, image without j)``.  Cells are searched level by level; each
    face condition is checked when its level-k cell is assigned (see
    ``solver.solve``).
    """
    top = len(x.cat.objects) - 1
    if top < f.n:
        raise ValueError(
            f"semi-simplicial set truncated at {top} cannot receive "
            f"a subfunctor of dimension {f.n}")
    cells = f.cells()
    ids = [tuple(range(k + 1)) for k in range(f.n + 1)]
    constraints = [((k, g),
                    (k - 1, MonoMap(f.n, g.image[:j] + g.image[j + 1:])),
                    x.action[("m", k, ids[k][:j] + ids[k][j + 1:])])
                   for k, g in cells if k > 0 for j in range(k + 1)]
    return solve(cells, [x.values[k] for k, _ in cells], constraints)


def yoneda_bijection(n: int, x: SetDiagram) -> tuple[list[dict], dict]:
    """Nat(full representable, X) with its bijection onto X_n."""
    nats = nat_transforms(full_subfunctor(n), x)
    mapping = {i: t[(n, identity_map(n))] for i, t in enumerate(nats)}
    return nats, mapping
