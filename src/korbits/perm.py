"""Permutations on 1-based points, cycle-notation parsing, and element
analysis (order, fixed points, prime-power structure)."""

import math
import re
from dataclasses import dataclass

from .errors import DomainError, ParseError


class Permutation:
    """A bijection on the points 1..n, stored as its image sequence
    (image of point i at index i-1). Immutable and hashable."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ParseError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    def __call__(self, v):
        return self.images[v - 1]

    def __mul__(self, other):
        """Composition self∘other: apply other first."""
        if self.degree != other.degree:
            raise DomainError("degree mismatch")
        im = self.images
        return Permutation(im[w - 1] for w in other.images)

    def inverse(self):
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def conjugate(self, g):
        """g * self * g^-1."""
        return g * self * g.inverse()

    def is_identity(self):
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self):
        """Cycle decomposition; fixed points omitted. Each cycle starts at
        its least point; cycles ordered by least point."""
        seen = [False] * self.degree
        out = []
        for s in range(1, self.degree + 1):
            if seen[s - 1]:
                continue
            cyc = [s]
            seen[s - 1] = True
            v = self(s)
            while v != s:
                cyc.append(v)
                seen[v - 1] = True
                v = self(v)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self):
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def fixed_points(self):
        return frozenset(i + 1 for i, v in enumerate(self.images) if v == i + 1)

    def cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, n={self.degree})"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return self._hash


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text, degree):
    """Parse cycle notation "(1 2 3)(4 5)" or image notation "[2,3,1]".

    Points not mentioned in cycles are fixed. "()" is the identity.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation text")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"malformed image notation: {text!r}")
        body = text[1:-1].strip()
        parts = [p for p in re.split(r"[\s,]+", body) if p] if body else []
        try:
            images = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer point in {text!r}") from None
        if len(images) != degree:
            raise ParseError(f"image notation lists {len(images)} points, degree is {degree}")
        if any(v < 1 or v > degree for v in images):
            raise ParseError(f"point out of range 1..{degree} in {text!r}")
        if len(set(images)) != degree:
            raise ParseError(f"repeated point in {text!r}")
        return Permutation(images)

    stripped = text.replace(" ", "")
    if _CYCLE_RE.sub("", stripped) != "":
        raise ParseError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen = set()
    for body in _CYCLE_RE.findall(text):
        parts = [p for p in re.split(r"[\s,]+", body.strip()) if p]
        try:
            pts = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer point in cycle ({body})") from None
        if not pts:
            continue
        for v in pts:
            if v < 1 or v > degree:
                raise ParseError(f"point {v} out of range 1..{degree}")
            if v in seen:
                raise ParseError(f"repeated point {v} in {text!r}")
            seen.add(v)
        for i, v in enumerate(pts):
            images[v - 1] = pts[(i + 1) % len(pts)]
    return Permutation(images)


def parse_permutation_at(text, degree, lineno):
    """parse_permutation of text on line `lineno` of a file; its
    ParseError names the line."""
    try:
        return parse_permutation(text, degree)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def content_lines(text):
    """(line number, content, line as read) of each line of a text file
    whose content, the line without its `#` comment, is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, raw


def parse_header(line, raw, lineno, form):
    """The positive integer of a file's header line, whose `form` is
    "degree n" or "arity k"; `line` is `raw`, the line as read, without
    its comment."""
    word = form.split()[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != word:
        raise ParseError(f"line {lineno}: expected '{form}', got {raw!r}")
    try:
        value = int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: bad {word} {parts[1]!r}") from None
    if value < 1:
        raise ParseError(f"line {lineno}: {word} must be positive")
    return value


def _factorize(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@dataclass(frozen=True)
class ElementAnalysis:
    """Order, fixed points and prime-power structure of one permutation.

    prime_power_split holds, for each prime p dividing the order, the
    triple (p, m, d) with order = p^m * d and gcd(p, d) = 1.
    """

    order: int
    fixed_points: frozenset
    is_fpf: bool
    prime_power_split: tuple

    @property
    def is_prime_power(self):
        return len(self.prime_power_split) == 1 and self.prime_power_split[0][2] == 1

    @property
    def is_fpf_prime_power(self):
        return self.is_fpf and self.is_prime_power


def analyze_element(g):
    order = g.order()
    fixed = g.fixed_points()
    fac = _factorize(order) if order > 1 else {}
    split = tuple((p, m, order // p ** m) for p, m in sorted(fac.items()))
    return ElementAnalysis(
        order=order,
        fixed_points=fixed,
        is_fpf=(not fixed) and order > 1,
        prime_power_split=split,
    )
