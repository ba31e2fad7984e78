"""Formal sums of presentation classes, the bilinear product, and the
pairing into closed complexes, with certificate-backed cancellation.

Coefficients are exact: Python ints by default, fractions.Fraction when a
caller wants rationals.  No floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .moves import EquivalenceCertificate, script_from_json, script_to_json
from .presentations import (CanonicalKey, ClosedComplex, Presentation,
                            canonical_key, format_presentation,
                            parse_presentation, serialize_key)
from .words import LetterBudget, json_int


def _check_scalar(c):
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")
    return c


def _merge(pairs) -> dict:
    """The coefficients of (key, coefficient) pairs summed per key."""
    out: dict = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0) + coeff
    return out


class _ExactSum:
    """Finitely supported map from keys to exact nonzero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = dict(terms)
        for coeff in data.values():
            _check_scalar(coeff)
        self._terms = {k: c for k, c in data.items() if c != 0}

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms


class FormalSum(_ExactSum):
    """Formal sum of canonical keys of one rank."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms=()):
        terms = dict(terms)
        for key in terms:
            if key.rank != rank:
                raise ValueError(f"key of rank {key.rank} in a sum of rank {rank}")
        super().__init__(terms)
        self.rank = rank

    @classmethod
    def zero(cls, rank: int) -> "FormalSum":
        return cls(rank)

    @classmethod
    def of_presentation(cls, p: Presentation, coeff=1) -> "FormalSum":
        return cls(p.rank, {canonical_key(p): coeff})

    @property
    def support(self):
        return frozenset(self._terms)

    def __eq__(self, other):
        return super().__eq__(other) and self.rank == other.rank

    def _common_rank(self, other: "FormalSum") -> int:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} and {other.rank}")
        return self.rank

    def __add__(self, other: "FormalSum") -> "FormalSum":
        rank = self._common_rank(other)
        return FormalSum(rank, _merge([*self._terms.items(), *other._terms.items()]))

    def __neg__(self):
        return FormalSum(self.rank, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FormalSum":
        _check_scalar(c)
        return FormalSum(self.rank, {k: c * v for k, v in self._terms.items()})

    def dot(self, other: "FormalSum") -> "FormalSum":
        """Bilinear extension of the presentation product.

        At the key level the product of two classes is the merged relator
        class multiset on the common boundary, which is exactly the key of
        the product of any two representatives.
        """
        rank = self._common_rank(other)
        return FormalSum(rank, _merge(
            (CanonicalKey(rank, k1.classes + k2.classes), c1 * c2)
            for k1, c1 in self._terms.items() for k2, c2 in other._terms.items()))

    def bracket(self, other: "FormalSum") -> "ClosedSum":
        """Product followed by forgetting the boundary graph.  A key and its
        one-component closed complex determine each other, so no two terms
        meet."""
        return ClosedSum({ClosedComplex((key,)): coeff
                          for key, coeff in self.dot(other)._terms.items()})

    def __repr__(self):
        if not self._terms:
            return f"FormalSum(rank={self.rank}, 0)"
        bits = [f"{c}*[{len(k.classes)} rel]" for k, c in self.items()]
        return f"FormalSum(rank={self.rank}, {' + '.join(bits)})"


class ClosedSum(_ExactSum):
    """Formal sum over closed complexes (boundary forgotten)."""

    __slots__ = ()


def _root(parent: dict, key):
    """The root of key's class in the forest parent, which maps a key to
    another of its class and leaves a root out or mapped to itself; the
    path from key is then pointed straight at the root."""
    root = key
    while parent.get(root, root) != root:
        root = parent[root]
    while key != root:
        parent[key], key = root, parent[key]
    return root


def _reduce(x: FormalSum, certs, *more) -> tuple:
    """Verify each certificate once, at the rank of x, and sum the
    coefficients of x, and of each sum in more, over the key classes that
    the holding certificates join.  Returns the status rows (label, ok,
    message), labelled by list position where a certificate has no label,
    and the reduced sums in turn."""
    status, parent = [], {}
    for idx, cert in enumerate(certs):
        ok, msg = cert.verify()
        if ok and cert.lhs.rank != x.rank:
            ok, msg = False, "certificate rank differs from the sum"
        status.append((cert.label or str(idx), ok, msg))
        if ok:
            # the least key in serialization order is its class's root
            keep, drop = sorted((_root(parent, canonical_key(cert.lhs)),
                                 _root(parent, canonical_key(cert.rhs))),
                                key=CanonicalKey.sort_key)
            parent[drop] = keep
    return (status, *(FormalSum(x.rank, _merge((_root(parent, key), coeff)
                                               for key, coeff in s._terms.items()))
                      for s in (x, *more)))


@dataclass(frozen=True)
class NullVectorReport:
    null: bool
    trivial: bool  # x itself reduces to 0, every certificate holding
    certificate_status: tuple  # tuple[(label, ok, message), ...]
    residue: FormalSum

    @property
    def verdict(self) -> str:
        """yes only when every certificate holds, x.x reduces to 0 and x
        does not; the answer that verify-null and pipeline print."""
        return ("trivial (x reduces to 0 under these certificates)" if self.trivial
                else "yes" if self.null else "NO")

    def as_text(self) -> str:
        lines = []
        for label, ok, msg in self.certificate_status:
            lines.append(f"certificate {label}: {'ok' if ok else 'FAILED - ' + msg}")
        if self.residue.is_zero():
            lines.append("reduced self-product: 0")
        else:
            lines.append("surviving terms:")
            for key, coeff in self.residue.items():
                head = serialize_key(key).replace("\n", " | ")
                lines.append(f"  {coeff} * ({head})")
        lines.append(f"null vector: {self.verdict}")
        return "\n".join(lines)

    def as_json(self) -> dict:
        return {
            "null": self.null,
            "trivial": self.trivial,
            "certificates": [{"label": l, "ok": ok, "message": m}
                             for l, ok, m in self.certificate_status],
            "surviving_terms": [{"coeff": str(c), "key": serialize_key(k)}
                                for k, c in self.residue.items()],
        }


def verify_null(x: FormalSum, certs) -> NullVectorReport:
    """null iff the certificate-reduced self-product x.x is the empty sum;
    trivial iff x reduced by the same classes is too, so that x shows no
    null vector.

    Certificate failures are reported, excluded from the reduction, and
    force null and trivial to False.
    """
    status, residue, reduced = _reduce(x.dot(x), certs, x)
    holding = all(ok for _, ok, _ in status)
    return NullVectorReport(residue.is_zero() and holding, reduced.is_zero() and holding,
                            tuple(status), residue)


# ---------------------------------------------------------------------------
# Files: formal sums as JSON arrays of {coeff, presentation}; certificates
# as JSON with presentation blocks and a move script.


def sum_to_json(x: FormalSum, representatives) -> list:
    """Serialize with caller-chosen representatives (key -> Presentation):
    one entry per term and per representative, with coefficient 0 where x
    has no term, so that a zero sum keeps its rank."""
    out = []
    for key in sorted(x.support | set(representatives), key=CanonicalKey.sort_key):
        pres, coeff = representatives[key], x.coefficient(key)
        if canonical_key(pres) != key:
            raise ValueError("representative does not match its key")
        if isinstance(coeff, Fraction) and coeff.denominator != 1:
            coeff_repr = str(coeff)
        else:
            coeff_repr = int(coeff)
        out.append({"coeff": coeff_repr, "presentation": format_presentation(pres)})
    return out


def sum_from_json(data) -> tuple:
    """Returns (FormalSum, {key: Presentation}).  A coefficient is a JSON
    integer or a string n or n/d (d > 0) in decimal digits.  The
    presentations share one LetterBudget."""
    terms, reps, rank = [], {}, None
    budget = LetterBudget("formal sum")
    for item in data:
        pres = parse_presentation(item["presentation"], budget)
        coeff = item["coeff"]
        if not isinstance(coeff, str):
            coeff = json_int(coeff, "coeff")
        elif re.fullmatch("-?[0-9]+(/0*[1-9][0-9]*)?", coeff):
            coeff = Fraction(coeff)
            coeff = int(coeff) if coeff.denominator == 1 else coeff
        else:
            raise ValueError(f"coeff must be an integer or n/d with d > 0, not {coeff!r}")
        key = canonical_key(pres)
        if rank is None:
            rank = pres.rank
        elif pres.rank != rank:
            raise ValueError("mixed ranks in formal sum file")
        terms.append((key, coeff))
        reps.setdefault(key, pres)
    if rank is None:
        raise ValueError("empty formal sum file has no rank")
    return FormalSum(rank, _merge(terms)), reps


def certificate_to_json(cert: EquivalenceCertificate) -> dict:
    return {
        "label": cert.label,
        "lhs": format_presentation(cert.lhs),
        "rhs": format_presentation(cert.rhs),
        "script": script_to_json(cert.script, cert.lhs.gens),
    }


def certificate_from_json(data) -> EquivalenceCertificate:
    """The certificate a certificate file holds; lhs, rhs and the script
    share one LetterBudget."""
    budget = LetterBudget("certificate")
    lhs = parse_presentation(data["lhs"], budget)
    rhs = parse_presentation(data["rhs"], budget)
    script = script_from_json(data["script"], lhs.gens, budget)
    return EquivalenceCertificate(lhs, rhs, script, data.get("label", ""))
