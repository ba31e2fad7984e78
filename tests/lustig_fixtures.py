"""Explicit normal-closure witnesses for the Lustig family.

Builds, by commutator calculus, a factorization of each relator of one
family member over the relators of another.  Every returned witness is
verified exactly in the free group, so these serve as supplied witnesses
for the certified pipeline without any search.

Conventions: generators r, s, t have indices 0, 1, 2 (letters 1, 2, 3);
a = r^2.  Relator indices in the base presentation: 0 the bridge
s^2 t^-3, 1 the commutator [a, s^p], 2 the commutator [a, t^q], where
p = 2i+1 and q = 3i+1.  A factor list [(g, k, sign), ...] denotes the
product of g^-1 R_k^sign g in order.  The calculus runs on the tuple words
of word_reference, and its witnesses hold the words of acpair.words.
"""

import json

from acpair.constructions import NormalClosureWitness, lustig, witness_to_json
from acpair.presentations import format_presentation
from word_reference import decode, encode, invert, multiply

EMPTY = ()
R, S, T = (1,), (2,), (3,)
A = (1, 1)  # r^2


def power(letter, k):
    """letter^k for a one-letter word: k copies of it or of its inverse."""
    return letter * k if k >= 0 else invert(letter) * -k


def shift(factors, w):
    """Conjugate a factor-list product by w^-1 on the left: prod -> w^-1 prod w."""
    return [(multiply(g, w), k, s) for g, k, s in factors]


def inv_factors(factors):
    return [(g, k, -s) for g, k, s in reversed(factors)]


def comm_prod(u, fu, fv):
    """[a, u v] = [a, u] * u [a, v] u^-1 given factor lists for u and v."""
    return list(fu) + shift(fv, invert(u))


def comm_inv(u, fu):
    """[a, u^-1] = u^-1 [a, u]^-1 u."""
    return shift(inv_factors(fu), u)


def comm_normal(nu_factors):
    """[a, nu] for nu a known product of relator conjugates."""
    return shift(nu_factors, invert(A)) + inv_factors(nu_factors)


def bridge_factors(k):
    """Factor list with product s^(2k) t^(-3k), from the bridge relator."""
    return [(power(S, -2 * j), 0, 1) for j in range(k - 1, -1, -1)]


class LustigCalculus:
    """Witness builder over the relators of the index-i family member."""

    def __init__(self, i):
        self.i = i
        self.p = 2 * i + 1
        self.q = 3 * i + 1
        self.base = lustig(i)
        self.relators = [decode(r) for r in self.base.relators]  # as tuple words
        self._ws_cache = {}
        self._wt_cache = {}

    # factor lists for [a, s^e] and [a, t^e]

    def w_s(self, e):
        if e == 0:
            return []
        if e in self._ws_cache:
            return list(self._ws_cache[e])
        p = self.p
        if e == p:
            out = [(EMPTY, 1, 1)]
        elif e < 0:
            out = comm_inv(power(S, -e), self.w_s(-e))
        elif e >= p:
            out = comm_prod(power(S, p), self.w_s(p), self.w_s(e - p))
        elif e % 2 == 0:
            # s^2 = rho1 t^3 exactly, so [a, s^e] routes through the bridge
            nu = bridge_factors(e // 2)
            word_ts = multiply(power(S, e), invert(power(T, 3 * (e // 2))))
            assert word_ts == self._product_word(nu), "bridge factorization broken"
            out = comm_prod(self._product_word(nu),
                            comm_normal(nu), self.w_t(3 * (e // 2)))
        else:
            # odd e below p: peel one full power, leaving an even remainder
            out = comm_prod(power(S, p), self.w_s(p), self.w_s(e - p))
        self._ws_cache[e] = tuple(out)
        return out

    def w_t(self, e):
        if e == 0:
            return []
        if e in self._wt_cache:
            return list(self._wt_cache[e])
        p, q = self.p, self.q
        if e == q:
            out = [(EMPTY, 2, 1)]
        elif e < 0:
            out = comm_inv(power(T, -e), self.w_t(-e))
        elif e == 1:
            # 3p - 2q = 1 for every family index
            out = comm_prod(power(T, 3 * p), self._wt_3p(), self.w_t(-2 * q))
        elif e >= q:
            out = comm_prod(power(T, q), self.w_t(q), self.w_t(e - q))
        else:
            out = comm_prod(T, self.w_t(1), self.w_t(e - 1))
        self._wt_cache[e] = tuple(out)
        return out

    def _wt_3p(self):
        # t^(3p) = s^(2p) * nu with nu = s^(-2p) t^(3p); as a factor product
        # nu is the inverted bridge chain conjugated by s^(2p)
        p = self.p
        nu = shift(inv_factors(bridge_factors(p)), power(S, 2 * p))
        assert self._product_word(nu) == multiply(power(S, -2 * p), power(T, 3 * p))
        return comm_prod(power(S, 2 * p), self.w_s(2 * p), comm_normal(nu))

    def _product_word(self, factors):
        out = EMPTY
        rels = self.relators
        for g, k, s in factors:
            rel = rels[k] if s > 0 else invert(rels[k])
            out = multiply(out, multiply(multiply(invert(g), rel), g))
        return out

    def witness(self, target, factors):
        wit = NormalClosureWitness(target, tuple((encode(g), k, s) for g, k, s in factors))
        assert wit.verify(self.base.relators), "calculus produced a bad witness"
        return wit

    def witnesses_for(self, j):
        """Witnesses expressing the index-j relators over the index-i relators."""
        other = lustig(j)
        w1 = self.witness(other.relators[0], [(EMPTY, 0, 1)])
        w2 = self.witness(other.relators[1],
                          [f for f in self.w_s(2 * j + 1)])
        w3 = self.witness(other.relators[2],
                          [f for f in self.w_t(3 * j + 1)])
        return [w1, w2, w3]


def lustig_witness_pair(i, j):
    """(witnesses of K_j relators over K_i, witnesses of K_i over K_j)."""
    return (LustigCalculus(i).witnesses_for(j),
            LustigCalculus(j).witnesses_for(i))


def write_lustig_inputs(tmp_path, pair=(1, 2)):
    """lustig(i), lustig(j) for the pair (i, j) and a directory of their
    witnesses, written under tmp_path (a pathlib.Path): the paths of
    k1.pres, k2.pres and wits/."""
    i, j = pair
    k1, k2, wdir = tmp_path / "k1.pres", tmp_path / "k2.pres", tmp_path / "wits"
    k1.write_text(format_presentation(lustig(i)))
    k2.write_text(format_presentation(lustig(j)))
    wdir.mkdir()
    names = lustig(i).gens
    for prefix, witnesses in zip(("second_over_first", "first_over_second"),
                                 lustig_witness_pair(i, j)):
        for n, wit in enumerate(witnesses):
            (wdir / f"{prefix}_{n + 1}.json").write_text(
                json.dumps(witness_to_json(wit, names)))
    return str(k1), str(k2), wdir
