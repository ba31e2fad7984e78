"""Reference for constructions.common_generators: the same rewriting made by
generator-level moves and replayed.

Each side gains one generator per witness image by AddGen, whose relator
g is then multiplied on the right by the inverse image, one Nielsen move
per negative letter and three per positive one.  The second side's
generators are then reordered by generator swaps, each three transvections
and one inversion.  Every step is an AddGen or a Nielsen move, so the
result is a 2-deformation of the input; common_generators must reach
exactly what this replay reaches.
"""

from acpair.constructions import CommonGeneratorsResult, WitnessError
from acpair.moves import AddGen, NielsenInv, NielsenMul, replay
from acpair.presentations import fresh_name
from acpair.words import generator, invert, within


def append_word_moves(i, u):
    """Moves realizing the substitution g_i -> g_i * u (u must avoid g_i).

    The engine substitutes the inverse of a declared Nielsen map, so a
    plain right multiplication appends the negative letter and appending a
    positive letter needs conjugation by an inversion pair.
    """
    if generator(i) in u or invert(generator(i)) in u:
        raise ValueError("appended word may not involve the rewritten generator")
    moves = []
    for letter in reversed(u):
        j = (letter >> 1) - 1
        moves += ([NielsenMul(i, j, "right")] if letter & 1 else
                  [NielsenInv(j), NielsenMul(i, j, "right"), NielsenInv(j)])
    return moves


def swap_generators_moves(i, j):
    """Moves whose net substitution transposes g_i and g_j."""
    if i == j:
        return []
    return [
        # g_i -> g_i g_j
        NielsenInv(j), NielsenMul(i, j, "right"), NielsenInv(j),
        # g_j -> g_i^-1 g_j
        NielsenMul(j, i, "left"),
        # g_i -> g_j g_i
        NielsenInv(j), NielsenMul(i, j, "left"), NielsenInv(j),
        # fix the leftover inversion
        NielsenInv(i),
    ]


def permutation_moves(perm):
    """Moves relabelling positions so that new position k holds old perm[k],
    one swap at a time."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    location = list(range(n))   # location[g] = current position of old generator g
    occupant = list(range(n))   # occupant[p] = old generator at position p
    moves = []
    for k in range(n):
        want = perm[k]
        cur = location[want]
        if cur == k:
            continue
        moves += swap_generators_moves(k, cur)
        other = occupant[k]
        occupant[k], occupant[cur] = want, other
        location[want], location[other] = k, cur
    return moves


def adjoin_moves(p, names, images):
    """Moves appending one generator per image, named after names where that
    name is free, each linked to its image over p's generators by one new
    relator; every image's range is checked first."""
    for idx, image in enumerate(images):
        if not within(image, p.rank):
            raise WitnessError(f"image {idx + 1} lies outside the generators "
                               f"{', '.join(p.gens)}")
    taken, moves = set(p.gens), []
    for idx, (name, image) in enumerate(zip(names, images)):
        if name in taken:
            name = fresh_name(taken, p.rank + idx)
        taken.add(name)
        moves += [AddGen(name), *append_word_moves(p.rank + idx, invert(image))]
    return moves


def common_generators(p, q, witness):
    """constructions.common_generators by replaying the moves above."""
    a, c = p.rank, q.rank
    if len(witness.y_in_x) != c or len(witness.x_in_y) != a:
        raise WitnessError(
            f"witness dimensions {len(witness.y_in_x)}/{len(witness.x_in_y)} "
            f"do not match ranks {c}/{a}")
    if p.gens == q.gens and witness.is_identity():
        return CommonGeneratorsResult(p, q)
    p_prime = replay(p, adjoin_moves(p, q.gens, witness.y_in_x))
    moves_q = (adjoin_moves(q, p.gens, witness.x_in_y)
               + permutation_moves([c + i for i in range(a)] + list(range(c))))
    return CommonGeneratorsResult(p_prime, replay(q, moves_q))
