"""Reference copy of the one-ended equivalence search, as a test oracle.

`equivalence_search` is `acpair.moves.bounded_equivalence_search` in the
form it had as its own layer-by-layer loop: a list of (key, first
representative met) per depth, a parent map from each key to its parent
key and the fragment that reached it, the goal tested as each new key is
made, and the state cap tested after it.  It takes the same successor
fragments and returns (reason, states, moves), moves None unless found,
so that a test can show the search reaches the same keys in the same order
and stops at the same state.
"""

from acpair.moves import _neighbor_fragments, replay
from acpair.presentations import canonical_key


def equivalence_search(p, q, budget, regime="full"):
    goal = canonical_key(q)
    target_rels = len(q.relators)
    if regime == "k_prime" and len(p.relators) != target_rels:
        return "exhausted", 0, None
    start = canonical_key(p)
    parents = {start: None}  # key -> (parent key, fragment)
    if start == goal:
        return "found", 1, ()
    layer = [(start, p)]
    for _ in range(budget.max_depth):
        if not layer:
            break
        next_layer = []
        for key, here in layer:
            for fragment in _neighbor_fragments(here, regime, target_rels,
                                                budget.conjugator_length):
                nxt = here
                for move in fragment:
                    nxt = replay(nxt, (move,))
                if any(len(r) > budget.max_relator_length for r in nxt.relators):
                    continue
                nkey = canonical_key(nxt)
                if nkey in parents:
                    continue
                parents[nkey] = (key, tuple(fragment))
                if nkey == goal:
                    moves, cur = [], nkey
                    while parents[cur] is not None:
                        cur, frag = parents[cur]
                        moves[:0] = frag
                    return "found", len(parents), tuple(moves)
                if len(parents) >= budget.max_states:
                    return "state_cap", len(parents), None
                next_layer.append((nkey, nxt))
        layer = next_layer
    return "exhausted", len(parents), None
