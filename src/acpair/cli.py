"""Command line interface.

Exit codes: 0 success, 1 verification failure or a search that stopped
without a result (both searches print why they stopped: "exhausted" or
"state_cap"), 2 input errors.  main is the one place that turns an error
into exit 2: it catches every ValueError and OSError a command raises,
among them the InputError of _load, the one reader of input files.
Human-readable reports go to stdout; machine artifacts to files.  Bundles
are written to a temporary directory and renamed into place, so a failed
run never leaves a partial bundle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from functools import cache
from json import JSONDecodeError, load as load_json

from . import constructions, homology, moves, pairing, presentations
from .moves import MoveError, SearchBudget
from .presentations import (canonical_key, format_presentation,
                            parse_presentation, serialize_key)
from .words import LetterBudget, _token_letters, parse_word, read_word

INPUT_ERROR = 2
VERIFY_FAIL = 1


class InputError(ValueError):
    pass


def _load(path: str, parse, json: bool = False):
    """parse(contents of path), decoded as JSON first if json is set.

    The one reader of input files: a file that cannot be read or parsed
    is an InputError naming it.
    """
    try:
        with open(path) as fh:
            return parse(load_json(fh) if json else fh.read())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    except KeyError as e:
        raise InputError(f"{path}: missing key {e}") from None
    except (ValueError, IndexError, TypeError) as e:
        raise InputError(f"{path}: {e}") from None
    except RecursionError:
        raise InputError(f"{path}: nested too deeply") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_normalize(args) -> int:
    p = _load(args.presentation, parse_presentation)
    key = canonical_key(p)
    if args.format == "json":
        print(json.dumps({"rank": key.rank, "key": serialize_key(key)}))
    else:
        print(serialize_key(key))
    return 0


def cmd_apply(args) -> int:
    p = _load(args.presentation, parse_presentation)
    script = _load(args.script, lambda data: moves.script_from_json(data, p.gens),
                   json=True)
    result = moves.replay(p, script)
    _write_text(args.output, format_presentation(result))
    return 0


def cmd_product(args) -> int:
    p = _load(args.first, parse_presentation)
    q = _load(args.second, parse_presentation)
    result = presentations.product(p, q)
    _write_text(args.output, format_presentation(result))
    return 0


def cmd_lustig(args) -> int:
    p = constructions.lustig(args.index)
    _write_text(args.output, format_presentation(p))
    return 0


def cmd_witness(args) -> int:
    p = _load(args.presentation, parse_presentation)
    target = parse_word(args.target, p.gens)
    outcome = constructions.search_normal_closure_witness(
        target, p.relators, _witness_budget(args))
    if outcome.result is None:
        print(f"unknown: witness search stopped: {outcome} (no claim made)")
        return VERIFY_FAIL
    payload = constructions.witness_to_json(outcome.result, p.gens)
    _write_text(args.output, json.dumps(payload, indent=1))
    return 0


def _witness_budget(args) -> constructions.WitnessBudget:
    return constructions.WitnessBudget(args.max_factors, args.max_conj,
                                       args.max_states)


def _load_iso_witness(path, p, q) -> constructions.IsoWitness:
    if path is None:
        if p.gens != q.gens:
            raise InputError("presentations have different generators; "
                             "an isomorphism witness file is required")
        return constructions.IsoWitness.identity(p.rank)

    def parse(data):
        budget = LetterBudget("isomorphism witness")
        over_p, over_q = _token_letters(p.gens), _token_letters(q.gens)
        return constructions.IsoWitness(
            tuple(read_word(w, over_p, budget) for w in data["y_in_x"]),
            tuple(read_word(w, over_q, budget) for w in data["x_in_y"]))

    return _load(path, parse, json=True)


def _load_witness_dir(dirpath, prefix, count, names):
    """Optional per-relator witness files <prefix><i>.json (1-based)."""
    if dirpath is None:
        return None
    if not os.path.isdir(dirpath):
        raise InputError(f"witness directory {dirpath} does not exist")
    out = []
    for i in range(count):
        path = os.path.join(dirpath, f"{prefix}{i + 1}.json")
        if os.path.exists(path):
            out.append(_load(path, lambda data: constructions.witness_from_json(
                data, names), json=True))
        else:
            out.append(None)
    return out


def cmd_pipeline(args) -> int:
    l1 = _load(args.first, parse_presentation)
    l2 = _load(args.second, parse_presentation)
    iso = _load_iso_witness(args.iso, l1, l2)
    common = constructions.common_generators(l1, l2, iso)
    p1, p2 = common.p_prime, common.q_prime
    sup12 = _load_witness_dir(args.witnesses, "second_over_first_",
                              len(p2.relators), p1.gens)
    sup21 = _load_witness_dir(args.witnesses, "first_over_second_",
                              len(p1.relators), p2.gens)
    result = constructions.null_vector_pipeline(common, _witness_budget(args),
                                                sup12, sup21, jobs=args.jobs)

    lines = [f"boundary rank: {p1.rank}",
             f"stabilizations: {result.stabilizations}",
             f"certificates: {len(result.certificates)}"]
    for cert in result.certificates:
        lines.append(f"  {cert.label}: {len(cert.script)} moves")
    if result.unknown:
        lines.append("unknown witnesses (no claim): " + ", ".join(
            f"{label} ({outcome})" for label, outcome in result.unknown))
    else:
        # null_vector_pipeline raised WitnessError unless verify_null passed.
        lines.append("verify-null: pass")

    _write_bundle(args.output, result, {canonical_key(p): p for p in (p1, p2)}, lines)
    print("\n".join(lines))
    return 0 if result.complete else VERIFY_FAIL


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(data))  # json.dump and indent bypass the C encoder


def _write_bundle(output: str, result, reps, lines) -> None:
    """x.sum (with reps, key -> presentation, naming its terms), certs/ and
    report.txt, written to a temporary directory that is renamed to output
    only when complete."""
    parent = os.path.dirname(os.path.abspath(output)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".bundle-", dir=parent)
    try:
        _write_json(os.path.join(tmp, "x.sum"), pairing.sum_to_json(result.x, reps))
        os.makedirs(os.path.join(tmp, "certs"), exist_ok=True)
        for cert in result.certificates:
            _write_json(os.path.join(tmp, "certs", f"{cert.label}.json"),
                        pairing.certificate_to_json(cert))
        with open(os.path.join(tmp, "report.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if os.path.exists(output):
            raise InputError(f"output {output} already exists")
        os.rename(tmp, output)
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)


def cmd_verify_null(args) -> int:
    sum_path = os.path.join(args.bundle, "x.sum")
    certs_dir = os.path.join(args.bundle, "certs")
    x, _ = _load(sum_path, pairing.sum_from_json, json=True)
    certs = []
    if os.path.isdir(certs_dir):
        for name in sorted(os.listdir(certs_dir)):
            if name.endswith(".json"):
                certs.append(_load(os.path.join(certs_dir, name),
                                   pairing.certificate_from_json, json=True))
    report = pairing.verify_null(x, certs)
    if args.format == "json":
        print(json.dumps(report.as_json(), indent=1))
    else:
        print(report.as_text())
    return 0 if report.null and not report.trivial else VERIFY_FAIL


def cmd_verify_smove(args) -> int:
    l1 = _load(args.first, parse_presentation)
    l2 = _load(args.second, parse_presentation)
    names = presentations.product(l1, l2).gens

    def load_scripts(prefix):
        return [_load(os.path.join(args.scripts, name),
                      lambda data: moves.script_from_json(data, names), json=True)
                for name in sorted(os.listdir(args.scripts))
                if name.startswith(prefix) and name.endswith(".json")]

    to_first = load_scripts("to_l1l1")
    to_second = load_scripts("to_l2l2")
    try:
        certs = constructions.verify_smove_certificates(l1, l2, to_first, to_second)
    except MoveError as e:
        print(f"rejected: {e}")
        return VERIFY_FAIL
    print(f"accepted: {len(certs)} certificates verified")
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for cert in certs:
            _write_json(os.path.join(args.output, f"{cert.label}.json"),
                        pairing.certificate_to_json(cert))
    return 0


def cmd_search_equiv(args) -> int:
    p = _load(args.first, parse_presentation)
    q = _load(args.second, parse_presentation)
    budget = SearchBudget(args.depth, args.max_relator_length, args.max_states,
                          args.conj_len)
    outcome = moves.bounded_equivalence_search(p, q, budget, args.regime)
    script = outcome.result
    if script is None:
        print(f"unknown: equivalence search stopped: {outcome} "
              "(no claim of inequivalence)")
        return VERIFY_FAIL
    payload = moves.script_to_json(script, p.gens)
    _write_text(args.output, json.dumps(payload, indent=1))
    if args.output:
        print(f"found: {len(script)} moves, script written to {args.output}")
    return 0


def _parse_chain(path: str):
    """chain_from_json, reading a group file named in the chain next to it."""
    return lambda data: homology.chain_from_json(
        data, base_dir=os.path.dirname(path) or ".")


def cmd_homology(args) -> int:
    chain = _load(args.chain, _parse_chain(args.chain), json=True)
    group = homology.homology_at(chain, args.at)
    if args.format == "json":
        print(json.dumps({"at": args.at, "free_rank": group.free_rank,
                          "torsion": list(group.torsion)}))
    else:
        print(f"H_{args.at} = {group}")
    return 0


def cmd_glue(args) -> int:
    c1 = _load(args.first, _parse_chain(args.first), json=True)
    c2 = _load(args.second, _parse_chain(args.second), json=True)
    glued = homology.glue_product(c1, c2)
    _write_text(args.output, json.dumps(homology.chain_to_json(glued), indent=1))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="acpair",
        description="Move scripts, pairings and homology for presentation "
                    "2-complexes with a fixed wedge boundary.")
    sub = parser.add_subparsers(dest="command", required=True)
    # defaults read off the classes: a budget built here runs in every command
    witness, search = constructions.WitnessBudget, SearchBudget

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("normalize", cmd_normalize, "print the canonical key")
    p.add_argument("presentation")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("apply", cmd_apply, "replay a move script")
    p.add_argument("presentation")
    p.add_argument("script")
    p.add_argument("-o", "--output")

    p = add("product", cmd_product, "glue two presentations along the boundary")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")

    p = add("lustig", cmd_lustig, "emit the i-th Lustig presentation")
    p.add_argument("index", type=int)
    p.add_argument("-o", "--output")

    p = add("witness", cmd_witness, "search a normal closure witness")
    p.add_argument("presentation")
    p.add_argument("--target", required=True)
    p.add_argument("--max-factors", type=int, default=witness.max_factors)
    p.add_argument("--max-conj", type=int, default=witness.max_conjugator_length)
    p.add_argument("--max-states", type=int, default=witness.max_states)
    p.add_argument("-o", "--output")

    p = add("pipeline", cmd_pipeline, "build a certified null vector bundle")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--iso", help="isomorphism witness JSON (default: identity)")
    p.add_argument("--witnesses", help="directory of supplied witness files")
    p.add_argument("--max-factors", type=int, default=witness.max_factors)
    p.add_argument("--max-conj", type=int, default=witness.max_conjugator_length)
    p.add_argument("--max-states", type=int, default=witness.max_states)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output", required=True)

    p = add("verify-null", cmd_verify_null, "verify a pipeline bundle")
    p.add_argument("bundle")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("verify-smove", cmd_verify_smove,
            "verify restricted-regime product certificates")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--scripts", required=True)
    p.add_argument("-o", "--output")

    p = add("search-equiv", cmd_search_equiv, "bounded equivalence search")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--depth", type=int, default=search.max_depth)
    p.add_argument("--regime", choices=("full", "k_prime"), default="full")
    p.add_argument("--max-states", type=int, default=search.max_states)
    p.add_argument("--max-relator-length", type=int,
                   default=search.max_relator_length)
    p.add_argument("--conj-len", type=int, default=search.conjugator_length,
                   help="longest conjugator of a restricted slide (k_prime only)")
    p.add_argument("--jobs", type=int, default=1,
                   help="unused; kept because the benchmark's command lines pass it")
    p.add_argument("-o", "--output")

    p = add("homology", cmd_homology, "homology of a chain complex file")
    p.add_argument("chain")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("glue", cmd_glue, "glue two chain complexes along the lower skeleton")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # InputError, MoveError, WitnessError among them
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
