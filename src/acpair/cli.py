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
    """Write text to the file path byte for byte, or, when path is None, to
    stdout with a newline after it.  The one writer of files."""
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

        def images(field, names):
            if type(data[field]) is not list:
                raise ValueError(f"{field} is not a list of words")
            table = _token_letters(names)
            return tuple(read_word(w, table, budget) for w in data[field])

        return constructions.IsoWitness(images("y_in_x", p.gens), images("x_in_y", q.gens))

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
    verdict = result.report.verdict  # as verify-null answers on the bundle
    if result.unknown:
        lines.append("unknown witnesses (no claim): " + ", ".join(
            f"{label} ({outcome})" for label, outcome in result.unknown))
    else:
        # null_vector_pipeline raised WitnessError unless x.x reduced to 0
        lines.append(f"verify-null: {'pass' if verdict == 'yes' else verdict}")

    _write_bundle(args.output, result, {canonical_key(p): p for p in (p1, p2)}, lines)
    print("\n".join(lines))
    return 0 if result.complete and verdict == "yes" else VERIFY_FAIL


def _write_bundle(output: str, result, reps, lines) -> None:
    """x.sum (with reps, key -> presentation, naming its terms), certs/ and
    report.txt, written to a temporary directory that is renamed to output
    only when complete."""
    parent = os.path.dirname(os.path.abspath(output)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".bundle-", dir=parent)
    try:
        # json.dumps without an indent: json.dump and indent bypass the C encoder
        _write_text(os.path.join(tmp, "x.sum"),
                    json.dumps(pairing.sum_to_json(result.x, reps)))
        os.makedirs(os.path.join(tmp, "certs"), exist_ok=True)
        for cert in result.certificates:
            _write_text(os.path.join(tmp, "certs", f"{cert.label}.json"),
                        json.dumps(pairing.certificate_to_json(cert)))
        _write_text(os.path.join(tmp, "report.txt"), "\n".join(lines) + "\n")
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
    return 0 if report.verdict == "yes" else VERIFY_FAIL


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
            _write_text(os.path.join(args.output, f"{cert.label}.json"),
                        json.dumps(pairing.certificate_to_json(cert)))
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
    # (flags, options) of each argument that several commands take
    presentation = (("presentation",), {})
    pair = ((("first",), {}), (("second",), {}))
    output = (("-o", "--output"), {})
    text_or_json = (("--format",), {"choices": ("text", "json"), "default": "text"})
    witness_budget = (
        (("--max-factors",), {"type": int, "default": witness.max_factors}),
        (("--max-conj",), {"type": int, "default": witness.max_conjugator_length}),
        (("--max-states",), {"type": int, "default": witness.max_states}))

    def add(name, func, help_text, *arguments):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flags, options in arguments:
            p.add_argument(*flags, **options)

    add("normalize", cmd_normalize, "print the canonical key", presentation, text_or_json)
    add("apply", cmd_apply, "replay a move script", presentation, (("script",), {}), output)
    add("product", cmd_product, "glue two presentations along the boundary", *pair, output)
    add("lustig", cmd_lustig, "emit the i-th Lustig presentation",
        (("index",), {"type": int}), output)
    add("witness", cmd_witness, "search a normal closure witness", presentation,
        (("--target",), {"required": True}), *witness_budget, output)
    add("pipeline", cmd_pipeline, "build a certified null vector bundle", *pair,
        (("--iso",), {"help": "isomorphism witness JSON (default: identity)"}),
        (("--witnesses",), {"help": "directory of supplied witness files"}),
        *witness_budget, (("--jobs",), {"type": int, "default": 1}),
        (("-o", "--output"), {"required": True}))
    add("verify-null", cmd_verify_null, "verify a pipeline bundle",
        (("bundle",), {}), text_or_json)
    add("verify-smove", cmd_verify_smove, "verify restricted-regime product certificates",
        *pair, (("--scripts",), {"required": True}), output)
    add("search-equiv", cmd_search_equiv, "bounded equivalence search", *pair,
        (("--depth",), {"type": int, "default": search.max_depth}),
        (("--regime",), {"choices": ("full", "k_prime"), "default": "full"}),
        (("--max-states",), {"type": int, "default": search.max_states}),
        (("--max-relator-length",), {"type": int, "default": search.max_relator_length}),
        (("--conj-len",), {"type": int, "default": search.conjugator_length,
                           "help": "longest conjugator of a restricted slide (k_prime only)"}),
        (("--jobs",), {"type": int, "default": 1,
                       "help": "unused; kept because the benchmark's command lines pass it"}),
        output)
    add("homology", cmd_homology, "homology of a chain complex file", (("chain",), {}),
        (("--at",), {"type": int, "required": True}), text_or_json)
    add("glue", cmd_glue, "glue two chain complexes along the lower skeleton", *pair, output)
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
