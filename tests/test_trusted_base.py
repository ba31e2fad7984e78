"""The trusted base of a "yes": the acpair code that a verifying command runs.

A "yes" of verify-null or verify-smove is only as sound as the code it runs.
`sys.setprofile` records the module and qualified name of every acpair code
object that one command calls, comprehensions and lambdas included.  The
caches of canonical_key and build_parser are cleared first, so that nothing
computed earlier in the process is reused and each run records all it needs.
The record must equal the list written here: a change that adds to what a
"yes" runs adds to this list, so the base grows only on purpose.  CPython
3.12 inlines list, dict and set comprehensions into their functions (PEP
709), so each recorded name drops its comprehension parts: a
comprehension's frame folds into its function's, and a lambda inside one
is named as on 3.12, where f.<locals>.<listcomp>.<lambda> is
f.<locals>.<lambda>.  Every function a comprehension calls is still
recorded, so one list serves 3.11 and later; 3.10 has no co_qualname.
"""

import json
import sys

import pytest

from acpair import cli
from acpair.cli import main
from acpair.moves import (ConjRel, InvRel, MoveScript, RestrictedSlide,
                          RSFactor, invert_script, replay, script_to_json)
from acpair.presentations import (Presentation, canonical_key,
                                  format_presentation, make_presentation,
                                  product)

from lustig_fixtures import write_lustig_inputs
from word_reference import encode

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects have no co_qualname before 3.11")

# module -> the qualified names of its code objects, in sorted order; a
# dataclass's generated methods are named __create_fn__.<locals>.<method>
COMMON = {
    "cli": "_load main",
    "moves": "ConjRel.__post_init__ EquivalenceCertificate.verify "
             "MoveScript.__post_init__ __create_fn__.<locals>.__init__ _bounded "
             "_conj_rel _fold _from_json _in_context "
             "_inv_rel _rel <lambda> replay script_from_json",
    "presentations": "CanonicalKey.__post_init__ Presentation.__post_init__ "
                     "Presentation._trusted Presentation.rank "
                     "__create_fn__.<locals>.__eq__ __create_fn__.<locals>.__hash__ "
                     "__create_fn__.<locals>.__init__ _key canonical_key "
                     "parse_presentation parse_relator_text",
    "words": "LetterBudget.__init__ LetterBudget.charge _conjugate _least_rotation "
             "_letter_tokens _token_letters "
             "check_rank check_word cyclic_canonical cyclically_reduce invert "
             "json_int multiply read_word valid_name within word_key",
}
PARSER = {  # build_parser, which reads the budget defaults off the classes
    "cli": "build_parser build_parser.<locals>.add",
}
VERIFY_NULL = {
    "cli": "cmd_verify_null",
    "moves": "SlideRel.__post_init__ _slide_rel",
    "pairing": "FormalSum.__init__ FormalSum._common_rank FormalSum.dot "
               "FormalSum.dot.<locals>.<genexpr> NullVectorReport.as_text "
               "NullVectorReport.verdict "
               "_ExactSum.__init__ "
               "_ExactSum.is_zero __create_fn__.<locals>.__init__ _check_scalar _merge "
               "_reduce _reduce.<locals>.<genexpr> _reduce.<locals>.<genexpr>.<genexpr> "
               "_root certificate_from_json "
               "sum_from_json verify_null verify_null.<locals>.<genexpr>",
    "presentations": "CanonicalKey.sort_key CanonicalKey.sort_key.<locals>.<genexpr>",
    "words": "_longest multiply.<locals>.<lambda>",
}
VERIFY_SMOVE = {
    "cli": "cmd_verify_smove cmd_verify_smove.<locals>.load_scripts "
           "cmd_verify_smove.<locals>.load_scripts.<locals>.<lambda>",
    "constructions": "verify_smove_certificates",
    "moves": "<lambda>.<locals>.<genexpr> RSFactor.__post_init__ "
             "RestrictedSlide.__post_init__ _restricted_slide",
    "presentations": "product",
    "words": "LetterBudget.charge_tokens commutator",
}


def base(*parts) -> set:
    return {(f"acpair.{module}", name) for part in parts
            for module, names in part.items() for name in names.split()}


def folded(qualname: str) -> str:
    """qualname without its comprehension parts, as CPython 3.12 names it:
    f.<locals>.<listcomp> is f, and f.<locals>.<listcomp>.<lambda> is
    f.<locals>.<lambda>."""
    parts = [part for part in qualname.split(".")
             if part not in ("<listcomp>", "<dictcomp>", "<setcomp>")]
    return ".".join(parts[:-1] if parts[-1:] == ["<locals>"] else parts)


def trusted_base(argv) -> tuple:
    """main(argv)'s exit code and the (module, folded qualname) of every
    acpair code object it calls."""
    canonical_key.cache_clear()
    cli.build_parser.cache_clear()
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("acpair"):
                seen.add((module, folded(frame.f_code.co_qualname)))

    sys.setprofile(record)
    try:
        code = main([str(a) for a in argv])
    finally:
        sys.setprofile(None)
    return code, seen


def test_verify_null_trusted_base(tmp_path, capsys):
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    assert main(["pipeline", k1, k2, "--witnesses", str(wdir), "-o", str(bundle)]) == 0
    code, seen = trusted_base(["verify-null", bundle])
    assert code == 0 and "null vector: yes" in capsys.readouterr().out
    assert sorted(seen) == sorted(base(COMMON, PARSER, VERIFY_NULL))


def test_verify_smove_trusted_base(tmp_path, capsys):
    # one script pair as acceptance 5 builds them: moves on the second block
    # of l1*l1 give l2, and the same moves on the first block are undone
    l1 = make_presentation("x y", ["x y x^-1 y^-1", "x^3"])
    x, y = encode((1,)), encode((2,))
    forward = MoveScript((ConjRel(2, x), InvRel(3),
                          RestrictedSlide(2, (RSFactor(y, 3, 1, encode((-1,))),))), "k_prime")
    l2 = Presentation(l1.gens, replay(product(l1, l1), forward).relators[2:])
    to_second = MoveScript((ConjRel(0, x), InvRel(1),
                            RestrictedSlide(0, (RSFactor(y, 1, 1, encode((-1,))),))), "k_prime")
    names = product(l1, l2).gens
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for name, script in (("to_l1l1_1", invert_script(forward)), ("to_l2l2_1", to_second)):
        (scripts / f"{name}.json").write_text(json.dumps(script_to_json(script, names)))
    for name, p in (("l1", l1), ("l2", l2)):
        (tmp_path / f"{name}.pres").write_text(format_presentation(p))
    code, seen = trusted_base(["verify-smove", tmp_path / "l1.pres", tmp_path / "l2.pres",
                               "--scripts", scripts])
    assert code == 0 and "accepted: 2 certificates verified" in capsys.readouterr().out
    assert sorted(seen) == sorted(base(COMMON, PARSER, VERIFY_SMOVE))
