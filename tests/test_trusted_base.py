"""The trusted base of a "yes": the acpair code that a verifying command runs.

A "yes" of verify-null or verify-smove is only as sound as the code it runs.
`sys.setprofile` records the module and qualified name of every acpair code
object that one command calls, comprehensions and lambdas included.  The
caches of canonical_key and build_parser are cleared first, so that nothing
computed earlier in the process is reused and each run records all it needs.
The record must equal the list written here: a change that adds to what a
"yes" runs adds to this list, so the base grows only on purpose.  The list
holds CPython 3.11's code objects: 3.10 has no co_qualname, and 3.12
inlines list, dict and set comprehensions into their functions (PEP 709).
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

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="the lists name CPython 3.11 code objects")

# module -> the qualified names of its code objects, in sorted order; a
# dataclass's generated methods are named __create_fn__.<locals>.<method>
COMMON = {
    "cli": "_load main",
    "moves": "ConjRel.__post_init__ EquivalenceCertificate.verify "
             "MoveScript.__post_init__ __create_fn__.<locals>.__init__ _bounded "
             "_conj_rel _from_json _from_json.<locals>.<listcomp> _in_context "
             "_inv_rel _rel <lambda> replay script_from_json",
    "presentations": "CanonicalKey.__post_init__ Presentation.__post_init__ "
                     "Presentation.__post_init__.<locals>.<genexpr> "
                     "Presentation._trusted Presentation.rank "
                     "__create_fn__.<locals>.__eq__ __create_fn__.<locals>.__hash__ "
                     "__create_fn__.<locals>.__init__ _key canonical_key "
                     "parse_presentation parse_relator_text",
    "words": "LetterBudget.__init__ LetterBudget.charge "
             "_least_rotation _letter_ranks _letter_ranks.<locals>.<listcomp> "
             "_letter_tokens _token_letters _token_letters.<locals>.<dictcomp> "
             "conjugate cyclic_canonical cyclically_reduce invert json_int multiply "
             "read_word reduce valid_name word_key",
}
PARSER = {  # build_parser, which reads the budget defaults off the classes
    "cli": "build_parser build_parser.<locals>.add",
}
VERIFY_NULL = {
    "cli": "cmd_verify_null",
    "moves": "SlideRel.__post_init__ _slide_rel",
    "pairing": "FormalSum.__init__ FormalSum._common_rank FormalSum.dot "
               "FormalSum.dot.<locals>.<genexpr> NullVectorReport.as_text "
               "_ExactSum.__init__ _ExactSum.__init__.<locals>.<dictcomp> "
               "_ExactSum.is_zero __create_fn__.<locals>.__init__ _check_scalar _merge "
               "_reduce _reduce.<locals>.<genexpr> _root certificate_from_json "
               "sum_from_json verify_null verify_null.<locals>.<genexpr>",
    "presentations": "CanonicalKey.sort_key CanonicalKey.sort_key.<locals>.<genexpr>",
}
VERIFY_SMOVE = {
    "cli": "cmd_verify_smove cmd_verify_smove.<locals>.load_scripts "
           "cmd_verify_smove.<locals>.load_scripts.<locals>.<listcomp> "
           "cmd_verify_smove.<locals>.load_scripts.<locals>.<listcomp>.<lambda>",
    "constructions": "verify_smove_certificates",
    "moves": "<lambda>.<locals>.<genexpr> RSFactor.__post_init__ "
             "RestrictedSlide.__post_init__ _restricted_slide",
    "presentations": "product",
    "words": "LetterBudget.charge_tokens commutator",
}


def base(*parts) -> set:
    return {(f"acpair.{module}", name) for part in parts
            for module, names in part.items() for name in names.split()}


def trusted_base(argv) -> tuple:
    """main(argv)'s exit code and the (module, qualname) of every acpair
    code object it calls."""
    canonical_key.cache_clear()
    cli.build_parser.cache_clear()
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("acpair"):
                seen.add((module, frame.f_code.co_qualname))

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
    forward = MoveScript((ConjRel(2, (1,)), InvRel(3),
                          RestrictedSlide(2, (RSFactor((2,), 3, 1, (-1,)),))), "k_prime")
    l2 = Presentation(l1.gens, replay(product(l1, l1), forward).relators[2:])
    to_second = MoveScript((ConjRel(0, (1,)), InvRel(1),
                            RestrictedSlide(0, (RSFactor((2,), 1, 1, (-1,)),))), "k_prime")
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
