import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from acpair import constructions, pairing
from acpair.cli import build_parser, main
from acpair.constructions import WitnessBudget, lustig, witness_to_json
from acpair.homology import chain_to_json
from acpair.moves import MoveScript, SearchBudget, SlideRel, script_to_json
from acpair.presentations import (format_presentation, make_presentation,
                                  parse_presentation)

from chain_fixtures import random_gn_fixture
from lustig_fixtures import lustig_witness_pair


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_golden(tmp_path, capsys):
    path = tmp_path / "k1.pres"
    code, out, _ = run(capsys, "lustig", "1", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    assert out == ("3\n"
                   "g2^2 g3^-3\n"
                   "g1^2 g2^3 g1^-2 g2^-3\n"
                   "g1^2 g3^4 g1^-2 g3^-4\n")


def test_normalize_is_conjugation_invariant(tmp_path, capsys):
    a = write(tmp_path / "a.pres", "gens: x y\nrel: y x y^-1\n")
    b = write(tmp_path / "b.pres", "gens: x y\nrel: x\n")
    _, out_a, _ = run(capsys, "normalize", a)
    _, out_b, _ = run(capsys, "normalize", b)
    assert out_a == out_b


def test_apply_and_roundtrip(tmp_path, capsys):
    pres = write(tmp_path / "p.pres", "gens: x y\nrel: x\nrel: y\n")
    script = tmp_path / "s.json"
    p = parse_presentation(Path(pres).read_text())
    write(script, json.dumps(script_to_json(
        MoveScript((SlideRel(1, 0, "right"),)), p.gens)))
    code, out, _ = run(capsys, "apply", pres, script)
    assert code == 0
    assert parse_presentation(out).relators == ((1,), (2, 1))


def test_apply_illegal_move_exit_2(tmp_path, capsys):
    pres = write(tmp_path / "p.pres", "gens: x\nrel: x\n")
    script = write(tmp_path / "s.json",
                   json.dumps([{"op": "RemoveTrivialRel", "j": 1}]))
    code, out, err = run(capsys, "apply", pres, script)
    assert code == 2
    assert "move 1" in err


def test_product_cli(tmp_path, capsys):
    a = write(tmp_path / "a.pres", "gens: x\nrel: x\n")
    b = write(tmp_path / "b.pres", "gens: x\nrel: x^2\n")
    code, out, _ = run(capsys, "product", a, b)
    assert code == 0
    assert parse_presentation(out).relators == ((1,), (1, 1))
    c = write(tmp_path / "c.pres", "gens: x y\n")
    code, _, err = run(capsys, "product", a, c)
    assert code == 2


def test_witness_cli(tmp_path, capsys):
    pres = write(tmp_path / "p.pres", "gens: x\nrel: x\n")
    code, out, _ = run(capsys, "witness", pres, "--target", "x^2",
                       "--max-factors", "4", "--max-conj", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["factors"]) == 2
    code, out, _ = run(capsys, "witness", write(tmp_path / "q.pres",
                                                "gens: x\nrel: x^2\n"),
                       "--target", "x", "--max-factors", "4", "--max-conj", "2",
                       "--max-states", "2000")
    assert code == 1
    assert "unknown" in out
    assert "stopped: exhausted after" in out
    code, out, _ = run(capsys, "witness", tmp_path / "q.pres", "--target",
                       "x", "--max-factors", "4", "--max-conj", "2",
                       "--max-states", "1")
    assert code == 1
    assert "unknown" in out and "state_cap" in out


def test_witness_cli_rank_limit(tmp_path, capsys):
    # the search stores one letter per byte: generators 1 to 127 only
    gens = " ".join(f"g{i}" for i in range(1, 129))
    pres = write(tmp_path / "p.pres", f"gens: {gens}\nrel: g1\nrel: g127\n")
    code, out, _ = run(capsys, "witness", pres, "--target", "g127 g1^2")
    assert code == 0 and len(json.loads(out)["factors"]) == 3
    high_rel = write(tmp_path / "q.pres", f"gens: {gens}\nrel: g128\n")
    for path, target in ((pres, "g128"), (high_rel, "g1")):
        code, _, err = run(capsys, "witness", path, "--target", target)
        assert code == 2 and "at most 127 generators" in err
        assert "Traceback" not in err


def write_lustig_inputs(tmp_path):
    """lustig(1), lustig(2) and a directory of their fixture witnesses."""
    k1 = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    k2 = write(tmp_path / "k2.pres", format_presentation(lustig(2)))
    wdir = tmp_path / "wits"
    os.makedirs(wdir)
    w12, w21 = lustig_witness_pair(1, 2)
    names = lustig(1).gens
    for i, wit in enumerate(w12):
        write(wdir / f"second_over_first_{i+1}.json",
              json.dumps(witness_to_json(wit, names)))
    for i, wit in enumerate(w21):
        write(wdir / f"first_over_second_{i+1}.json",
              json.dumps(witness_to_json(wit, names)))
    return k1, k2, wdir


def test_pipeline_and_verify_null_with_supplied_witnesses(tmp_path, capsys):
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    code, out, _ = run(capsys, "pipeline", k1, k2, "--witnesses", wdir,
                       "-o", bundle)
    assert code == 0, out
    assert "stabilizations: 3" in out
    assert (bundle / "x.sum").exists()
    assert sorted(p.name for p in (bundle / "certs").iterdir()) == [
        "cross.json", "first_self.json", "second_self.json",
        "stabilized_bridge.json"]
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 0
    assert "null vector: yes" in out
    code, out, _ = run(capsys, "verify-null", bundle, "--format", "json")
    assert code == 0
    assert json.loads(out)["null"] is True


def test_pipeline_same_key_bundle_verifies(tmp_path, capsys):
    # x = a - a is the zero sum; its file still names the presentation
    # (coefficient 0), so that verify-null can read the sum's rank
    a = write(tmp_path / "a.pres", format_presentation(lustig(1)))
    bundle = tmp_path / "b"
    code, out, _ = run(capsys, "pipeline", a, a, "-o", bundle)
    assert code == 0 and "verify-null: pass" in out, out
    assert json.loads((bundle / "x.sum").read_text()) == [
        {"coeff": 0, "presentation": format_presentation(lustig(1))}]
    code, out, err = run(capsys, "verify-null", bundle)
    assert code == 0, err
    assert "null vector: yes" in out


def test_pipeline_jobs_below_one_is_an_input_error(tmp_path, capsys):
    k1, k2, _ = write_lustig_inputs(tmp_path)
    for jobs in ("0", "-1"):
        code, _, err = run(capsys, "pipeline", k1, k2, "--jobs", jobs,
                           "-o", tmp_path / f"b{jobs}")
        assert code == 2 and "jobs must be at least 1" in err
        assert not (tmp_path / f"b{jobs}").exists()


def test_search_flag_defaults_are_the_budget_defaults():
    parse = build_parser().parse_args
    for args in (parse(["witness", "p", "--target", "x"]),
                 parse(["pipeline", "p", "q", "-o", "b"])):
        assert WitnessBudget(args.max_factors, args.max_conj,
                             args.max_states) == WitnessBudget()
    args = parse(["search-equiv", "p", "q"])
    assert SearchBudget(args.depth, args.max_relator_length, args.max_states,
                        args.conj_len) == SearchBudget()


def test_certificate_replays_per_command(tmp_path, capsys, monkeypatch):
    # pipeline and verify-null each replay every certificate exactly once.
    counts = Counter()
    for module in (constructions, pairing):
        def replay(p, script, original=module.replay):
            counts["replay"] += 1
            return original(p, script)
        monkeypatch.setattr(module, "replay", replay)
    verify = pairing.EquivalenceCertificate.verify

    def counted_verify(cert):
        counts["verify"] += 1
        return verify(cert)

    monkeypatch.setattr(pairing.EquivalenceCertificate, "verify", counted_verify)
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    code, out, _ = run(capsys, "pipeline", k1, k2, "--witnesses", wdir, "-o", bundle)
    assert code == 0, out
    assert "certificates: 4" in out and "verify-null: pass" in out
    assert counts["replay"] == 4
    assert counts["verify"] == 4
    counts.clear()
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 0 and "null vector: yes" in out
    assert counts == {"replay": 4, "verify": 4}
    # with an isomorphism witness the normalization replays both sides once
    counts.clear()
    p = write(tmp_path / "p.pres", "gens: x\nrel: x^2\n")
    q = write(tmp_path / "q.pres", "gens: y\nrel: y^2\n")
    iso = write(tmp_path / "iso.json", json.dumps({"y_in_x": ["x"], "x_in_y": ["y"]}))
    code, out, _ = run(capsys, "pipeline", p, q, "--iso", iso, "-o", tmp_path / "iso")
    assert code == 0 and "verify-null: pass" in out, out
    assert counts == {"replay": 6, "verify": 4}


def test_pipeline_unknown_exits_1(tmp_path, capsys):
    k1 = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    k2 = write(tmp_path / "k2.pres", format_presentation(lustig(2)))
    bundle = tmp_path / "bundle"
    code, out, _ = run(capsys, "pipeline", k1, k2, "--max-factors", "2",
                       "--max-conj", "1", "--max-states", "200", "-o", bundle)
    assert code == 1
    assert "unknown witnesses" in out
    line = ("unknown witnesses (no claim): "
            "second_over_first[2] (exhausted after 20 states), "
            "second_over_first[3] (exhausted after 20 states), "
            "first_over_second[2] (exhausted after 20 states), "
            "first_over_second[3] (exhausted after 20 states)")
    assert line in out.splitlines()
    assert line in (bundle / "report.txt").read_text().splitlines()


def test_pipeline_unknown_labels_match_witness_files(tmp_path, capsys):
    # second_over_first_2.json supplies relator 2, so only relator 3 of that
    # direction is left unknown, under the label second_over_first[3]
    k1 = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    k2 = write(tmp_path / "k2.pres", format_presentation(lustig(2)))
    wdir = tmp_path / "wits"
    os.makedirs(wdir)
    w12, _ = lustig_witness_pair(1, 2)
    write(wdir / "second_over_first_2.json",
          json.dumps(witness_to_json(w12[1], lustig(1).gens)))
    code, out, _ = run(capsys, "pipeline", k1, k2, "--witnesses", wdir,
                       "--max-factors", "2", "--max-conj", "1",
                       "--max-states", "200", "-o", tmp_path / "bundle")
    assert code == 1
    unknown = next(line for line in out.splitlines()
                   if line.startswith("unknown witnesses"))
    assert "second_over_first[3]" in unknown
    assert "second_over_first[2]" not in unknown
    assert "first_over_second[2]" in unknown


def test_verify_null_detects_broken_bundle(tmp_path, capsys):
    # a sum with no certificates has a surviving self-product
    bundle = tmp_path / "b"
    os.makedirs(bundle / "certs")
    p = make_presentation("x", ["x"])
    write(bundle / "x.sum",
          json.dumps([{"coeff": 1, "presentation": format_presentation(p)}]))
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 1
    assert "null vector: NO" in out


def test_search_equiv_cli(tmp_path, capsys):
    a = write(tmp_path / "a.pres", "gens: x y\nrel: x y\nrel: y\n")
    b = write(tmp_path / "b.pres", "gens: x y\nrel: x\nrel: y\n")
    out_script = tmp_path / "s.json"
    code, out, _ = run(capsys, "search-equiv", a, b, "--depth", "2",
                       "-o", out_script)
    assert code == 0
    data = json.loads(out_script.read_text())
    assert data["moves"]
    # the same pair under a cap of 2 states: the Unknown says it was capped
    code, out, _ = run(capsys, "search-equiv", a, b, "--depth", "2",
                       "--max-states", "2")
    assert code == 1
    assert out == ("unknown: equivalence search stopped: state_cap after 2 "
                   "states (no claim of inequivalence)\n")
    k1 = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    k2 = write(tmp_path / "k2.pres", format_presentation(lustig(2)))
    code, out, _ = run(capsys, "search-equiv", k1, k2, "--depth", "3",
                       "--max-states", "400", "--conj-len", "1")
    assert code == 1
    assert out == ("unknown: equivalence search stopped: exhausted after 243 "
                   "states (no claim of inequivalence)\n")


def test_verify_smove_cli(tmp_path, capsys):
    l1 = make_presentation("x y", ["x", "y x"])
    l2_path = write(tmp_path / "l2.pres", format_presentation(l1))
    l1_path = write(tmp_path / "l1.pres", format_presentation(l1))
    sdir = tmp_path / "scripts"
    os.makedirs(sdir)
    names = ("x", "y")
    write(sdir / "to_l1l1_1.json",
          json.dumps(script_to_json(MoveScript((), "k_prime"), names)))
    write(sdir / "to_l2l2_1.json",
          json.dumps(script_to_json(MoveScript((), "k_prime"), names)))
    code, out, _ = run(capsys, "verify-smove", l1_path, l2_path,
                       "--scripts", sdir)
    assert code == 0
    # perturb: a raw slide is rejected
    write(sdir / "to_l1l1_1.json", json.dumps(
        {"regime": "k_prime",
         "moves": [{"op": "SlideRel", "j": 3, "k": 1, "side": "right"}]}))
    code, out, _ = run(capsys, "verify-smove", l1_path, l2_path,
                       "--scripts", sdir)
    assert code == 1
    assert "rejected" in out


def test_homology_and_glue_cli(tmp_path, capsys):
    rng = random.Random(60)
    c = random_gn_fixture("c2", 3, rng)
    chain = write(tmp_path / "c.json", json.dumps(chain_to_json(c)))
    code, out, _ = run(capsys, "homology", chain, "--at", "2")
    assert code == 0
    assert out.strip() == "H_2 = 0"
    code, out, _ = run(capsys, "homology", chain, "--at", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["free_rank"] == 1
    glued_path = tmp_path / "g.json"
    code, out, _ = run(capsys, "glue", chain, chain, "-o", glued_path)
    assert code == 0
    code, out, _ = run(capsys, "homology", glued_path, "--at", "2")
    assert code == 0
    assert out.strip() == "H_2 = 0"


def test_homology_group_file_reference(tmp_path, capsys):
    from acpair.homology import dump_group_csv, chain_to_json, FiniteGroup
    rng = random.Random(61)
    c = random_gn_fixture("c3", 3, rng)
    data = chain_to_json(c)
    data["group"] = "c3.csv"
    write(tmp_path / "c3.csv", dump_group_csv(FiniteGroup.cyclic(3)))
    chain = write(tmp_path / "c.json", json.dumps(data))
    code, out, _ = run(capsys, "homology", chain, "--at", "2")
    assert code == 0
    assert out.strip() == "H_2 = 0"


def test_cli_roundtrip_property(tmp_path, capsys):
    # every presentation printed by a subcommand re-parses to an equal value
    for i in (1, 2, 3):
        path = tmp_path / f"k{i}.pres"
        code, out, _ = run(capsys, "lustig", str(i), "-o", path)
        assert code == 0
        text = path.read_text()
        assert format_presentation(parse_presentation(text)) == text


def test_repl_session(tmp_path, capsys, monkeypatch):
    pres = write(tmp_path / "p.pres", "gens: x y\nrel: x\nrel: y\n")
    log = tmp_path / "log.json"
    bad = ["inv 9", "slide 1", "rslide 1 2 a 1 x", "bogus"]
    lines = iter(["conj 1 x,y^-2", "inv 2", "slide 2 1 right", "key", "chi",
                  "inv 1", "undo", "rslide 1 2 -1 1 x", "ninv 1",
                  "nmul 1 2 left", "addgen z", "rmgen 3", "addtriv",
                  "rmtriv 3"] + bad + ["show", "quit"])
    monkeypatch.setattr("builtins.input", lambda *_: next(lines))
    code, out, _ = run(capsys, "repl", pres, "--log", log)
    assert code == 0
    # each bad line reports and the session goes on to show and quit
    assert out.count("error:") == len(bad)
    assert "session script written" in out
    data = json.loads(log.read_text())
    assert data == {"regime": "full", "moves": [
        {"op": "ConjRel", "j": 1, "w": "x y^-2"},
        {"op": "InvRel", "j": 2},
        {"op": "SlideRel", "j": 2, "k": 1, "side": "right"},
        {"op": "RestrictedSlide", "j": 1,
         "factors": [{"w": "1", "k": 2, "sign": -1, "h": "x"}]},
        {"op": "NielsenInv", "i": 1},
        {"op": "NielsenMul", "i": 1, "j": 2, "side": "left"},
        {"op": "AddGen", "name": "z"},
        {"op": "RemoveGen", "i": 3},
        {"op": "AddTrivialRel"},
        {"op": "RemoveTrivialRel", "j": 3}]}


def test_input_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "normalize", tmp_path / "missing.pres")
    assert code == 2
    bad = write(tmp_path / "bad.pres", "gens: x\nrel: zz\n")
    code, _, err = run(capsys, "normalize", bad)
    assert code == 2


PRES_X = "gens: x\nrel: x\n"


def _bundle(tmp_path, x_sum, cert=None):
    os.makedirs(tmp_path / "b" / "certs")
    write(tmp_path / "b" / "x.sum", json.dumps(x_sum))
    if cert is not None:
        write(tmp_path / "b" / "certs" / "c.json", json.dumps(cert))
    return ["verify-null", tmp_path / "b"]


def _sum_coeff(tmp_path, coeff):
    return _bundle(tmp_path, [{"coeff": coeff, "presentation": PRES_X}])


def _apply(tmp_path, script):
    pres = write(tmp_path / "p.pres", PRES_X)
    return ["apply", pres, write(tmp_path / "s.json", json.dumps(script))]


def _smove(tmp_path, move):
    l1 = write(tmp_path / "l1.pres", PRES_X)
    os.makedirs(tmp_path / "scripts")
    write(tmp_path / "scripts" / "to_l1l1_1.json",
          json.dumps({"regime": "k_prime", "moves": [move]}))
    return ["verify-smove", l1, l1, "--scripts", tmp_path / "scripts"]


def _nested_sum(tmp_path):
    argv = _bundle(tmp_path, [])
    write(tmp_path / "b" / "x.sum", "[" * 100_000)
    return argv


def _pipeline_witness(tmp_path, witness):
    """A pipeline run on a supplied witness, or with no witness directory
    at all when witness is None."""
    k = write(tmp_path / "k.pres", PRES_X)
    if witness is not None:
        os.makedirs(tmp_path / "wits")
        write(tmp_path / "wits" / "second_over_first_1.json", json.dumps(witness))
    return ["pipeline", k, k, "--witnesses", tmp_path / "wits",
            "-o", tmp_path / "bundle"]


def _homology(tmp_path, entry, ranks=(1, 1, 1), group_csv=None):
    chain = {"group": {"order": 1, "identity": 0, "table": [[0]]}, "n": 2,
             "ranks": list(ranks), "entries": [entry]}
    if group_csv is not None:
        chain["group"] = write(tmp_path / "g.csv", group_csv)
    return ["homology", write(tmp_path / "c.json", json.dumps(chain)), "--at", "1"]


def _bare_chain(tmp_path, ranks, at):
    chain = {"group": {"order": 1, "identity": 0, "table": [[0]]},
             "n": len(ranks) - 1, "ranks": list(ranks), "entries": []}
    return ["homology", write(tmp_path / "c.json", json.dumps(chain)), "--at", str(at)]


def _missing_group(tmp_path):
    argv = _homology(tmp_path, [2, 0, 0, 0, 2])
    chain = json.loads((tmp_path / "c.json").read_text())
    write(tmp_path / "c.json", json.dumps({**chain, "group": "nope.csv"}))
    return argv


MALFORMED = {
    "sum_unknown_generator": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": "gens: x\nrel: q\n"}]), "x.sum"),
    "sum_empty": (lambda t: _bundle(t, []), "x.sum"),
    "sum_coeff_exponent": (lambda t: _sum_coeff(t, "1e10000000"), "x.sum"),
    "sum_coeff_zero_denominator": (lambda t: _sum_coeff(t, "1/0"), "x.sum"),
    "sum_coeff_underscore": (lambda t: _sum_coeff(t, " 1_0 "), "x.sum"),
    "sum_coeff_float": (lambda t: _sum_coeff(t, 2.0), "x.sum"),
    "sum_coeff_bool": (lambda t: _sum_coeff(t, True), "x.sum"),
    "certificate_without_rhs": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": PRES_X}],
        {"lhs": PRES_X, "script": []}), "c.json"),
    "remove_gen_out_of_range": (lambda t: _apply(
        t, [{"op": "RemoveGen", "i": 9}]), "s.json"),
    "remove_gen_index_zero": (lambda t: _apply(
        t, [{"op": "RemoveGen", "i": 0}]), "s.json"),
    "move_without_op": (lambda t: _apply(t, [{"j": 1}]), "s.json"),
    "move_without_j": (lambda t: _apply(t, [{"op": "InvRel"}]), "s.json"),
    "move_with_text_index": (lambda t: _apply(
        t, [{"op": "InvRel", "j": "a"}]), "s.json"),
    "move_with_float_index": (lambda t: _apply(
        t, [{"op": "InvRel", "j": 1.5}]), "s.json"),
    "move_with_bool_index": (lambda t: _apply(
        t, [{"op": "InvRel", "j": True}]), "s.json"),
    "move_with_number_word": (lambda t: _apply(
        t, [{"op": "ConjRel", "j": 1, "w": 1}]), "s.json"),
    "move_with_number_name": (lambda t: _apply(
        t, [{"op": "AddGen", "name": 5}]), "s.json"),
    "stabilized_as_text": (lambda t: _apply(
        t, {"regime": "k_prime", "stabilized": "false",
            "moves": [{"op": "AddTrivialRel"}]}), "s.json"),
    "apply_output_dir_missing": (lambda t: _apply(
        t, [{"op": "InvRel", "j": 1}]) + ["-o", t / "no_dir" / "out"], "no_dir"),
    "witness_without_factors": (lambda t: _pipeline_witness(
        t, {"target": "x"}), "second_over_first_1.json"),
    "witness_with_float_index": (lambda t: _pipeline_witness(
        t, {"target": "x", "factors": [{"g": "1", "r_index": 1.5, "sign": 1}]}),
        "second_over_first_1.json"),
    "witness_with_number_conjugator": (lambda t: _pipeline_witness(
        t, {"target": "x", "factors": [{"g": 1, "r_index": 1, "sign": 1}]}),
        "second_over_first_1.json"),
    "pipeline_witness_dir_missing": (lambda t: _pipeline_witness(t, None), "wits"),
    "json_nested_too_deep": (_nested_sum, "x.sum"),
    "smove_without_op": (lambda t: _smove(t, {"j": 1}), "to_l1l1_1.json"),
    "smove_unknown_op": (lambda t: _smove(t, {"op": "Twist", "j": 1}),
                         "to_l1l1_1.json"),
    "smove_scripts_dir_missing": (lambda t: _smove(t, {"op": "InvRel", "j": 1})[:-1]
                                  + [t / "no_scripts"], "no_scripts"),
    "chain_float_coefficient": (lambda t: _homology(t, [2, 0, 0, 0, 2.5]), "c.json"),
    "chain_bool_coefficient": (lambda t: _homology(t, [2, 0, 0, 0, True]), "c.json"),
    "chain_float_row": (lambda t: _homology(t, [2, 0.5, 0, 0, 2]), "c.json"),
    "chain_float_rank": (lambda t: _homology(t, [2, 0, 0, 0, 2], (1, 1.5, 1)),
                         "c.json"),
    # 100 bytes that would restrict to a 1,000,000 x 1 integer matrix
    "chain_rank_unbounded": (lambda t: _bare_chain(t, (1, 1000000), 1), "c.json"),
    "chain_rank_negative": (lambda t: _bare_chain(t, (1, -1), 0), "c.json"),
    # the chain file was read: the error names it as the prefix, then the
    # group file it could not read
    "chain_group_file_missing": (_missing_group, "c.json: group file nope.csv"),
    "chain_group_csv_underscore": (lambda t: _homology(
        t, [2, 0, 0, 0, 2], group_csv="2,0\n0,1\n1,0_0\n"), "g.csv"),
    "word_too_long": (lambda t: ["normalize", write(
        t / "long.pres", "gens: x\nrel: x^1000001\n")], "long.pres"),
    # each relator is under the bound, all three together are not
    "presentation_letters_unbounded": (lambda t: ["normalize", write(
        t / "many.pres", "gens: x y\n" + "rel: x^999999 y\n" * 3)], "many.pres"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    build, bad_file = MALFORMED[case]
    code, out, err = run(capsys, *build(tmp_path))
    assert code == 2, (out, err)
    assert err.startswith("error: ") and bad_file in err
    assert "Traceback" not in err
