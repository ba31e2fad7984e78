import argparse
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from acpair import cli, constructions, moves, pairing, words
from acpair.cli import build_parser, main
from acpair.constructions import WitnessBudget, lustig, witness_to_json
from acpair.homology import chain_to_json
from acpair.moves import MoveScript, SearchBudget, SlideRel, script_to_json
from acpair.presentations import (Presentation, format_presentation,
                                  make_presentation, parse_presentation)
from acpair.words import identity_images

from chain_fixtures import cyclic_group, dump_group_csv, random_gn_fixture
from lustig_fixtures import lustig_witness_pair, write_lustig_inputs


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


def test_normalize_json_format(tmp_path, capsys):
    path = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    _, text, _ = run(capsys, "normalize", path)
    code, out, _ = run(capsys, "normalize", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rank": 3, "key": text.removesuffix("\n")}


def test_lustig_cli_index_over_the_letter_bound(tmp_path, capsys):
    out_path = tmp_path / "k.pres"
    code, _, err = run(capsys, "lustig", "99999", "-o", out_path)
    assert code == 2
    assert "lustig(99999) spells out more than 1000000 letters" in err
    assert not out_path.exists()


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


def test_stabilized_script_file_round_trips(tmp_path, capsys):
    p = make_presentation("x", ["x"])
    script = MoveScript((moves.AddTrivialRel(), moves.RemoveTrivialRel(1)),
                        "k_prime", stabilized=True)
    data = script_to_json(script, p.gens)
    assert data["stabilized"] is True
    assert moves.script_from_json(json.loads(json.dumps(data)), p.gens) == script
    code, out, _ = run(capsys, "apply", write(tmp_path / "p.pres", format_presentation(p)),
                       write(tmp_path / "s.json", json.dumps(data)))
    assert (code, out) == (0, format_presentation(p))


def test_restricted_slide_refuses_a_partial_product_over_the_word_bound(tmp_path,
                                                                         capsys):
    # each factor [(x y)^50000, y] spells one letter in the file and adds
    # 200,000 to relator 2: the fifth partial product passes the bound, and
    # the product of twenty would be a 4,000,001-letter tuple, 32 MB of
    # pointers
    pres = write(tmp_path / "p.pres", "gens: x y\nrel: " + "x y " * 50_000 + "\nrel: x\n")
    peaks = []
    for count in (5, 20):
        script = write(tmp_path / "s.json", json.dumps([
            {"op": "RestrictedSlide", "j": 2,
             "factors": [{"w": "1", "k": 1, "sign": 1, "h": "y"}] * count}]))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "apply", pres, script)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "move 1 (RestrictedSlide): relator of 1000001 letters exceeds" in err
    assert peaks[1] < peaks[0] + 1_000_000 and peaks[1] < 24_000_000, peaks


def fibonacci_slides(count):
    """SlideRel moves alternating between relators 1 and 2: from x and y
    the relator built by move n has Fibonacci(n + 2) letters."""
    return MoveScript(tuple(SlideRel(n % 2, 1 - n % 2, "right") for n in range(count)))


def test_apply_rejects_a_relator_over_the_word_bound(tmp_path, capsys):
    # move 28 builds a relator of F(30) = 832,040 letters, move 29 one of
    # F(31) = 1,346,269, more than a parsed word may hold
    pres = write(tmp_path / "p.pres", "gens: x y\nrel: x\nrel: y\n")
    script = write(tmp_path / "s.json", json.dumps(
        script_to_json(fibonacci_slides(32), ("x", "y"))))
    out_path = tmp_path / "out.pres"
    code, _, err = run(capsys, "apply", pres, script, "-o", out_path)
    assert code == 2
    assert "move 29 (SlideRel): relator of 1346269 letters exceeds" in err
    assert not out_path.exists()


def test_verify_null_fails_a_certificate_over_the_word_bound(tmp_path, capsys):
    p = make_presentation("x y", ["x", "y"])
    cert = pairing.EquivalenceCertificate(p, p, fibonacci_slides(32), "grow")
    bundle = tmp_path / "b"
    os.makedirs(bundle / "certs")
    write(bundle / "x.sum",
          json.dumps([{"coeff": 1, "presentation": format_presentation(p)}]))
    write(bundle / "certs" / "grow.json", json.dumps(pairing.certificate_to_json(cert)))
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 1
    assert ("certificate grow: FAILED - replay failed: move 29 (SlideRel): "
            "relator of 1346269 letters exceeds") in out
    assert out.endswith("null vector: NO\n")


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


def test_pipeline_and_verify_null_with_supplied_witnesses(tmp_path, capsys):
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    code, out, _ = run(capsys, "pipeline", k1, k2, "--witnesses", wdir,
                       "-o", bundle)
    assert code == 0, out
    assert "stabilizations: 3" in out
    assert (bundle / "x.sum").exists()
    assert sorted(p.name for p in (bundle / "certs").iterdir()) == [
        "cross.json", "cross_second.json", "first_self.json",
        "second_self.json"]
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 0
    assert "null vector: yes" in out
    code, out, _ = run(capsys, "verify-null", bundle, "--format", "json")
    assert code == 0
    assert json.loads(out)["null"] is True


def test_verify_null_reads_words_once_and_tables_once_per_context(tmp_path, capsys,
                                                                 monkeypatch):
    # the words of a bundle come out of the parser reduced, so reduce only
    # checks them, and each presentation text and each script with words
    # builds its token table once, not once per word
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    assert main(["pipeline", k1, k2, "--witnesses", str(wdir), "-o", str(bundle)]) == 0
    counts = Counter()

    def counting(name):
        f = getattr(words, name)

        def counted(*args):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(words, name, counted)

    counting("_reduce_letters")
    counting("_letter_tokens")
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 0 and "null vector: yes" in out
    texts = [item["presentation"] for item in json.loads((bundle / "x.sum").read_text())]
    scripts = []
    for path in (bundle / "certs").iterdir():
        cert = json.loads(path.read_text())
        texts += [cert["lhs"], cert["rhs"]]
        scripts.append([move["op"] for move in cert["script"]["moves"]])
    # no script renames a generator, so each holds one naming context
    assert not {"AddGen", "RemoveGen"} & {op for ops in scripts for op in ops}
    with_words = [ops.count("ConjRel") for ops in scripts if "ConjRel" in ops]
    assert len(texts) == 10 and len(with_words) == 2
    assert counts["_reduce_letters"] == 0
    assert counts["_letter_tokens"] == len(texts) + len(with_words)
    # 206 words over 12 tables: the two cross scripts hold 152 ConjRel words,
    # one per change of conjugator, so a table serves more than 15 words
    words_read = sum(text.count("rel:") for text in texts) + sum(with_words)
    assert words_read > 15 * counts["_letter_tokens"], (words_read, counts)


def test_iso_load_builds_one_token_table_per_side(tmp_path, monkeypatch):
    # an --iso file's words are read against one token table per
    # presentation, not one per word, so loading it is linear in the rank
    tables = Counter()
    build = words._letter_tokens

    def counted(names):
        tables[len(names)] += 1
        return build(names)

    monkeypatch.setattr(words, "_letter_tokens", counted)
    for rank in (2, 300):
        p = Presentation(tuple(f"x{i}" for i in range(rank)), ())
        q = Presentation(tuple(f"y{i}" for i in range(rank)), ())
        iso = write(tmp_path / f"iso{rank}.json", json.dumps(
            {"y_in_x": [f"x{i} x{(i + 1) % rank}^-2" for i in range(rank)],
             "x_in_y": list(q.gens)}))
        tables.clear()
        witness = cli._load_iso_witness(iso, p, q)
        assert tables == {rank: 2}
        assert witness.y_in_x[-1] == (rank, -1, -1)
        assert witness.x_in_y == identity_images(rank)


def test_cli_import_leaves_multiprocessing_out():
    # the process pool is imported only where pipeline --jobs starts one
    code = "import sys, acpair.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


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


def test_pipeline_refuses_an_existing_output_and_leaves_no_partial_bundle(
        tmp_path, capsys):
    a = write(tmp_path / "a.pres", format_presentation(lustig(1)))
    bundle = tmp_path / "b"
    assert run(capsys, "pipeline", a, a, "-o", bundle)[0] == 0
    before = (bundle / "x.sum").read_text()
    code, _, err = run(capsys, "pipeline", a, a, "-o", bundle)
    assert code == 2 and f"output {bundle} already exists" in err
    assert (bundle / "x.sum").read_text() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.pres", "b"]


def test_pipeline_jobs_below_one_is_an_input_error(tmp_path, capsys):
    k1, k2, _ = write_lustig_inputs(tmp_path)
    for jobs in ("0", "-1"):
        code, _, err = run(capsys, "pipeline", k1, k2, "--jobs", jobs,
                           "-o", tmp_path / f"b{jobs}")
        assert code == 2 and "jobs must be at least 1" in err
        assert not (tmp_path / f"b{jobs}").exists()


BUDGET_FLAGS = [("witness", flag) for flag in ("--max-factors", "--max-conj",
                                                 "--max-states")]
BUDGET_FLAGS += [("pipeline", flag) for flag in ("--max-factors", "--max-conj",
                                                 "--max-states")]
BUDGET_FLAGS += [("search-equiv", flag) for flag in (
    "--depth", "--max-states", "--max-relator-length", "--conj-len")]


@pytest.mark.parametrize("command, flag", BUDGET_FLAGS)
def test_negative_search_budget_is_an_input_error(tmp_path, capsys, command, flag):
    # a negative bound searches an empty space, so it once gave verdicts such
    # as "exhausted after 2 states" for a target that is the relator itself
    pres = write(tmp_path / "p.pres", "gens: x y\nrel: x y x^-1 y^-1\n")
    # a pair one slide apart
    a = write(tmp_path / "a.pres", "gens: x y\nrel: x\nrel: y\n")
    b = write(tmp_path / "b.pres", "gens: x y\nrel: x\nrel: y x\n")
    argv = {"witness": ["witness", pres, "--target", "x y x^-1 y^-1"],
            "pipeline": ["pipeline", a, b, "-o", tmp_path / "b"],
            "search-equiv": ["search-equiv", a, b]}[command]
    code, out, err = run(capsys, *argv, flag, "-1")
    assert code == 2 and out == "", out
    assert err.startswith("error: ") and "must not be negative, not -1" in err
    assert not (tmp_path / "b").exists()
    # the same call with the bound at 0 gives a verdict
    code, _, err = run(capsys, *argv, flag, "0")
    assert code in (0, 1) and err == ""


def test_search_flag_defaults_are_the_budget_defaults():
    parse = build_parser().parse_args
    for args in (parse(["witness", "p", "--target", "x"]),
                 parse(["pipeline", "p", "q", "-o", "b"])):
        assert WitnessBudget(args.max_factors, args.max_conj,
                             args.max_states) == WitnessBudget()
    args = parse(["search-equiv", "p", "q"])
    assert SearchBudget(args.depth, args.max_relator_length, args.max_states,
                        args.conj_len) == SearchBudget()


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # one parser and its twelve subparsers, however many commands run
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built["parsers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    build_parser.cache_clear()
    path = write(tmp_path / "p.pres", "gens: x\nrel: x\n")
    for _ in range(2):
        assert run(capsys, "normalize", path) == (0, "1\ng1\n", "")
    assert built["parsers"] <= 13


def test_certificate_replays_per_command(tmp_path, capsys, monkeypatch):
    # pipeline and verify-null each replay every certificate exactly once.
    counts = Counter()
    for module in (constructions, moves):
        def replay(p, script, budget=None, original=module.replay):
            counts["replay"] += 1
            return original(p, script, budget)
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


@pytest.mark.parametrize("tamper, message", [
    (lambda cert: cert["script"]["moves"].insert(0, {"op": "InvRel", "j": 99}),
     "replay failed: move 1 (InvRel): relator index 98 out of range (have 6)"),
    (lambda cert: cert.update(rhs="gens: r s\n"), "endpoint ranks differ"),
])
def test_verify_null_reports_a_failing_certificate(tmp_path, capsys, tamper, message):
    k1 = write(tmp_path / "k1.pres", format_presentation(lustig(1)))
    bundle = tmp_path / "b"
    code, out, _ = run(capsys, "pipeline", k1, k1, "-o", bundle)
    assert code == 0 and "verify-null: pass" in out, out
    path = bundle / "certs" / "first_self.json"
    cert = json.loads(path.read_text())
    tamper(cert)
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify-null", bundle)
    assert code == 1
    assert f"certificate first_self: FAILED - {message}\n" in out
    assert out.endswith("null vector: NO\n")


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


def test_k_prime_search_memory_does_not_grow_with_conj_len(tmp_path, capsys):
    # at rank 3 there are 5 times as many conjugators with each letter more;
    # a list of every (w, h) pair up to --conj-len 7 alone held 57 MB
    a = write(tmp_path / "a.pres", "gens: x y z\nrel: x\nrel: y\nrel: z\n")
    b = write(tmp_path / "b.pres", "gens: x y z\nrel: x y\nrel: y^2 z\nrel: z^3\n")
    peaks = []
    for conj_len in (1, 7):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "search-equiv", a, b, "--regime", "k_prime",
                               "--conj-len", conj_len, "--max-states", "20")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ("unknown: equivalence search stopped: state_cap after 20 "
                       "states (no claim of inequivalence)\n")
    assert peaks[1] < peaks[0] + 500_000, peaks


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


def test_verify_smove_writes_certificates_that_verify(tmp_path, capsys):
    l1 = make_presentation("x y", ["x", "y x"])
    path = write(tmp_path / "l1.pres", format_presentation(l1))
    sdir = tmp_path / "scripts"
    os.makedirs(sdir)
    for name in ("to_l1l1_1", "to_l2l2_1"):
        write(sdir / f"{name}.json",
              json.dumps(script_to_json(MoveScript((), "k_prime"), ("x", "y"))))
    out_dir = tmp_path / "certs"
    code, out, _ = run(capsys, "verify-smove", path, path, "--scripts", sdir,
                       "-o", out_dir)
    assert (code, out) == (0, "accepted: 2 certificates verified\n")
    written = sorted(out_dir.iterdir())
    assert len(written) == 2
    for cert_path in written:
        cert = pairing.certificate_from_json(json.loads(cert_path.read_text()))
        assert cert_path.name == f"{cert.label}.json"
        assert cert.verify() == (True, "ok")


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


def test_glue_of_0_dimensional_chains_is_an_input_error(tmp_path, capsys):
    chain = write(tmp_path / "c.json", json.dumps(
        {"group": {"order": 1, "identity": 0, "table": [[0]]}, "n": 0,
         "ranks": [1], "entries": []}))
    out_path = tmp_path / "g.json"
    code, _, err = run(capsys, "glue", chain, chain, "-o", out_path)
    assert code == 2
    assert "error: 0-dimensional complexes have no top boundary to glue" in err
    assert not out_path.exists()


def test_homology_group_file_reference(tmp_path, capsys):
    rng = random.Random(61)
    c = random_gn_fixture("c3", 3, rng)
    data = chain_to_json(c)
    data["group"] = "c3.csv"
    write(tmp_path / "c3.csv", dump_group_csv(cyclic_group(3)))
    chain = write(tmp_path / "c.json", json.dumps(data))
    code, out, _ = run(capsys, "homology", chain, "--at", "2")
    assert code == 0
    assert out.strip() == "H_2 = 0"


def test_homology_of_a_dense_256_boundary_takes_the_rank_modulo_p(tmp_path):
    # the rank of d_2 is full modulo P, so no fraction-free echelon runs;
    # with one, this took 7 s on a 2-core box, and without, under 1 s
    rng = random.Random(1)
    matrix = [[rng.randint(-5, 5) for _ in range(256)] for _ in range(256)]
    chain = write(tmp_path / "dense.json", json.dumps(
        {"group": {"order": 1, "identity": 0, "table": [[0]]}, "n": 2,
         "ranks": [1, 256, 256],
         "entries": [[2, r, c, 0, x] for r, row in enumerate(matrix)
                     for c, x in enumerate(row) if x]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "acpair.cli", "homology", chain, "--at", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, "H_2 = 0\n"), proc.stderr
    assert elapsed < 3, elapsed


def test_cli_roundtrip_property(tmp_path, capsys):
    # every presentation printed by a subcommand re-parses to an equal value
    for i in (1, 2, 3):
        path = tmp_path / f"k{i}.pres"
        code, out, _ = run(capsys, "lustig", str(i), "-o", path)
        assert code == 0
        text = path.read_text()
        assert format_presentation(parse_presentation(text)) == text


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


def _witness_over_a_long_relator(tmp_path):
    """A pipeline run on (x y)^50000 whose supplied witness for it
    multiplies forty factors (1, relator 1, +1), each of no letter in the
    file: the eleventh partial product passes the word bound."""
    argv = _pipeline_witness(tmp_path, {
        "target": "x y " * 50_000,
        "factors": [{"g": "1", "r_index": 1, "sign": 1}] * 40})
    write(tmp_path / "k.pres", "gens: x y\nrel: " + "x y " * 50_000 + "\n")
    return argv


def _pipeline_iso(tmp_path, iso, first=PRES_X):
    """A pipeline run from first, over gens x, to gens y through the
    isomorphism iso."""
    p = write(tmp_path / "p.pres", first)
    q = write(tmp_path / "q.pres", "gens: y\nrel: y\n")
    return ["pipeline", p, q, "--iso", write(tmp_path / "iso.json", json.dumps(iso)),
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


def _glue(tmp_path, second):
    """A glue of a one-dimensional complex over the trivial group with the
    same complex, changed by the fields of second."""
    first = {"group": {"order": 1, "identity": 0, "table": [[0]]}, "n": 1,
             "ranks": [1, 1], "entries": []}
    return ["glue", write(tmp_path / "c1.json", json.dumps(first)),
            write(tmp_path / "c2.json", json.dumps({**first, **second}))]


def _smove_relator_counts(tmp_path):
    argv = _smove(tmp_path, {"op": "InvRel", "j": 1})
    argv[2] = write(tmp_path / "l2.pres", "gens: x\nrel: x\nrel: x^2\n")
    return argv


def _missing_group(tmp_path):
    argv = _homology(tmp_path, [2, 0, 0, 0, 2])
    chain = json.loads((tmp_path / "c.json").read_text())
    write(tmp_path / "c.json", json.dumps({**chain, "group": "nope.csv"}))
    return argv


MALFORMED = {
    "sum_unknown_generator": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": "gens: x\nrel: q\n"}]), "x.sum"),
    "sum_empty": (lambda t: _bundle(t, []), "x.sum"),
    "sum_mixed_ranks": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": PRES_X},
            {"coeff": 1, "presentation": "gens: x y\nrel: x\n"}]),
        "mixed ranks in formal sum file"),
    "sum_coeff_exponent": (lambda t: _sum_coeff(t, "1e10000000"), "x.sum"),
    "sum_coeff_zero_denominator": (lambda t: _sum_coeff(t, "1/0"), "x.sum"),
    "sum_coeff_underscore": (lambda t: _sum_coeff(t, " 1_0 "), "x.sum"),
    "sum_coeff_float": (lambda t: _sum_coeff(t, 2.0), "x.sum"),
    "sum_coeff_bool": (lambda t: _sum_coeff(t, True), "x.sum"),
    "sum_presentation_number": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": 5}]), "x.sum"),
    "certificate_lhs_number": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": PRES_X}],
        {"lhs": 7, "rhs": PRES_X, "script": []}), "c.json"),
    "certificate_without_rhs": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": PRES_X}],
        {"lhs": PRES_X, "script": []}), "c.json"),
    "remove_gen_out_of_range": (lambda t: _apply(
        t, [{"op": "RemoveGen", "i": 9}]), "s.json"),
    "remove_gen_index_zero": (lambda t: _apply(
        t, [{"op": "RemoveGen", "i": 0}]), "s.json"),
    # a 1-based index of 0 is -1 in memory, which would name the last relator
    "remove_trivial_rel_index_zero": (lambda t: _apply(
        t, [{"op": "RemoveTrivialRel", "j": 0}]),
        "move 1 (RemoveTrivialRel): relator index -1 out of range (have 1)"),
    "json_invalid": (lambda t: _apply(t, [])[:2] + [write(t / "s.json", '[{"op": ')],
                     "s.json: invalid JSON"),
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
    "witness_targets_another_word": (lambda t: _pipeline_witness(
        t, {"target": "x^2", "factors": [{"g": "1", "r_index": 1, "sign": 1}]}),
        "second_over_first[1]: supplied witness targets the wrong word"),
    "witness_partial_product_over_the_word_bound": (
        _witness_over_a_long_relator,
        "second_over_first[1]: supplied witness: relator of 1100000 letters exceeds"),
    # each conjugator is under the bound, the six of one file are not
    "witness_letters_unbounded": (lambda t: _pipeline_witness(
        t, {"target": "x", "factors": [{"g": "x^900000", "r_index": 1, "sign": 1}] * 6}),
        "second_over_first_1.json"),
    "witness_target_and_conjugator_over_the_bound": (lambda t: _pipeline_witness(
        t, {"target": "x^500000", "factors": [{"g": "x^500001", "r_index": 1,
                                               "sign": 1}]}),
        "second_over_first_1.json"),
    "iso_letters_unbounded": (lambda t: _pipeline_iso(
        t, {"y_in_x": ["x^500000"], "x_in_y": ["y^500001"]}), "iso.json"),
    "pipeline_without_iso_over_other_generators": (lambda t: _pipeline_iso(
        t, {})[:3] + ["-o", t / "bundle"], "an isomorphism witness file is required"),
    # the shortest image over x whose Nielsen moves, which read letters in
    # proportion to its length squared, spend more than MAX_ISO_WORK; x^-1408
    # spends 2,998,398, and the letter budget admits 1,000,000
    "iso_images_over_their_bound": (lambda t: _pipeline_iso(
        t, {"y_in_x": ["x^-1409"], "x_in_y": ["y"]}),
        f"the Nielsen work of the isomorphism witness spells out more than "
        f"{constructions.MAX_ISO_WORK} letters"),
    # a short image over a long relator: each of its moves reads the whole
    # relator
    "iso_image_over_a_long_relator": (lambda t: _pipeline_iso(
        t, {"y_in_x": ["x^-100"], "x_in_y": ["y"]}, "gens: x\nrel: x^1000000\n"),
        f"the Nielsen work of the isomorphism witness spells out more than "
        f"{constructions.MAX_ISO_WORK} letters"),
    # each word is under the bound, all the words of one file are not
    "script_letters_unbounded": (lambda t: _apply(
        t, [{"op": "ConjRel", "j": 1, "w": "x^999999"}] * 12), "s.json"),
    "smove_script_letters_unbounded": (lambda t: _smove(
        t, {"op": "RestrictedSlide", "j": 1, "factors": [
            {"w": "x^500000", "k": 2, "sign": 1, "h": "x^500001"}]}), "to_l1l1_1.json"),
    "certificate_letters_unbounded": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": PRES_X}],
        {"lhs": "gens: x\nrel: x^400000\n", "rhs": "gens: x\nrel: x^400000\n",
         "script": [{"op": "ConjRel", "j": 1, "w": "x^200001"}]}), "c.json"),
    "sum_letters_unbounded": (lambda t: _bundle(
        t, [{"coeff": 1, "presentation": "gens: x\nrel: x^500000\n"},
            {"coeff": 1, "presentation": "gens: x\nrel: x^500001\n"}]), "x.sum"),
    "json_nested_too_deep": (_nested_sum, "x.sum"),
    "smove_relator_counts_differ": (_smove_relator_counts,
                                    "presentations must have the same relator count"),
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
    # the group has order 1: element 0 only
    "chain_element_negative": (lambda t: _homology(t, [2, 0, 0, -1, 2]),
                               "c.json: group element index -1 out of range"),
    "chain_element_past_order": (lambda t: _homology(t, [2, 0, 0, 1, 2]),
                                 "c.json: group element index 1 out of range"),
    # a term with coefficient 0 names an element all the same
    "chain_element_in_zero_term": (lambda t: _homology(t, [2, 0, 0, 99, 0]),
                                   "c.json: group element index 99 out of range"),
    # 100 bytes that would restrict to a 1,000,000 x 1 integer matrix
    "chain_rank_unbounded": (lambda t: _bare_chain(t, (1, 1000000), 1), "c.json"),
    # the ranks are refused before any entry is read
    "chain_rank_unbounded_and_bad_entry": (lambda t: _homology(
        t, [2, 0, 0, 0, 2.5], (1, 1000000, 1)),
        "c.json: boundary 1 restricts to a 1000000 x 1 integer matrix"),
    "chain_rank_negative": (lambda t: _bare_chain(t, (1, -1), 0), "c.json"),
    # the chain file was read: the error names it as the prefix, then the
    # group file it could not read
    "chain_group_file_missing": (_missing_group, "c.json: group file nope.csv"),
    "chain_group_csv_underscore": (lambda t: _homology(
        t, [2, 0, 0, 0, 2], group_csv="2,0\n0,1\n1,0_0\n"), "g.csv"),
    "glue_over_different_groups": (lambda t: _glue(
        t, {"group": {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}}),
        "complexes over different groups"),
    "glue_of_different_dimensions": (lambda t: _glue(t, {"n": 2, "ranks": [1, 1, 1]}),
                                     "dimension mismatch"),
    "relation_with_two_equals_signs": (lambda t: ["normalize", write(
        t / "eq.pres", "gens: x\nrel: x = x = x\n")], "more than one '=' in relation"),
    "presentation_of_comments_only": (lambda t: ["normalize", write(
        t / "c.pres", "# no generators\n# and no relators\n")], "missing gens line"),
    # x^+3, x^1_0 and x^(Arabic-Indic 3) are not name^k with k = -?[0-9]+
    "word_exponent_not_ascii_decimal": (lambda t: ["normalize", write(
        t / "exp.pres", "gens: x\nrel: x^+3 x^1_0 x^\u0663\n")], "exp.pres: bad exponent"),
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


def test_witness_and_iso_files_at_the_letter_budget_load(tmp_path):
    # all the words of one file share MAX_WORD_LENGTH letters, which a file
    # may use to the last letter
    names = ("x",)
    os.makedirs(tmp_path / "wits")
    write(tmp_path / "wits" / "w_1.json", json.dumps(
        {"target": "x^999998", "factors": [{"g": "x^2", "r_index": 1, "sign": 1}]}))
    (wit,) = cli._load_witness_dir(tmp_path / "wits", "w_", 1, names)
    assert wit.target == (1,) * 999_998 and wit.factors == (((1, 1), 0, 1),)
    p, q = parse_presentation(PRES_X), parse_presentation("gens: y\nrel: y\n")
    path = write(tmp_path / "iso.json", json.dumps(
        {"y_in_x": ["x^999999"], "x_in_y": ["y"]}))
    iso = cli._load_iso_witness(path, p, q)
    assert iso.y_in_x == ((1,) * 999_999,) and iso.x_in_y == ((1,),)


def test_script_certificate_and_sum_files_at_the_letter_budget_load(tmp_path):
    # the words of a script file, of a certificate's lhs, rhs and script,
    # and of a sum file's presentations share MAX_WORD_LENGTH letters
    conj = [{"op": "ConjRel", "j": 1, "w": "x^400000"},
            {"op": "ConjRel", "j": 1, "w": "x^-600000"}]
    script = cli._load(write(tmp_path / "s.json", json.dumps(conj)),
                       lambda data: moves.script_from_json(data, ("x",)), json=True)
    assert script.moves == (moves.ConjRel(0, (1,) * 400_000),
                            moves.ConjRel(0, (-1,) * 600_000))
    cert = cli._load(write(tmp_path / "c.json", json.dumps(
        {"lhs": "gens: x\nrel: x^300000\n", "rhs": "gens: x\nrel: x^300000\n",
         "script": conj[:1]})), pairing.certificate_from_json, json=True)
    assert cert.lhs.relators == ((1,) * 300_000,) and cert.script.moves == script.moves[:1]
    x, reps = cli._load(write(tmp_path / "x.sum", json.dumps(
        [{"coeff": 1, "presentation": "gens: x\nrel: x^500000\n"},
         {"coeff": 2, "presentation": "gens: x\nrel: x^-500000\n"}])),
        pairing.sum_from_json, json=True)
    assert [x.coefficient(key) for key in reps] == [3]
