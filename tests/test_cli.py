import errno
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from convlab import io
from convlab.cli import main
from convlab.families import Carrier, ValidationError
from convlab.functors import topologize
from convlab.zoo import chain_pretopology, sierpinski

P3_DOC = {"vicinity": {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]}}
IDENT_DOC = {"map": {"a": "a", "b": "b", "c": "c"}}

# malformed documents, each with the message naming its defect
MALFORMED_DOCS = {
    "string-value": (
        {"points": ["a"], "lim": {"a": "a"}},
        "lim value for 'a' must be a list of labels"),
    "vicinity-list": (
        {"vicinity": [["a"]]},
        '"vicinity" must map each point to a list of labels'),
    "alias-keys": (
        {"points": ["a", "b"],
         "lim": {"a": ["a"], "b": ["b"], "a,b": [], "b,a": ["a"]}},
        "lim keys 'a,b' and 'b,a' name the same subset"),
    "vicinity-unknown-point": (
        {"points": ["a"], "vicinity": {"a": ["a"], "z": ["a"]}},
        "vicinity names unknown point 'z'"),
    # labels that a lim key, a comma-joined label list, cannot spell
    "comma-label": (
        {"vicinity": {"a,b": ["a,b"], "c": ["c"]}},
        "point label 'a,b' must be nonempty and free of ','"),
    "empty-label": (
        {"vicinity": {"": [""], "a": ["a", ""]}},
        "point label '' must be nonempty and free of ','"),
    "lim-and-vicinity": (
        {"points": ["a"], "lim": {"a": ["a"]}, "vicinity": {"a": ["a"]}},
        'document has both a "lim" table and a "vicinity" map'),
    # labels that are not point labels: a nested list, a number, null
    "nested-lim-value": (
        {"points": ["a"], "lim": {"a": [["a"]]}},
        "lim value for 'a' must be a list of labels"),
    "number-lim-value": (
        {"points": ["a"], "lim": {"a": [1]}},
        "lim value for 'a' must be a list of labels"),
    "null-lim-value": (
        {"points": ["a"], "lim": {"a": [None]}},
        "lim value for 'a' must be a list of labels"),
    "nested-vicinity": (
        {"vicinity": {"a": [["a"]]}},
        "vicinity of 'a' must be a list of labels"),
    "number-vicinity": (
        {"vicinity": {"a": [1]}}, "vicinity of 'a' must be a list of labels"),
    "null-vicinity": (
        {"vicinity": {"a": [None]}},
        "vicinity of 'a' must be a list of labels"),
    "list-document": ([["a"]], "document must be a JSON object"),
    "no-table": (
        {"points": ["a"]}, 'document needs a "lim" table or "vicinity" map'),
    "empty-set-key": (
        {"points": ["a"], "lim": {"a": ["a"], "": []}},
        "lim key for the empty set is not allowed"),
    # a lim key with an empty label part names no point, so it spells no
    # subset, not even the one its other parts name
    "empty-inner-key-part": (
        {"points": ["a", "b"], "lim": {"a": ["a"], "b": ["b"], "a,,b": []}},
        "lim key 'a,,b': no point labelled ''"),
    "empty-outer-key-parts": (
        {"points": ["a"], "lim": {",a,": ["a"]}},
        "lim key ',a,': no point labelled ''"),
    "uncentered-lim": (
        {"points": ["a", "b"], "lim": {"a": [], "b": ["b"], "a,b": []}},
        "centered axiom violated at point a"),
}

# malformed map documents on the source a, b onto p, q, with their messages
MALFORMED_MAPS = {
    "unknown-target": (
        {"map": {"a": "p", "b": "z"}},
        ["map value for 'b' must be a target label, got 'z'"]),
    "non-string-value": (
        {"map": {"a": "p", "b": 1}},
        ["map value for 'b' must be a target label, got 1"]),
    "unknown-source": (
        {"map": {"a": "p", "b": "q", "c": "p"}},
        ["map names unknown source point 'c'"]),
    "every-problem": (
        {"map": {"a": ["p"], "c": "q"}},
        ["map names unknown source point 'c'",
         "map value for 'a' must be a target label, got ['p']",
         "map must be total; missing ['b']"]),
}

# documents that name an unknown point z, with every message they raise
UNKNOWN_LABEL_DOCS = {
    "lim-key": (
        {"points": ["a", "b"], "lim": {"a": ["a"], "b": ["b"], "a,z": []}},
        ["lim key 'a,z': no point labelled 'z'", "missing lim entry for a,b"]),
    "lim-value": (
        {"points": ["a", "b"], "lim": {"a": ["a"], "b": ["b", "z"], "a,b": []}},
        ["lim value for 'b' must be a list of labels"]),
    "vicinity": (
        {"vicinity": {"a": ["a", "z"], "b": ["b"]}},
        ["vicinity of 'a' must be a list of labels"]),
    "vicinity-key": (
        {"points": ["a"], "vicinity": {"a": ["a"], "z": ["z"]}},
        ["vicinity names unknown point 'z'"]),
}

# malformed family documents on the carrier a, b, with their messages
MALFORMED_FAMILIES = {
    "unknown-label": (
        [["a"], ["z"]], ["family member ['z'] must be a list of point labels"]),
    "non-string-label": (
        [["a"], [1]], ["family member [1] must be a list of point labels"]),
    "every-problem": (
        [["a", "y"], [None], ["b"]],
        ["family member ['a', 'y'] must be a list of point labels",
         "family member [None] must be a list of point labels"]),
}


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(P3_DOC))
    return str(path)


@pytest.fixture()
def tp3_file(tmp_path):
    path = tmp_path / "tp3.json"
    path.write_text(io.dump_json(io.convergence_to_doc(
        topologize(chain_pretopology()))))
    return str(path)


@pytest.fixture()
def ident_file(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(IDENT_DOC))
    return str(path)


class TestIO:
    def test_vicinity_shorthand_expands(self):
        conv = io.convergence_from_doc(P3_DOC)
        assert conv.table == chain_pretopology().table

    def test_round_trip(self):
        conv = chain_pretopology()
        doc = io.convergence_to_doc(conv)
        assert io.convergence_from_doc(doc).table == conv.table

    def test_missing_entry_diagnosed(self):
        doc = io.convergence_to_doc(sierpinski())
        del doc["lim"]["0,1"]
        with pytest.raises(ValidationError) as exc:
            io.convergence_from_doc(doc)
        assert any("missing lim entry" in v for v in exc.value.violations)

    def test_unknown_label_diagnosed(self):
        doc = {"points": ["a"], "lim": {"a": ["z"]}}
        with pytest.raises(ValidationError):
            io.convergence_from_doc(doc)

    def test_axiom_violation_diagnosed_with_point_name(self):
        doc = {"vicinity": {"a": ["b"], "b": ["b"]}}
        with pytest.raises(ValidationError) as exc:
            io.convergence_from_doc(doc)
        assert any("centered axiom violated at point a" in v
                   for v in exc.value.violations)

    @pytest.mark.parametrize("vicinity, violations", [
        ({"a": ["a"]}, ["vicinity map misses point b"]),
        ({"a": ["b"]}, ["centered axiom violated at point a",
                        "vicinity map misses point b"]),
    ], ids=["centered", "off-centre"])
    def test_point_without_a_vicinity_is_only_missing(self, vicinity,
                                                      violations):
        with pytest.raises(ValidationError) as exc:
            io.convergence_from_doc({"points": ["a", "b"],
                                     "vicinity": vicinity})
        assert exc.value.violations == violations

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_malformed_document_rejected(self, case):
        doc, message = MALFORMED_DOCS[case]
        with pytest.raises(ValidationError) as exc:
            io.convergence_from_doc(doc)
        assert message in exc.value.violations

    @pytest.mark.parametrize("case", sorted(UNKNOWN_LABEL_DOCS))
    def test_unknown_label_messages(self, case):
        doc, messages = UNKNOWN_LABEL_DOCS[case]
        with pytest.raises(ValidationError) as exc:
            io.convergence_from_doc(doc)
        assert exc.value.violations == messages

    def test_unknown_map_label_messages(self):
        with pytest.raises(ValidationError) as exc:
            io.map_from_doc({"map": {"a": "p", "z": "q"}},
                            Carrier(("a", "b")), Carrier(("p", "q")))
        assert exc.value.violations == [
            "map names unknown source point 'z'",
            "map must be total; missing ['b']"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
    def test_malformed_map_rejected(self, case):
        doc, messages = MALFORMED_MAPS[case]
        with pytest.raises(ValidationError) as exc:
            io.map_from_doc(doc, Carrier(("a", "b")), Carrier(("p", "q")))
        assert exc.value.violations == messages

    @pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
    def test_malformed_family_rejected(self, case):
        doc, messages = MALFORMED_FAMILIES[case]
        with pytest.raises(ValidationError) as exc:
            io.family_from_doc(doc, Carrier(("a", "b")))
        assert exc.value.violations == messages

    def test_family_doc(self):
        carrier = chain_pretopology().carrier
        assert carrier.labels == ("a", "b", "c")
        fam = io.family_from_doc([["a"], ["c", "b"], ["a"]], carrier)
        assert fam.masks == {0b001, 0b110}


class TestCLI:
    def test_validate_ok(self, p3_file, capsys):
        assert main(["validate", p3_file]) == 0
        assert "ok (3 points)" in capsys.readouterr().out

    def test_validate_corrupted_names_axiom(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"vicinity": {"a": ["b"], "b": ["b"]}}))
        assert main(["validate", str(bad)]) == 2
        assert "centered axiom violated at point a" in capsys.readouterr().out

    def test_validate_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2
        assert "malformed JSON" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "reflect"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 200_000, b"[" + b"1" * 5000 + b"]",
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    def test_unreadable_json_exits_2(self, command, content, tmp_path,
                                     capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = (["validate", str(bad)] if command == "validate"
                else ["reflect", "--functor", "T", "--input", str(bad)])
        assert main(argv) == 2
        printed = capsys.readouterr()
        # validate leads its line with the path, the others their error line
        lead = "" if command == "validate" else "error: "
        line = printed.out + printed.err
        assert line.startswith(f"{lead}{bad}: malformed JSON (")
        assert line.count(str(bad)) == 1

    def test_validate_output_is_the_same_under_every_hash_seed(self,
                                                               tmp_path):
        # every nonempty set of a, b, c except the singletons breaks
        # antitony, so the messages render two- and three-label sets
        doc = {"points": ["a", "b", "c"],
               "lim": {",".join(labels): list(labels)
                       for labels in ("a", "b", "c", "ab", "ac", "bc",
                                      "abc")}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        import convlab
        src = os.path.dirname(os.path.dirname(convlab.__file__))
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "convlab.cli", "validate", str(bad)],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True).stdout
            for seed in ("1", "2")}
        assert len(outputs) == 1
        assert "lim^{'a', 'b', 'c'} exceeds lim^{'b', 'c'}" in outputs.pop()

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_validate_malformed_document_exits_2(self, case, tmp_path,
                                                 capsys):
        doc, message = MALFORMED_DOCS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["laws", "tables"])
    def test_unsupported_size_is_an_input_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--size", "7"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_oversized_carrier_capped(self, tmp_path, p3_file, capsys):
        """A carrier outside the cap is reported against its file, and the
        files after it are still validated."""
        docs = {"big": {"vicinity": {f"p{i}": [f"p{i}"] for i in range(17)}},
                "empty": {"points": []}}
        paths = []
        for name, doc in docs.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        assert main(["validate", *map(str, paths), p3_file]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{paths[0]}: carrier size 17 outside 1..16",
            f"{paths[1]}: carrier size 0 outside 1..16",
            f"{p3_file}: ok (3 points)"]

    @pytest.mark.parametrize("directory, code", [
        (False, errno.ENOENT), (True, errno.EISDIR)],
        ids=["missing", "directory"])
    def test_validate_unopenable_file_named_once(self, directory, code,
                                                 tmp_path, p3_file, capsys):
        """A file that cannot be opened is reported once against its path,
        and the files after it are still validated."""
        path = tmp_path / "unopenable.json"
        if directory:
            path.mkdir()
        assert main(["validate", str(path), p3_file]) == 2
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"{path}: {os.strerror(code)}", f"{p3_file}: ok (3 points)"]
        assert out.count(str(path)) == 1

    def test_reflect_golden(self, p3_file, capsys):
        assert main(["reflect", "--functor", "T", "--input", p3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lim"]["c"] == ["a", "b", "c"]
        assert doc["lim"]["a,b,c"] == ["a"]

    def test_reflect_coreflector_identity(self, p3_file, capsys):
        assert main(["reflect", "--functor", "Seq", "--input", p3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert io.convergence_from_doc(doc).table == chain_pretopology().table

    def test_classify_map_golden(self, p3_file, tp3_file, ident_file, capsys):
        assert main(["classify-map", "--map", ident_file,
                     "--source", p3_file, "--target", tp3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        c = doc["classification"]
        assert c["continuous"] and c["quotient"] and c["closed"]
        assert not c["hereditarily_quotient"] and not c["adherent"]
        assert not c["open"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
    def test_classify_malformed_map_exits_2(self, case, tmp_path, capsys):
        doc, messages = MALFORMED_MAPS[case]
        files = {"map": doc, "source": {"vicinity": {"a": ["a"], "b": ["b"]}},
                 "target": {"vicinity": {"p": ["p"], "q": ["q"]}}}
        args = ["classify-map"]
        for name, content in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content))
            args += [f"--{name}", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {m}" for m in messages]

    @pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
    def test_check_compact_malformed_family_exits_2(self, case, tmp_path,
                                                    capsys):
        doc, messages = MALFORMED_FAMILIES[case]
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"vicinity": {"a": ["a"], "b": ["b"]}}))
        fam, at = tmp_path / "fam.json", tmp_path / "at.json"
        fam.write_text(json.dumps(doc))
        at.write_text(json.dumps([["a"]]))
        assert main(["check-compact", "--space", str(space),
                     "--family", str(fam), "--at", str(at)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {m}" for m in messages]

    @pytest.mark.parametrize("command", [
        ["reflect", "--functor", "T", "--input", "{dir}"],
        ["search", "--predicate", "almost_open_not_open", "--emit", "{dir}"],
    ])
    def test_directory_for_a_file_exits_2(self, command, tmp_path, capsys):
        args = [a.format(dir=tmp_path) for a in command]
        assert main(args) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(tmp_path) in line

    def test_enumerate_negative_count_exits_2(self, capsys):
        assert main(["enumerate", "--size", "2", "--class", "convergence",
                     "--seed", "1", "--count", "-5"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: enumeration count must not be negative, got -5"]

    def test_classify_map_witnesses(self, p3_file, tp3_file, ident_file,
                                    capsys):
        assert main(["classify-map", "--map", ident_file, "--source", p3_file,
                     "--target", tp3_file, "--witness"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "adherent" in doc["witnesses"]

    def test_classify_map_witness_builds_one_record(
            self, p3_file, tp3_file, ident_file, monkeypatch, capsys):
        from convlab import maps
        built = []
        init = maps.MapFacts.__init__

        def counted(self, *args, **kw):
            built.append(args[0])
            init(self, *args, **kw)
        monkeypatch.setattr(maps.MapFacts, "__init__", counted)
        assert main(["classify-map", "--map", ident_file, "--source", p3_file,
                     "--target", tp3_file, "--witness"]) == 0
        assert len(built) == 1
        assert json.loads(capsys.readouterr().out)["witnesses"]

    def test_sixteen_point_witness_document_is_pinned(self, tmp_path, capsys):
        """The identity from the discrete 16-point space onto a random
        16-point pretopology (the recipe the CI job runs) fails 11 flags;
        the sha256 of the document printed, as first recorded."""
        points = [f"x{i}" for i in range(16)]
        rng = random.Random(16)
        docs = {
            "target": {"vicinity": {
                p: sorted({p} | set(rng.sample(points, 4))) for p in points}},
            "source": {"vicinity": {p: [p] for p in points}},
            "map": {"map": {p: p for p in points}},
        }
        args = ["classify-map", "--witness"]
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            args += [f"--{name}", str(path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["witnesses"]) == 11
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2c1a66c3f135c78686065785ced70788dca8b0190b115b0a7b94a1e91672265d")

    def test_check_compact(self, tmp_path, capsys):
        space = tmp_path / "sierp.json"
        space.write_text(io.dump_json(io.convergence_to_doc(sierpinski())))
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps([["0"]]))
        assert main(["check-compact", "--space", str(space),
                     "--family", str(fam), "--at", str(fam),
                     "--class", "F"]) == 0
        assert json.loads(capsys.readouterr().out)["compact"] is True

    def test_check_compact_defaults_to_the_whole_carrier(self, tmp_path,
                                                          capsys):
        """--at has no default: at the whole carrier every family is
        compact on a finite space, so a default could only answer yes.
        {a, b} is not compact at {a} on the discrete space on a, b."""
        space = tmp_path / "discrete.json"
        space.write_text(json.dumps({"vicinity": {"a": ["a"], "b": ["b"]}}))
        fam, at = tmp_path / "fam.json", tmp_path / "at.json"
        fam.write_text(json.dumps([["a", "b"]]))
        at.write_text(json.dumps([["a"]]))
        base = ["check-compact", "--space", str(space), "--family", str(fam)]
        with pytest.raises(SystemExit) as exc:
            main(base)
        assert exc.value.code == 2
        assert "--at" in capsys.readouterr().err
        assert main(base + ["--at", str(at)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "compact": False, "class": "F"}

    @pytest.mark.parametrize("options, message", [
        (["--class", "topology", "--seed", "1", "--count", "20"],
         "only convergences are sampled, not the class 'topology'"),
        (["--class", "pretopology", "--seed", "1", "--count", "20"],
         "only convergences are sampled, not the class 'pretopology'"),
        (["--class", "topology", "--seed", "3"], "a seed needs a count"),
        (["--class", "convergence", "--count", "5"], "sampling needs a seed"),
    ], ids=["topology", "pretopology", "seed-alone", "count-alone"])
    def test_enumerate_sampling_options_exit_2(self, options, message,
                                               capsys):
        assert main(["enumerate", "--size", "3", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_enumerate_count_only(self, capsys):
        assert main(["enumerate", "--size", "3", "--class", "pretopology",
                     "--count-only"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 64

    def test_enumerate_emits_documents(self, capsys):
        assert main(["enumerate", "--size", "2", "--class", "topology"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 4
        for doc in docs:
            io.convergence_from_doc(doc)

    def test_enumerate_every_convergence_on_two_points(self, capsys):
        """Without sampling, the size-2 convergences: lim ^{a}, lim ^{b}
        and lim ^{a,b} of each of the 9, in enumeration order."""
        assert main(["enumerate", "--size", "2",
                     "--class", "convergence"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs == [
            {"points": ["a", "b"], "lim": {"a": a, "b": b, "a,b": ab}}
            for a, b, ab in (
                (["a"], ["b"], []),
                (["a", "b"], ["b"], []),
                (["a", "b"], ["b"], ["b"]),
                (["a"], ["a", "b"], []),
                (["a", "b"], ["a", "b"], []),
                (["a", "b"], ["a", "b"], ["b"]),
                (["a"], ["a", "b"], ["a"]),
                (["a", "b"], ["a", "b"], ["a"]),
                (["a", "b"], ["a", "b"], ["a", "b"]))]

    def test_enumerate_topologies_past_their_cap_exits_2(self, capsys):
        assert main(["enumerate", "--size", "5", "--class", "topology"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: topologies are enumerated up to n=4"]

    @pytest.mark.parametrize("size", ["0", "5", "17"])
    def test_enumerate_sampling_past_the_caps_exits_2(self, size, capsys):
        """A carrier outside 1..16 points, or seeded sampling above 4
        points (a scan over 2^(2^n) downset candidates), is refused at
        once instead of hanging or silently shrinking."""
        assert main(["enumerate", "--size", size, "--class", "convergence",
                     "--seed", "1", "--count", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_enumerate_samples_four_points(self, capsys):
        assert main(["enumerate", "--size", "4", "--class", "convergence",
                     "--seed", "1", "--count", "1"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        assert io.convergence_from_doc(doc).carrier.size == 4

    def test_search_emits_witness_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["search", "--predicate", "almost_open_not_open",
                     "--emit", str(out)]) == 0
        emitted = json.loads(out.read_text())
        assert set(emitted) == {"map", "source", "target"}

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_search_limit_below_one_exits_2(self, limit, capsys):
        assert main(["search", "--predicate", "closed_not_adherent",
                     "--limit", limit]) == 2
        assert "limit" in capsys.readouterr().err

    def test_search_cut_at_its_limit_is_not_exhausted(self, capsys):
        assert main(["search", "--predicate", "closed_not_adherent",
                     "--limit", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["examined"] == 1 and doc["exhausted"] is False

    def test_exemplar_fan_and_prime(self, capsys):
        assert main(["exemplar", "fan", "--check"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["exemplar", "prime", "--check"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_exemplar_without_check_is_an_input_error(self, capsys):
        assert main(["exemplar", "fan"]) == 2

    def test_table_format(self, p3_file, capsys):
        assert main(["reflect", "--functor", "T", "--input", p3_file,
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "lim:" in out

    def test_table_format_prints_key_value_lines(self, p3_file, ident_file,
                                                 capsys):
        assert main(["classify-map", "--map", ident_file, "--source", p3_file,
                     "--target", p3_file, "--format", "table"]) == 0
        flags = dict.fromkeys(
            ("continuous", "open", "almost_open", "biquotient",
             "countably_biquotient", "hereditarily_quotient", "quotient",
             "perfect", "countably_perfect", "adherent", "closed"), True)
        assert capsys.readouterr().out.splitlines() == [
            "classification:",
            *(f"  {name}: {value}"
              for name, value in {**flags, "graph_closed": False}.items())]

    def test_table_format_separates_documents_by_dashes(self, capsys):
        assert main(["enumerate", "--size", "2", "--class", "topology",
                     "--format", "table"]) == 0
        docs = capsys.readouterr().out.split("-\n")
        assert docs[-1] == ""
        assert docs[:-1] == [
            "points:\n  a\n  b\nlim:\n"
            f"  a:\n{a}  b:\n{b}  a,b:\n{ab}"
            for a, b, ab in (
                ("    a\n    b\n", "    a\n    b\n", "    a\n    b\n"),
                ("    a\n    b\n", "    b\n", "    b\n"),
                ("    a\n", "    a\n    b\n", "    a\n"),
                ("    a\n", "    b\n", ""))]

    def test_tables_command(self, capsys):
        assert main(["tables", "--size", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_sweep_suites_ok"] is True
        rows = {(r["perfect_like"], r["quotient_like"])
                for r in doc["implication_table"]}
        assert ("closed", "quotient") in rows
        assert doc["adherent_differs_from_closed_witness"] is not None

    def test_laws_small(self, capsys):
        assert main(["laws", "--size", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["suites"]) >= 12
        assert sum(s["instances"] for s in doc["suites"]) > 1000


class TestInternalFault:
    """A disagreement between two kernel routes is a fault of the program:
    exit code 3 and one JSON line on stderr naming the routes."""

    @pytest.fixture(autouse=True)
    def cover_route_without_triggers(self, monkeypatch):
        # the cover routes then hold wherever the other routes fail
        from convlab import maps
        monkeypatch.setattr(maps.MapFacts, "_cover_triggers",
                            lambda self, pairs: ())

    @staticmethod
    def internal_message(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "internal"
        return doc["message"]

    def test_classify_map(self, p3_file, tp3_file, ident_file, capsys):
        assert main(["classify-map", "--map", ident_file,
                     "--source", p3_file, "--target", tp3_file]) == 3
        message = self.internal_message(capsys)
        assert "quotient routes disagree" in message
        assert "cover=True" in message

    def test_laws(self, capsys):
        assert main(["laws", "--size", "2"]) == 3
        assert "routes disagree" in self.internal_message(capsys)
