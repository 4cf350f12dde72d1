"""Command-line surface: JSON envelopes, exit codes, and verb behavior."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qalg.cli import MAX_SWEEP_STEPS, build_parser, main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # only the dense oracle needs numpy, and --version and the JSON
        # envelope print qalg.__version__ without reading package metadata;
        # neither the package nor the CLI may pay for those imports at
        # startup
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        heavy = ("numpy", "scipy", "importlib.metadata")
        for module in ("qalg", "qalg.cli"):
            done = subprocess.run(
                [sys.executable, "-c",
                 f"import sys, {module}; "
                 f"print([m for m in {heavy!r} if m in sys.modules])"],
                env=env, capture_output=True, text=True, timeout=60,
                check=True)
            assert done.stdout.strip() == "[]", module

    def test_verify_all_leaves_scipy_unloaded(self):
        # the dense oracle runs on numpy alone; scipy is a test reference
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qalg.cli import main; "
             "code = main(['verify', '--all']); "
             "print(code, 'numpy' in sys.modules, "
             "[m for m in sys.modules if m.partition('.')[0] == 'scipy'])"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.splitlines()[-1] == "0 True []"

    @pytest.mark.parametrize("preset, preload, want", [
        (None, "", "1"),
        ("3", "", "3"),
        (None, "import numpy; ", None),
    ])
    def test_blas_threads_default_to_one(self, preset, preload, want):
        # main sets each variable to 1 before numpy loads, keeps a value
        # the user set, and leaves a process that already loaded numpy alone
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(src)
        if preset is not None:
            env.update(dict.fromkeys(names, preset))
        done = subprocess.run(
            [sys.executable, "-c",
             f"import json, os, sys; {preload}from qalg.cli import main; "
             "main(['code', 'list', '-n', '2', '-k', '1']); "
             f"print(json.dumps([os.environ.get(v) for v in {names!r}]), "
             "file=sys.stderr)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(done.stderr) == [want] * len(names)

    def test_parser_and_text_verbs_leave_metadata_unloaded(self):
        # --version prints qalg.__version__, so no verb, parser included,
        # loads the package metadata
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qalg.cli import build_parser, main; "
             "build_parser(); "
             "main(['classify', '--expr', 'X(0) X(1)', '--modes', '2']); "
             "print('importlib.metadata' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.splitlines() == [
            "g0: 1 terms on modes [0, 1]; number broken, parity conserved",
            "False"]

    @pytest.mark.parametrize("argv, loads", [
        (["closure", "--expr", "X(0) X(1)", "--expr", "Y(0) Y(1)",
          "--modes", "2"], False),
        (["classify", "--expr", "X(0) X(1)", "--modes", "2"], False),
        (["jw", "--expr", "fd(0) f(1)", "--modes", "2"], False),
        (["code", "list", "-n", "3", "-k", "1"], False),
        (["code", "rate", "-n", "3", "-k", "1"], False),
        (["code", "generator", "-n", "3", "-k", "1", "--format", "json"],
         False),
        (["code", "cphase", "-n", "3", "-k", "1"], False),
        (["code", "synthesize", "-n", "3", "-k", "1"], False),
        (["thermal", "--B", "0.4", "--mu", "1"], False),
        (["enumerate", "-n", "2"], False),
        # the dense oracle, and numpy's printed form of an encoded gate
        (["verify", "--all"], True),
        (["code", "generator", "-n", "3", "-k", "1"], True),
    ])
    def test_verbs_that_load_numpy(self, argv, loads):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys; from qalg.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = main({argv!r})\n"
             "print(code, 'numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["0", str(loads)]

    def test_cli_import_loads_the_cli_alone(self):
        # each handler imports the qalg modules it runs when it is called,
        # and the report writer loads json and hashlib only for JSON; the
        # modules are diffed, as a site .pth file may preload pathlib
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import qalg.cli; "
             "new = set(sys.modules) - before; "
             "print(sorted(m for m in new if m.startswith('qalg.')), "
             "sorted(new & {'json', 'hashlib', 'pathlib', 'dataclasses'}))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "['qalg.cli'] []"

    _PARSE = ("dsl", "errors", "parafermion", "pauli")
    _CODES = ("codes", "errors", "lie", "parafermion", "pauli")

    @pytest.mark.parametrize("argv, loads", [
        (["--version"], ()),
        (["closure", "--expr", "X(0) X(1)", "--expr", "Y(0) Y(1)",
          "--modes", "2"], _PARSE + ("lie",)),
        (["classify", "--expr", "X(0) X(1)", "--modes", "2"], _PARSE),
        (["jw", "--expr", "fd(0) f(1)", "--modes", "2"], _PARSE + ("jw",)),
        (["jw", "--expr", "ad(0) a(1)", "--modes", "2"], _PARSE),
        (["jw", "--string-op", "1", "--modes", "2"], _PARSE + ("jw",)),
        (["enumerate", "-n", "2"], _PARSE),
        (["code", "list", "-n", "3", "-k", "1"], _CODES),
        (["code", "generator", "-n", "3", "-k", "1"], _CODES),
        (["code", "synthesize", "-n", "3", "-k", "1"], _CODES),
        (["verify", "car"], _CODES + ("jw", "verifier")),
        (["thermal", "--B", "0.4", "--mu", "1"], ("thermal",)),
    ])
    def test_each_verb_loads_only_its_modules(self, argv, loads):
        # a text report loads neither json nor hashlib, no verb loads
        # pathlib, and --version loads no qalg module past the CLI
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys\n"
             "before = set(sys.modules)\n"
             "from qalg.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    try:\n"
             f"        code = main({argv!r})\n"
             "    except SystemExit as stop:\n"
             "        code = stop.code\n"
             "new = set(sys.modules) - before\n"
             "print(code, sorted(m for m in new if m.startswith('qalg.')), "
             "sorted(new & {'json', 'hashlib', 'pathlib'}))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        want = sorted(f"qalg.{m}" for m in ("cli", *loads))
        assert done.stdout.strip() == f"0 {want} []"

    def test_cli_functions_read_only_bound_globals(self):
        # a handler imports what it runs, so an import it forgets fails only
        # when the branch that reads the name runs; every global name that
        # a function or lambda of cli reads must be bound at module level
        # or be a builtin
        import builtins
        import symtable

        path = Path(__file__).resolve().parent.parent / "src" / "qalg" / "cli.py"
        top = symtable.symtable(path.read_text(), str(path), "exec")
        bound = {s.get_name() for s in top.get_symbols()
                 if s.is_assigned() or s.is_imported()} | set(dir(builtins))
        unbound = []

        def walk(table):
            for child in table.get_children():
                if child.get_type() == "function":
                    unbound.extend(
                        (child.get_name(), child.get_lineno(), s.get_name())
                        for s in child.get_symbols()
                        if s.is_global() and s.is_referenced()
                        and s.get_name() not in bound)
                walk(child)

        walk(top)
        assert not unbound

    def test_lie_import_leaves_codes_unloaded(self):
        # codes imports lie for its synthesis closure; lie imports no codes
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, qalg.lie; print('qalg.codes' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_modules_import_only_public_names_at_top(self):
        # no module reaches into another's private names, and lie and codes
        # import their qalg dependencies at module top, not to dodge a cycle;
        # no module reads the environment, so no knob hides behind one (cli
        # only defaults numpy's BLAS thread counts with os.environ.setdefault,
        # which qalg never reads back); and only pauli reads an
        # OperatorSum's or a Scalar's stored reading, or turns a rational
        # into integers, so numbers enter the kernel through
        # integer_reading and its format stays behind the kernel calls
        env_names = {"environ", "environb", "getenv", "getenvb"}
        storage = {"_terms", "_den", "_reading", "numerator", "denominator",
                   "as_integer_ratio"}

        def reads_environment(node):
            if isinstance(node, ast.Attribute):
                return (isinstance(node.value, ast.Name)
                        and node.value.id == "os" and node.attr in env_names)
            return (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(a.name in env_names for a in node.names))

        def from_qalg(node):
            if isinstance(node, ast.ImportFrom):
                return node.level > 0 or (node.module or "").startswith("qalg")
            return isinstance(node, ast.Import) and any(
                a.name.startswith("qalg") for a in node.names)

        package = Path(__file__).resolve().parent.parent / "src" / "qalg"
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            defaults = {id(node.value) for node in ast.walk(tree)
                        if path.stem == "cli"
                        and isinstance(node, ast.Attribute)
                        and node.attr == "setdefault"}
            assert not [node for node in ast.walk(tree)
                        if reads_environment(node)
                        and id(node) not in defaults], path.name
            if path.stem != "pauli":
                assert not [node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)
                            and node.attr in storage], path.name
            for node in filter(from_qalg, ast.walk(tree)):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, private)
            if path.stem in ("lie", "codes"):
                for fn in ast.walk(tree):
                    if isinstance(fn, ast.FunctionDef):
                        assert not any(map(from_qalg, ast.walk(fn))), (
                            path.name, fn.name)

    def test_exports_resolve_to_their_definitions(self):
        import qalg

        for name in qalg.__all__:
            module = qalg._SOURCE[name]
            owner = importlib.import_module(f"qalg.{module}")
            want = owner if name == module else getattr(owner, name)
            assert getattr(qalg, name) is want, name
        assert "realize" in qalg.__all__ and "PauliTerm" not in qalg.__all__
        with pytest.raises(AttributeError):
            qalg.PauliTerm

    def test_benchmark_entry_points_exist(self):
        # the benchmark calls and wraps these by name
        from qalg.pauli import OperatorSum, Scalar

        wrapped = {
            "cli": ["main"],
            "dsl": ["parse_script", "parse_expr", "print_expr"],
            "parafermion": ["to_pauli", "classify"],
            "jw": ["jw_fermion_to_pauli"],
            "lie": ["close", "classify_algebra", "close_on_subspace"],
            "codes": ["synthesize_su_d", "encoded_generator"],
            "pauli": ["realize", "matrix_exponential"],
            "verifier": ["conjugate_eighth"],
        }
        for module, names in wrapped.items():
            owner = importlib.import_module(f"qalg.{module}")
            for name in names:
                assert callable(getattr(owner, name, None)), f"{module}.{name}"
        for cls, names in ((OperatorSum, ["apply_basis_state", "__mul__",
                                          "__add__"]),
                           (Scalar, ["__mul__", "__add__"])):
            for name in names:
                assert name in cls.__dict__, f"{cls.__name__}.{name}"
        import qalg.verifier
        assert "car" in qalg.verifier.CHECKS


class TestUnwritableReport:
    """A report that cannot be written exits 2 with one line on stderr,
    as bad input does, and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["code", "list", "-n", "3", "-k", "1", "--out", "{missing}/x.json"],
        # su(2^N)'s expected_dim has 4301 digits, past Python's limit for
        # converting an int to text
        ["closure", "--expr", "X(0)", "--modes", "7143", "--format", "json"],
    ])
    def test_exits_two_without_traceback(self, tmp_path, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        done = subprocess.run([sys.executable, "-m", "qalg.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("qalg: ")
        assert not (tmp_path / "missing").exists()
        if argv[0] == "closure":
            assert done.stderr.startswith(
                "qalg: closure: the report holds an integer past Python's "
                "digit limit for text")
            assert "set_int_max_str_digits" not in done.stderr


class TestEnvelope:
    def test_schema_and_hash_stability(self, tmp_path):
        code, doc = run_json(tmp_path, "closure", "--expr", "X(0)", "--expr", "Z(0)",
                             "--modes", "1")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["body"]["dimension"] == 3
        code2, doc2 = run_json(tmp_path, "closure", "--expr", "X(0)", "--expr", "Z(0)",
                               "--modes", "1")
        assert doc2["input_hash"] == doc["input_hash"]

    def test_hash_tracks_inputs(self, tmp_path):
        _, a = run_json(tmp_path, "closure", "--expr", "X(0)", "--modes", "1")
        _, b = run_json(tmp_path, "closure", "--expr", "Y(0)", "--modes", "1")
        assert a["input_hash"] != b["input_hash"]

    def test_file_hash_follows_content(self, tmp_path):
        script = tmp_path / "g.ops"
        script.write_text("modes: 1\ng = X(0)\n")
        _, a = run_json(tmp_path, "closure", "--file", str(script))
        script.write_text("modes: 1\ng = Y(0)\n")
        _, b = run_json(tmp_path, "closure", "--file", str(script))
        assert a["input_hash"] != b["input_hash"]

    @pytest.mark.parametrize("verb, sample, digest", [
        ("closure", "xy_chain.ops",
         "cf0315db252cbb690114da05f161f14aed4a8ce183518a2dc70fd8d482ad1749"),
        ("classify", "xy_chain.ops",
         "3c7b0498e5e406e54b8811b216e612e04109e31ca0f99bcac936c724ca38a6e7"),
        ("closure", "single_qubit.ops",
         "5a7eacf12da3bfc1b909c527d31b487b666dffebe1af0f3abdc72bcdfb149893"),
        ("classify", "single_qubit.ops",
         "40885990a144d2737d0487d0e0818d02a4e7716d3363aa1b8cc89d2cfabb7c8b"),
    ])
    def test_sample_hashes_pinned(self, tmp_path, verb, sample, digest):
        # the script is hashed by its content, whatever path names it
        _, doc = run_json(tmp_path, verb, "--file", str(SAMPLES / sample))
        assert doc["input_hash"] == digest

    def test_successive_calls_keep_defaults_apart(self, tmp_path):
        # one parser serves every call in a process; no option of one call
        # may leak into the next
        assert build_parser() is build_parser()
        chain = str(SAMPLES / "xy_chain.ops")
        _, fresh = run_json(tmp_path, "closure", "--file", chain)
        code, capped = run_json(tmp_path, "closure", "--file", chain,
                                "--label", "capped", "--max-dim", "2")
        assert code == 0 and not capped["body"]["closed"]
        _, narrow = run_json(tmp_path, "enumerate", "-n", "2",
                             "--filter", "number", "--limit", "3")
        assert narrow["body"]["count"] == 6
        _, again = run_json(tmp_path, "closure", "--file", chain)
        assert again["input_hash"] == fresh["input_hash"]
        assert again["body"] == fresh["body"]
        assert again["body"]["closed"] and again["body"]["label"] == "closure"
        _, plain = run_json(tmp_path, "enumerate", "-n", "2")
        assert plain["body"]["filter"] is None and plain["body"]["count"] == 16
        text = tmp_path / "plain.txt"
        assert main(["enumerate", "-n", "1", "--out", str(text)]) == 0
        assert text.read_text().startswith("4 transfer monomials")

    def test_json_is_one_compact_line(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["code", "generator", "-n", "4", "-k", "2", "--kind", "x",
                     "--pair", "0,1", "--format", "json", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert doc["body"]["generator"]["action"]["real"][1][3] == 1.0

    def test_version_is_the_package_version(self, capsys):
        # a JSON verb in a fresh process prints qalg.__version__ and never
        # looks the version up in the package metadata
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = ("import io, json, sys\n"
                  "from contextlib import redirect_stdout\n"
                  "import qalg\n"
                  "from qalg.cli import main\n"
                  "out = io.StringIO()\n"
                  "with redirect_stdout(out):\n"
                  "    main(['enumerate', '-n', '1', '--format', 'json'])\n"
                  "print(json.loads(out.getvalue())['version'] == "
                  "qalg.__version__, 'importlib.metadata' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout == "True False\n"
        import qalg
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == qalg.__version__ + "\n"

    def test_version_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestSources:
    """A script declares its own modes and operators, so the generator
    verbs refuse --file beside --expr or --modes instead of ignoring the
    inline flags."""

    @pytest.mark.parametrize("verb", ["closure", "classify"])
    @pytest.mark.parametrize("extra, named", [
        (("--expr", "Z(1)"), "--expr"),
        (("--modes", "7"), "--modes"),
        (("--expr", "Z(1)", "--modes", "7"), "--expr or --modes"),
    ])
    def test_file_with_inline_flags_exits_two(self, tmp_path, capsys, verb,
                                              extra, named):
        script = tmp_path / "ok.ops"
        script.write_text("modes: 2\ng = X(0) X(1)\n")
        out = tmp_path / "x.json"
        assert main([verb, "--file", str(script), *extra,
                     "--format", "json", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qalg: --file cannot be combined with {named}\n")
        assert not out.exists()
        # the script alone is accepted
        assert main([verb, "--file", str(script), "--out", str(out)]) == 0


class TestClosure:
    def test_xy_chain_report(self, tmp_path):
        script = tmp_path / "xy.ops"
        script.write_text(
            "modes: 3\n"
            "occ0 = n(0)\nocc1 = n(1)\nocc2 = n(2)\n"
            "hx01 = ad(0) a(1) + ad(1) a(0)\n"
            "hy01 = i ad(0) a(1) - i ad(1) a(0)\n"
            "hx12 = ad(1) a(2) + ad(2) a(1)\n"
            "hy12 = i ad(1) a(2) - i ad(2) a(1)\n")
        code, doc = run_json(tmp_path, "closure", "--file", str(script))
        assert code == 0
        body = doc["body"]
        assert body["dimension"] == 9
        assert body["closed"] is True
        assert body["universal_full_space"] is False
        hits = [m["name"] for m in body["matches"] if m["hit"]]
        assert "u(N)" in hits

    def test_max_dim_reports_open_closure(self, tmp_path):
        code, doc = run_json(tmp_path, "closure",
                             "--expr", "a(0) + ad(0)",
                             "--expr", "i a(0) - i ad(0)",
                             "--expr", "ad(0) a(1) + ad(1) a(0)",
                             "--modes", "2", "--max-dim", "4")
        assert code == 0
        assert doc["body"]["closed"] is False
        assert doc["body"]["matches"] == []

    def test_cap_at_a_closed_generator_reports_closed(self, tmp_path):
        code, doc = run_json(tmp_path, "closure", "--expr", "X(0)",
                             "--modes", "1", "--max-dim", "1")
        assert code == 0
        body = doc["body"]
        assert (body["dimension"], body["closed"], body["rounds"]) == (1, True, 1)

    def test_cap_at_the_final_dimension_changes_nothing(self, tmp_path):
        chain = str(SAMPLES / "xy_chain.ops")
        _, free = run_json(tmp_path, "closure", "--file", chain)
        assert free["body"]["dimension"] == 9
        _, capped = run_json(tmp_path, "closure", "--file", chain,
                             "--max-dim", "9")
        assert capped["body"] == free["body"]
        _, short = run_json(tmp_path, "closure", "--file", chain,
                            "--max-dim", "8")
        assert not short["body"]["closed"] and short["body"]["dimension"] == 8

    @pytest.mark.parametrize("cap", [(), ("--max-dim", "8")])
    def test_each_generator_is_scanned_once(self, tmp_path, monkeypatch, cap):
        # a closed run reads the flags off classify_algebra's seeds, a
        # capped one off the generators; the chain has seven of each.  The
        # handler imports them from parafermion when it runs, and lie binds
        # its own names at import
        import qalg.lie
        import qalg.parafermion

        calls = []
        for module in (qalg.parafermion, qalg.lie):
            for name in ("conserves_number", "conserves_parity"):
                def spy(op, real=getattr(module, name), name=name):
                    calls.append(name)
                    return real(op)
                monkeypatch.setattr(module, name, spy)
        code, doc = run_json(tmp_path, "closure",
                             "--file", str(SAMPLES / "xy_chain.ops"), *cap)
        assert code == 0
        body = doc["body"]
        assert body["closed"] == (not cap)
        assert body["conserves_number"] and body["conserves_parity"]
        assert calls.count("conserves_number") == 7
        assert calls.count("conserves_parity") == 7

    @pytest.mark.parametrize("max_dim", ["0", "-3"])
    def test_max_dim_below_one_exits_two(self, tmp_path, capsys, max_dim):
        out = tmp_path / "x.json"
        assert main(["closure", "--expr", "X(0)", "--modes", "1",
                     "--max-dim", max_dim, "--out", str(out)]) == 2
        assert "max_dim must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_boson_generators_rejected(self, tmp_path):
        out = tmp_path / "x.json"
        code = main(["closure", "--expr", "bd(0) b(0)", "--modes", "1",
                     "--out", str(out)])
        assert code == 2

    def test_bad_expression_exits_two(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["closure", "--expr", "X0", "--modes", "1",
                     "--out", str(out)]) == 2

    def test_expr_requires_modes(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["closure", "--expr", "X(0)", "--out", str(out)]) == 2


class TestClassify:
    def test_hopping_flags(self, tmp_path):
        code, doc = run_json(tmp_path, "classify",
                             "--expr", "ad(0) a(1) + ad(1) a(0)", "--modes", "2")
        assert code == 0
        (rep,) = doc["body"]["operators"]
        assert rep["conserves_number"] is True
        assert rep["conserves_parity"] is True

    def test_out_of_range_mask_exits_two(self, tmp_path, capsys, monkeypatch):
        # a qubit image whose mask names a missing mode fails where it is
        # built, as an input error; the handler imports to_pauli when it runs
        import qalg.parafermion
        from qalg.pauli import OperatorSum

        def leaky_image(expr):
            return OperatorSum(expr.n_modes, {(1 << expr.n_modes, 0): 1})

        monkeypatch.setattr(qalg.parafermion, "to_pauli", leaky_image)
        out = tmp_path / "x.json"
        assert main(["classify", "--expr", "n(0)", "--modes", "1",
                     "--out", str(out)]) == 2
        assert "mask exceeds the declared mode count" in capsys.readouterr().err
        assert not out.exists()


class TestWorkCounters:
    """Work done by the verbs that map mode expressions to qubits.

    Both fold through integer images, so they form no OperatorSum or
    Scalar product, whether the image table is cold or warm.  With a warm
    table they construct no OperatorSum either: a term's coefficient enters
    the fold as integers, and only the images are built through the
    constructor, once.  Their scripts lex to one token per factor.
    """

    MONOMIALS = ("modes: 8\n"
                 "g0 = 3/2 ad(5) a(2) + 3/2 ad(2) a(5)\n"
                 "g1 = 2 ad(7) ad(1) a(3) + 2 ad(3) a(7) a(1)\n"
                 "g2 = 5/4 ad(6) ad(4) ad(2) a(0) + 5/4 ad(0) a(6) a(4) a(2)\n")

    @pytest.mark.parametrize("verb", ["classify", "jw"])
    def test_image_verbs_multiply_nothing(self, tmp_path, monkeypatch, verb):
        import qalg.parafermion
        from qalg.pauli import OperatorSum, Scalar

        products = {"OperatorSum": 0, "Scalar": 0}
        for cls in (OperatorSum, Scalar):
            for name in ("__mul__", "__rmul__"):
                def spy(self, other, real=getattr(cls, name),
                        key=cls.__name__):
                    products[key] += 1
                    return real(self, other)
                monkeypatch.setattr(cls, name, spy)
        built = []

        def init_spy(self, *args, real=OperatorSum.__init__, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(OperatorSum, "__init__", init_spy)
        if verb == "classify":
            script = tmp_path / "monomials.ops"
            script.write_text(self.MONOMIALS)
            argv = ("classify", "--file", str(script))
        else:
            argv = ("jw", "--modes", "5",
                    "--expr", "3/2i fd(1) f(4) - 3/2i fd(4) f(1)")
        qalg.parafermion._integer_image.cache_clear()
        for _ in range(2):
            built.clear()
            code, doc = run_json(tmp_path, *argv)
            assert code == 0
            assert products == {"OperatorSum": 0, "Scalar": 0}
        # the second run finds every image in the table
        assert built == []
        if verb == "classify":
            flags = [(op["conserves_number"], op["conserves_parity"])
                     for op in doc["body"]["operators"]]
            assert flags == [(True, True), (False, False), (False, True)]
        else:
            assert doc["body"]["result"] == (
                "-3/4 Y(1) Z(2) Z(3) X(4) + 3/4 X(1) Z(2) Z(3) Y(4)")

    def test_monomials_lex_one_token_per_factor(self, tmp_path,
                                                 monkeypatch):
        # g0 lexes to 3, /, 2, two factors, +, 3, /, 2, two factors and
        # the end: 12 tokens; g1 to 10 and g2 to 16.  With one token per
        # letter, parenthesis and index they would be 24, 28 and 40.
        import qalg.dsl

        counts = []
        real = qalg.dsl._tokenize

        def counted(text):
            tokens = real(text)
            counts.append(len(tokens))
            return tokens

        monkeypatch.setattr(qalg.dsl, "_tokenize", counted)
        script = tmp_path / "monomials.ops"
        script.write_text(self.MONOMIALS)
        code, _ = run_json(tmp_path, "classify", "--file", str(script))
        assert code == 0
        assert counts == [12, 10, 16]


class TestDeclaredSpecies:
    """Lines of only n, I and constants take the species a script declares."""

    @pytest.mark.parametrize("species, line, n_terms", [
        ("fermion", "n(0) - n(1)", 2),
        ("qubit", "n(0)", 2),
    ])
    def test_number_lines_parse(self, tmp_path, species, line, n_terms):
        script = tmp_path / "g.ops"
        script.write_text(f"modes: 2\nspecies: {species}\ng = {line}\n")
        code, doc = run_json(tmp_path, "classify", "--file", str(script))
        assert code == 0
        (rep,) = doc["body"]["operators"]
        assert (rep["n_terms"], rep["conserves_number"],
                rep["conserves_parity"]) == (n_terms, True, True)
        code, doc = run_json(tmp_path, "closure", "--file", str(script))
        assert code == 0
        assert (doc["body"]["dimension"], doc["body"]["closed"]) == (1, True)

    @pytest.mark.parametrize("species, line, message", [
        ("boson", "n(0)", "g: bosonic expressions have no exact qubit image"),
        ("fermion", "X(0) X(0)",
         "line 3: fermion script got a qubit expression"),
        ("qubit", "ad(0) a(0) - n(0)",
         "line 3: qubit script got a parafermion expression"),
    ])
    def test_rejected_lines(self, tmp_path, capsys, species, line, message):
        script = tmp_path / "g.ops"
        script.write_text(f"modes: 2\nspecies: {species}\ng = {line}\n")
        for verb in ("closure", "classify"):
            assert main([verb, "--file", str(script),
                         "--out", str(tmp_path / "x.json")]) == 2
            assert message in capsys.readouterr().err

    def test_mixed_species_line_is_numbered(self, tmp_path, capsys):
        script = tmp_path / "g.ops"
        script.write_text("modes: 2\ng0 = a(0) + f(1)\n")
        for verb in ("closure", "classify"):
            assert main([verb, "--file", str(script),
                         "--out", str(tmp_path / "x.json")]) == 2
            assert ("line 2: mixed species ['fermion', 'parafermion']"
                    in capsys.readouterr().err)


class TestJw:
    def test_fermion_expression_maps_to_qubits(self, tmp_path):
        code, doc = run_json(tmp_path, "jw", "--expr", "fd(1) f(0)", "--modes", "2")
        assert code == 0
        assert doc["body"]["species"] == "fermion"
        assert doc["body"]["result"]
        assert doc["body"]["terms"]

    def test_string_op(self, tmp_path):
        code, doc = run_json(tmp_path, "jw", "--string-op", "2", "--modes", "3")
        assert code == 0
        assert doc["body"]["result"] == "Z(0) Z(1)"

    def test_string_op_with_expr_exits_two(self, tmp_path, capsys):
        # --string-op would print the string and drop the expression
        out = tmp_path / "x.json"
        assert main(["jw", "--string-op", "1", "--modes", "3", "--expr",
                     "f(0)", "--format", "json", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qalg: --string-op cannot be combined with --expr\n")
        assert not out.exists()

    def test_qubit_input_rejected(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["jw", "--expr", "X(0)", "--modes", "1",
                     "--out", str(out)]) == 2


class TestCode:
    def test_list(self, tmp_path):
        code, doc = run_json(tmp_path, "code", "list", "-n", "3", "-k", "1")
        assert code == 0
        words = [c["occupations"] for c in doc["body"]["codewords"]]
        assert words == ["001", "010", "100"]
        assert doc["body"]["dim"] == 3
        assert doc["body"]["mode0"] == "leftmost character"
        assert [c["dense_index"] for c in doc["body"]["codewords"]] == [3, 5, 6]

    def test_generator(self, tmp_path):
        code, doc = run_json(tmp_path, "code", "generator", "-n", "3", "-k", "1",
                             "--kind", "x", "--pair", "0,1")
        assert code == 0
        gen = doc["body"]["generator"]
        assert gen["name"] == "Tx(0,1)"
        assert gen["action"]["real"][1][2] == 1.0

    def test_generator_rejects_bad_pair(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["code", "generator", "-n", "3", "-k", "1",
                     "--kind", "x", "--pair", "0,9", "--out", str(out)]) == 2

    def test_rate(self, tmp_path):
        code, doc = run_json(tmp_path, "code", "rate", "-n", "3", "-k", "1")
        assert code == 0
        assert abs(doc["body"]["rate"] - 0.5283208335737188) < 1e-12

    def test_synthesize_nearest_reports_failure_honestly(self, tmp_path):
        code, doc = run_json(tmp_path, "code", "synthesize", "-n", "4", "-k", "2",
                             "--pairs", "nearest")
        # failed synthesis follows the failed-check exit convention
        assert code == 1
        synth = doc["body"]["synthesis"]
        assert synth["success"] is False
        assert synth["dimension_traceless"] == 15
        assert synth["target_dim"] == 35

    def test_synthesize_default_succeeds(self, tmp_path):
        # C(6,3) has d = 20, the default --d-limit
        for n, k, want in (("4", "2", 35), ("6", "3", 399)):
            code, doc = run_json(tmp_path, "code", "synthesize", "-n", n, "-k", k)
            assert code == 0
            synth = doc["body"]["synthesis"]
            assert synth["success"] is True
            assert synth["dimension_traceless"] == want

    @pytest.mark.parametrize("n,k", [(10, 5), (14, 1), (50, 1), (53, 0)])
    def test_code_bound_admits(self, tmp_path, n, k):
        # N * C(N, k) <= 2520: every code on 10 modes, small codes on more,
        # up to 53 modes
        code, doc = run_json(tmp_path, "code", "list", "-n", str(n),
                             "-k", str(k))
        assert code == 0
        assert len(doc["body"]["codewords"]) == doc["body"]["dim"]
        # a reader that holds JSON numbers as doubles reads them exactly
        assert all(int(float(word[f])) == word[f] for word
                   in doc["body"]["codewords"] for f in ("mask", "dense_index"))

    @pytest.mark.parametrize("n,k", [(11, 5), (12, 3), (51, 1), (2521, 0),
                                     (20000, 0), (100000000, 50000000),
                                     (2520, 0), (54, 0), (54, 54)])
    def test_code_bound_refuses_at_once(self, tmp_path, capsys, n, k):
        # C(12, 3) and C(51, 1) are just past the table bound (2640 and
        # 2601 bits); the next three are refused on N alone, before C(N, k)
        # is computed.  The last three fit the table, but their masks or
        # dense indices reach 2**54 - 1 or more, past exact JSON integers.
        out = tmp_path / "x.json"
        start = time.perf_counter()
        assert main(["code", "list", "-n", str(n), "-k", str(k),
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith(f"qalg: code C({n}, {k}) exceeds the code bound")
        table = n > 2520 or n * math.comb(n, k) > 2520
        assert ("at most 2520" if table else "at most 53 modes") in err
        assert not out.exists()

    @pytest.mark.parametrize("action", ["list", "rate", "generator", "cphase",
                                        "synthesize"])
    def test_zero_mode_code_exits_two(self, tmp_path, capsys, action):
        out = tmp_path / "x.json"
        assert main(["code", action, "-n", "0", "-k", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "qalg: n_modes must be positive\n"

    def test_cphase(self, tmp_path):
        code, doc = run_json(tmp_path, "code", "cphase", "-n", "2", "-k", "1")
        assert code == 0
        gate = doc["body"]["cphase"]
        assert gate["left_signs"] == [-1, 1]
        assert gate["right_signs"] == [1, -1]
        assert gate["zz_diagonal"] == [-1, 1, 1, -1]
        assert gate["gate_diagonal"] == [1, -1, -1, 1]

    def test_cphase_zero_mode_right_code_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["code", "cphase", "-n", "2", "-k", "1", "--modes2", "0",
                     "--excitations2", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qalg: right code (--modes2/--excitations2): "
            "n_modes must be positive\n")

    def test_cphase_explicit_zero_right_code(self, tmp_path):
        # an explicit 0 is a value, not "same as the left code"
        code, doc = run_json(tmp_path, "code", "cphase", "-n", "2", "-k", "1",
                             "--excitations2", "0")
        assert code == 0
        assert doc["body"]["cphase"]["right_signs"] == [1]
        assert main(["code", "cphase", "-n", "2", "-k", "1", "--modes2", "0",
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("right", [["--modes2", "0"],
                                       ["--excitations2", "3"]])
    def test_cphase_bad_right_code_is_named(self, tmp_path, capsys, right):
        out = tmp_path / "x.json"
        assert main(["code", "cphase", "-n", "2", "-k", "1", *right,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qalg: right code (--modes2/--excitations2): ")
        assert "invalid for" in err and not out.exists()
        # a bad left code is still reported as the code itself
        assert main(["code", "cphase", "-n", "0", "-k", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("qalg: excitation count")


class TestVerify:
    def test_single_check(self, tmp_path):
        code, doc = run_json(tmp_path, "verify", "car")
        assert code == 0
        (rep,) = doc["body"]["checks"]
        assert rep["name"] == "car" and rep["passed"] is True

    def test_all_checks_pass(self, tmp_path):
        code, doc = run_json(tmp_path, "verify", "--all")
        assert code == 0
        assert len(doc["body"]["checks"]) == 13
        assert all(c["passed"] for c in doc["body"]["checks"])

    def test_unknown_name(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["verify", "nonsense", "--out", str(out)]) == 2

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        import qalg.verifier
        from qalg.verifier import IdentityCheck

        def bad():
            return IdentityCheck("bad", "exact", 0.0, False, 1.0)

        monkeypatch.setitem(qalg.verifier.CHECKS, "bad", bad)
        out = tmp_path / "x.json"
        assert main(["verify", "bad", "--out", str(out)]) == 1


class TestThermal:
    def test_single_temperature(self, tmp_path):
        code, doc = run_json(tmp_path, "thermal", "--B", "0.5", "--mu", "1.0",
                             "--kT", "0.7")
        assert code == 0
        assert doc["body"]["occupations"] == [0.5]

    def test_zero_limit(self, tmp_path):
        code, doc = run_json(tmp_path, "thermal", "--B", "0.2,0.5,0.9",
                             "--mu", "1.0", "--zero-limit")
        assert code == 0
        assert doc["body"]["occupations"] == [1.0, 0.5, 0.0]

    def test_sweep_with_zero_limit_exits_two(self, tmp_path, capsys):
        # a sweep runs at its own kT values and would drop --zero-limit
        out = tmp_path / "x.json"
        assert main(["thermal", "--B", "0.4", "--mu", "1.0", "--sweep",
                     "0:2:3", "--zero-limit", "--format", "json",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qalg: --sweep cannot be combined with --zero-limit\n")
        assert not out.exists()

    def test_sweep(self, tmp_path):
        code, doc = run_json(tmp_path, "thermal", "--B", "0.4", "--mu", "1.0",
                             "--sweep", "0:2:3")
        assert code == 0
        rows = doc["body"]["rows"]
        assert len(rows) == 3
        assert rows[0]["kT"] == 0.0 and rows[0]["occupations"] == [1.0]

    def test_sweep_at_the_step_bound(self, tmp_path):
        code, doc = run_json(tmp_path, "thermal", "--B", "0.4", "--mu", "1.0",
                             "--sweep", f"0:2:{MAX_SWEEP_STEPS}")
        assert code == 0
        assert len(doc["body"]["rows"]) == MAX_SWEEP_STEPS

    def test_sweep_above_the_step_bound_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["thermal", "--B", "0.4", "--mu", "1.0", "--sweep",
                     f"0:2:{MAX_SWEEP_STEPS + 1}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qalg: --sweep allows at most {MAX_SWEEP_STEPS} steps\n")
        assert not out.exists()


class TestEnumerate:
    def test_counts(self, tmp_path):
        code, doc = run_json(tmp_path, "enumerate", "-n", "2", "--filter", "number")
        assert code == 0
        assert doc["body"]["count"] == 6
        assert len(doc["body"]["entries"]) == 6
        assert all(e["conserves_number"] for e in doc["body"]["entries"])

    def test_limit_guard_maps_to_exit_two(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["enumerate", "-n", "9", "--out", str(out)]) == 2

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_mode_count_checked_first(self, tmp_path, capsys, n):
        # -2 used to reach a shift and fail as "negative shift count"
        out = tmp_path / "x.json"
        assert main(["enumerate", "-n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "qalg: n_modes must be positive\n"


class TestTextFormat:
    def test_closure_text_output(self, capsys):
        assert main(["closure", "--expr", "X(0)", "--expr", "Z(0)",
                     "--modes", "1"]) == 0
        text = capsys.readouterr().out
        assert "dimension" in text
