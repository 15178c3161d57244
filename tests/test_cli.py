import hashlib
import json
import os
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from minvan.cli import BOOTSTRAP_FIXTURE, main
from minvan.minimality import is_minimal_vanishing
from minvan.store import load_db
from minvan.types import TypeSum, render_type

from helpers import WEIGHT21_TYPE_TEXT, clear_verify_memos


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "minvan.db")
    assert main(["bootstrap", "--db", path]) == 0
    return path


def test_bootstrap_creates_21_records(db_path):
    db = load_db(db_path)
    assert len(db.records) == 21
    assert db.max_complete_weight == 12


def test_bootstrap_idempotent(db_path, capsys):
    assert main(["bootstrap", "--db", db_path]) == 0
    assert load_db(db_path).max_complete_weight == 12


def test_bootstrap_fixture_tamper_detected(tmp_path, monkeypatch):
    import minvan.cli as cli

    tampered = dict(BOOTSTRAP_FIXTURE)
    tampered[12] = frozenset(set(tampered[12]) - {next(iter(tampered[12]))})
    monkeypatch.setattr(cli, "BOOTSTRAP_FIXTURE", tampered)
    with pytest.raises(SystemExit, match="mismatch"):
        main(["bootstrap", "--db", str(tmp_path / "x.db")])


def test_extend_to_13(db_path, capsys):
    assert main(["extend", "--db", db_path, "--to", "13"]) == 0
    out = capsys.readouterr().out
    assert "weight 13: 8 types" in out
    db = load_db(db_path)
    assert db.max_complete_weight == 13
    assert len(db.records) == 29
    assert os.path.exists(db_path + ".cache")


def test_extend_gap_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["extend", "--db", str(tmp_path / "none.db"), "--to", "13"])


def test_verify_minimal(capsys):
    assert main(["verify", "1:0+2:1"]) == 0
    out = capsys.readouterr().out
    assert "vanishing: True" in out
    assert "minimal: True" in out
    assert "type: (R2;1:0)" in out


def test_verify_certifies_once(monkeypatch, capsys):
    calls = []

    def counting(s):
        calls.append(s)
        return is_minimal_vanishing(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("minvan") and hasattr(module, "is_minimal_vanishing"):
            monkeypatch.setattr(module, "is_minimal_vanishing", counting)
    assert main(["verify", "5:1+5:2+5:3+5:4+6:1+6:5"]) == 0
    assert "type: (R5;1:0;(R3;1:0))" in capsys.readouterr().out
    assert len(calls) == 1


def test_verify_answers_fast_at_an_order_with_two_large_primes(capsys):
    # N is the product of two primes near 10^10: factoring N by trial
    # division would take hours, and the tower descent must not build one
    # group per residue of its smallest prime.
    n = 10000000019 * 10000000033
    start = time.perf_counter()
    assert main(["verify", f"1:0+{n}:1"]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "vanishing: False" in out and "top prime: 10000000033" in out


def test_verify_decides_a_large_top_prime_without_a_slot_per_residue(capsys):
    # 1 - 1 + nu_N - nu_N vanishes at relative order 2N, top prime N: with
    # 4 terms most of the N slots are empty, so every slot has value 0.
    # Building one part per residue of N took about 1 s and 100 MB.
    n = 1000003
    clear_verify_memos()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["verify", f"1:0+2:1+{n}:1+{2 * n}:{n + 2}"]) == 1
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.25 and peak < 2_000_000
    out = capsys.readouterr().out
    assert "minimal: False (value-zero-f0)" in out and f"top prime: {n}" in out


def test_verify_weight21(capsys):
    from minvan.sorou import render_sorou

    from helpers import weight21_height2_sorou

    assert main(["verify", render_sorou(weight21_height2_sorou())]) == 0
    out = capsys.readouterr().out
    assert "weight: 21" in out
    assert "height: 2" in out
    assert f"type: {WEIGHT21_TYPE_TEXT}" in out


def test_verify_non_vanishing_exit_code(capsys):
    assert main(["verify", "1:0+3:1"]) == 1
    assert "minimal: False (not-vanishing)" in capsys.readouterr().out


def test_verify_parse_error_exit_code(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_usage_error_exit_code(capsys):
    for _ in range(2):  # the parser is reused after an error
        with pytest.raises(SystemExit) as err:
            main(["extend"])  # --to is required
        assert err.value.code == 2
    for removed in (["--threads", "2"], ["--no-conjugate-collapse"], ["--no-minvan-filter"]):
        with pytest.raises(SystemExit) as err:
            main(["extend", "--to", "13", *removed])  # no such option
        assert err.value.code == 2
    assert main(["verify", "1:0+2:1"]) == 0


def test_extend_reads_collapse_from_the_database(tmp_path, capsys):
    from conftest import build_database

    from minvan.enumeration import SorouCache
    from minvan.store import save_db

    # Weight 15 is the first weight where the family collapse merges types.
    path = str(tmp_path / "uncollapsed.db")
    save_db(build_database(14, SorouCache(), collapse=False), path)
    assert main(["extend", "--db", path, "--to", "15"]) == 0
    assert "weight 15: 15 types" in capsys.readouterr().out
    db = load_db(path)
    assert not db.collapse
    assert db.max_complete_weight == 15


def test_enumerate_command(capsys):
    assert main(["enumerate", "(R5;1:0;(R3;1:0))"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    from minvan.sorou import parity, parse_sorou

    assert all(parity(parse_sorou(line)) == (4, 2) for line in out)


@pytest.fixture(scope="module")
def straight_build(tmp_path_factory):
    """The bytes of minvan.db and its .cache after `bootstrap` and then
    `extend --to 13` and `--to 14`, by weight."""
    db = tmp_path_factory.mktemp("straight") / "minvan.db"
    assert main(["bootstrap", "--db", str(db)]) == 0
    built = {}
    for w in (13, 14):
        assert main(["extend", "--db", str(db), "--to", str(w)]) == 0
        built[w] = db.read_bytes(), Path(f"{db}.cache").read_bytes()
    return built


def test_enumerate_leaves_the_cache_alone(tmp_path, monkeypatch, capsys, straight_build):
    # (R5;1:0;(R2;1:0)) is no table type: a cache line of its own would
    # outlive every later build.
    db = tmp_path / "minvan.db"
    cache = tmp_path / "minvan.db.cache"
    assert main(["bootstrap", "--db", str(db)]) == 0
    before, text = os.stat(cache), cache.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate opened a file")

    monkeypatch.setenv("MINVAN_DB", str(db))
    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", refuse)
        assert main(["enumerate", "(R5;1:0;(R2;1:0))"]) == 0
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert cache.read_bytes() == text
    assert main(["extend", "--db", str(db), "--to", "13"]) == 0
    assert (db.read_bytes(), cache.read_bytes()) == straight_build[13]
    capsys.readouterr()


class Stopped(Exception):
    """A run stopped between two writes."""


@pytest.mark.parametrize("write", ["save_db", "save_cache"])
def test_extend_resumes_after_a_stop_at_either_write(tmp_path, monkeypatch, capsys, straight_build, write):
    # The .cache is written before minvan.db: a run stopped at either write
    # of weight 13 leaves the database at 12, and resuming recomputes 13.
    import minvan.store as store

    db = tmp_path / "minvan.db"
    assert main(["bootstrap", "--db", str(db)]) == 0

    def stop(*args):
        raise Stopped(write)

    with monkeypatch.context() as patch:
        patch.setattr(store, write, stop)
        with pytest.raises(Stopped):
            main(["extend", "--db", str(db), "--to", "14"])
    assert load_db(str(db)).max_complete_weight == 12
    assert main(["extend", "--db", str(db), "--to", "14"]) == 0
    assert (db.read_bytes(), Path(f"{db}.cache").read_bytes()) == straight_build[14]
    capsys.readouterr()


def test_enumerate_refuses_a_subtype_at_the_top_prime(db_path, capsys):
    cache_path = db_path + ".cache"
    before = os.stat(cache_path)
    text = open(cache_path).read()
    assert main(["enumerate", "(R3;1:0;(R3;1:0))"]) == 2
    assert "subtype top prime must be below p" in capsys.readouterr().err
    after = os.stat(cache_path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert open(cache_path).read() == text


def test_report_csv_stdout(db_path, capsys):
    assert main(["report", "--db", db_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Weight,\tTop Prime")
    assert "6,\t5,\t30,\t(2;1;1;1;1),\t(R_5:R_3),\t1,\t(4;2),\tFalse" in out


def test_report_latex_out_file(db_path, tmp_path, capsys):
    out_path = str(tmp_path / "table.tex")
    assert main(["report", "--db", db_path, "--format", "latex", "--out", out_path]) == 0
    with open(out_path) as fh:
        assert "\\begin{longtable}" in fh.read()


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_report_out_file_matches_stdout(db_path, tmp_path, capsys, fmt):
    assert main(["report", "--db", db_path, "--format", fmt]) == 0
    printed = capsys.readouterr().out.encode()
    out_path = tmp_path / f"table.{fmt}"
    out_path.write_text("a longer file that the report must replace entirely\n" * 400)
    assert main(["report", "--db", db_path, "--format", fmt, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == printed
    assert [p.name for p in tmp_path.iterdir()] == [out_path.name]  # no temp file left


def test_phi_command(capsys):
    assert main(["phi", "6"]) == 0
    assert capsys.readouterr().out == "1, -1, 1\n"
    assert main(["phi", "105"]) == 0
    out = capsys.readouterr().out
    assert "coefficient -2 at x^7" in out
    assert "coefficient -2 at x^41" in out


def test_plot_command(tmp_path, capsys):
    out_path = str(tmp_path / "plot.svg")
    doubled = "2:1+2:1+3:1+3:2+5:1"
    assert main(["plot", doubled, "--out", out_path]) == 0
    tree = ET.parse(out_path)  # well-formed XML
    root = tree.getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) >= 6  # dashed rings + stacked term dots


def test_env_var_default_db(db_path, monkeypatch, capsys):
    monkeypatch.setenv("MINVAN_DB", db_path)
    assert main(["report", "--format", "csv"]) == 0
    assert "R_2" in capsys.readouterr().out


def test_env_var_is_read_when_each_command_runs(tmp_path, monkeypatch, capsys):
    first, second = str(tmp_path / "first.db"), str(tmp_path / "second.db")
    for path in (first, second):
        monkeypatch.setenv("MINVAN_DB", path)
        assert main(["bootstrap"]) == 0
    assert main(["extend", "--to", "13"]) == 0
    assert [load_db(p).max_complete_weight for p in (first, second)] == [12, 13]
    capsys.readouterr()

    monkeypatch.setenv("MINVAN_DB", first)
    assert main(["extend", "--db", second, "--to", "13"]) == 0
    assert capsys.readouterr().out == "database already complete through 13\n"
    reports = {}
    for env in (first, second):
        monkeypatch.setenv("MINVAN_DB", env)
        for db in (None, first, second):
            assert main(["report", *(["--db", db] if db else [])]) == 0
            reports[env, db] = capsys.readouterr().out
    assert "\n13,\t" not in reports[first, None] and "\n13,\t" in reports[second, None]
    for env in (first, second):
        assert reports[env, None] == reports[env, env]
        assert reports[first, env] == reports[second, env]

    # enumerate reads no database, whatever MINVAN_DB says, and takes no --db.
    caches = [Path(p + ".cache").read_bytes() for p in (first, second)]
    new_type = "(R7;1:0;(R5;1:0;(R3;1:0));(R5;1:0;(R3;1:0)))"
    assert main(["enumerate", new_type]) == 0  # MINVAN_DB is second
    assert [Path(p + ".cache").read_bytes() for p in (first, second)] == caches
    with pytest.raises(SystemExit) as err:
        main(["enumerate", new_type, "--db", first])
    assert err.value.code == 2
    capsys.readouterr()


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    import minvan.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for _ in range(50):
        assert main(["verify", "1:0+2:1"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert built[0] == "minvan" and len(built) == 8  # the top level and 7 subcommands
    capsys.readouterr()


def test_a_command_patched_after_the_first_call_is_dispatched(monkeypatch, capsys):
    import minvan.cli as cli

    assert main(["verify", "1:0+2:1"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.sorou) or 7)
    assert main(["verify", "1:0+3:1"]) == 7
    assert seen == ["1:0+3:1"]
    monkeypatch.undo()
    assert main(["verify", "1:0+3:1"]) == 1
    capsys.readouterr()


def test_verify_agrees_with_stored_statistics(db16, capsys):
    from minvan.sorou import height, parity, render_sorou
    from minvan.types import representative_sorou

    for record in db16.records:
        rep = representative_sorou(record.type)
        assert main(["verify", render_sorou(rep)]) == 0
        out = capsys.readouterr().out
        assert f"weight: {record.weight}" in out
        assert f"top prime: {record.top_prime}" in out
        a, b = parity(rep)
        assert (a, b) in record.parities
        assert height(rep) in record.heights


def _build_through_weight_17(tmp_path, capsys, extends):
    """Check the outputs of `bootstrap` then one in-process `extend` call
    per target weight in extends, each starting from an empty class cache,
    against the digests the benchmark's classify-w17 workload checks."""
    fixtures = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    reference = json.loads((fixtures / "reference.json").read_text())["classify-w17"]
    db = tmp_path / "minvan.db"
    assert main(["bootstrap", "--db", str(db)]) == 0
    for w in extends:
        assert main(["extend", "--db", str(db), "--to", str(w)]) == 0
    capsys.readouterr()
    assert main(["report", "--format", "csv", "--db", str(db)]) == 0
    outputs = {
        "minvan.db": db.read_bytes(),
        "minvan.db.cache": (tmp_path / "minvan.db.cache").read_bytes(),
        "report.csv": capsys.readouterr().out.encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == reference


def test_build_through_weight_17_matches_the_benchmark_reference(tmp_path, capsys):
    _build_through_weight_17(tmp_path, capsys, [17])


def test_build_through_weight_17_one_extend_per_weight_matches_the_benchmark_reference(tmp_path, capsys):
    _build_through_weight_17(tmp_path, capsys, range(13, 18))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-core", "two-cores"])
def test_build_through_weight_17_on_one_and_two_cores_matches_the_benchmark_reference(
    tmp_path, capsys, monkeypatch, cpus
):
    # One core runs every type's statistics here; two fork one worker at the
    # weights with FORK_MIN_ASSEMBLIES assemblies (15, 16 and 17).
    import minvan.cli as cli

    forks = []
    fork = cli._fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(cli, "_fork", lambda work: forks.append(work) or fork(work))
    _build_through_weight_17(tmp_path, capsys, [17])
    assert len(forks) == (3 if len(cpus) == 2 else 0)


def _worker_failure(where: str):
    """A stand-in for type_statistics that fails as `where` says: in the
    parent's share or in the worker's, with a ValueError, an exception
    pickle cannot name, or an exit that sends no result."""
    import minvan.enumeration as enumeration

    statistics, parent = enumeration.type_statistics, os.getpid()

    class Unpicklable(Exception):
        pass

    def failing(m, cache):
        if (os.getpid() == parent) != (where == "parent"):
            return statistics(m, cache)
        if where == "worker-exit":
            os._exit(3)
        if where == "worker-unpicklable":
            raise Unpicklable("no class to unpickle")
        raise ValueError(f"type has no minimal realization: {render_type(TypeSum((m,)))}")

    return failing


@pytest.mark.parametrize(
    "where, code, message",
    [
        ("worker", 2, "error: type has no minimal realization: (R"),
        ("parent", 2, "error: type has no minimal realization: (R"),
        ("worker-unpicklable", RuntimeError, "Unpicklable: no class to unpickle"),
        ("worker-exit", RuntimeError, "ended with no result"),
    ],
)
def test_a_failure_in_the_statistics_fails_extend_and_leaves_no_process(
    tmp_path, monkeypatch, capsys, where, code, message
):
    # Weight 15 forks one worker; whichever share fails, `extend` fails
    # with the failure's message, writes neither file for weight 15, and
    # leaves no child process behind, killed or not.
    import minvan.enumeration as enumeration

    db = tmp_path / "minvan.db"
    cache = tmp_path / "minvan.db.cache"
    assert main(["bootstrap", "--db", str(db)]) == 0
    assert main(["extend", "--db", str(db), "--to", "14"]) == 0
    before = db.read_bytes(), cache.read_bytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(enumeration, "type_statistics", _worker_failure(where))
    if code == 2:
        assert main(["extend", "--db", str(db), "--to", "15"]) == 2
        assert message in capsys.readouterr().err
    else:
        with pytest.raises(code, match=message):
            main(["extend", "--db", str(db), "--to", "15"])
    assert (db.read_bytes(), cache.read_bytes()) == before
    assert load_db(str(db)).max_complete_weight == 14
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_runs_no_exit_handler_and_flushes_no_buffer(tmp_path):
    # A forked worker inherits the parent's atexit hooks and its unflushed
    # stdout; it ends with os._exit, so each shows once, in the parent.
    import subprocess

    import minvan

    script = "\n".join(
        [
            "import atexit, os, sys",
            "import minvan.cli as cli",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "forks = []",
            "fork = cli._fork",
            "cli._fork = lambda work: forks.append(work) or fork(work)",
            "atexit.register(print, 'exit handler ran')",
            "print('buffered before the fork')",
            "assert cli.main(['bootstrap', '--db', 'minvan.db']) == 0",
            "assert cli.main(['extend', '--db', 'minvan.db', '--to', '15']) == 0",
            "print('forks:', len(forks))",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(minvan.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    assert out.count("exit handler ran") == 1
    assert out.count("buffered before the fork") == 1
    assert out.count("weight 15: 14 types") == 1
    assert "forks: 1" in out


# sha256 of the outputs of `bootstrap` then one `extend --to 21` process, and
# of `report` on the result, as built by the code of commit 4797b72.  One
# `extend` process per weight writes the same bytes.
WEIGHT21_DIGESTS = {
    "minvan.db": "7bc3e07e8ce9a0d1452fc656668a9f9bf383ca7795013315b7c3c89cb48564c1",
    "minvan.db.cache": "218f6b2fe2eccc5c37f9d7f444b4ed4c46a54623d829926dd86f4fb667dbea9c",
    "report.csv": "42f9834afe9ee50a48be897c5e65669d21422ab74250b07f0869395f08cb7aa7",
    "report.tex": "5867ba3265fd3240a70bd1327b32cee5cf54aeb5d0653d3ba8d9e1a7358823ed",
}


@pytest.mark.skipif(
    os.environ.get("MINVAN_ACCEPT_LONG") != "1",
    reason="builds through weight 21 (about 40 s); set MINVAN_ACCEPT_LONG=1",
)
@pytest.mark.parametrize("cores", [1, 2], ids=["one-core", "two-cores"])
@pytest.mark.parametrize("extends", [[21], range(13, 22)], ids=["one-process", "one-process-per-weight"])
def test_build_through_weight_21_is_byte_identical(tmp_path, extends, cores):
    import subprocess

    import minvan

    env = {**os.environ, "PYTHONPATH": str(Path(minvan.__file__).resolve().parents[1])}
    # `minvan` on that many cores as the statistics see them: at most one worker
    script = (
        f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cores}))\n"
        "from minvan.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    def minvan_cli(*argv):
        return subprocess.run(
            [sys.executable, "-c", script, *argv, "--db", "minvan.db"],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        ).stdout

    minvan_cli("bootstrap")
    for w in extends:
        minvan_cli("extend", "--to", str(w))
    outputs = {
        "minvan.db": (tmp_path / "minvan.db").read_bytes(),
        "minvan.db.cache": (tmp_path / "minvan.db.cache").read_bytes(),
        "report.csv": minvan_cli("report", "--format", "csv"),
        "report.tex": minvan_cli("report", "--format", "latex"),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == (
        WEIGHT21_DIGESTS
    )
