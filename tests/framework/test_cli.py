"""CLI smoke tests (on the cached suite members)."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import SelfCheckError

SMALL = ["--input-length", "4096", "--training-length", "1024", "--threads", "32"]


@pytest.fixture(scope="module")
def snort1_plan(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("plan") / "snort1.npz")
    assert main(["compile", "snort", "1", "-o", path,
                 "--training-length", "1024", "--threads", "32"]) == 0
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "snort", "13", *SMALL],
        ["run", "snort", "1", *SMALL, "--threads", "1"],
        ["run", "snort", "1", *SMALL, "--plan", "{tmp}/missing.npz"],
        ["run", "snort", "2", *SMALL, "--plan", "{plan}"],
        ["compare", "poweren", "1", *SMALL, "--backend", "fast"],
        ["scenario"],
        ["scenario", "{tmp}/missing.json"],
        ["scenario", "{tmp}/no-tenants.json"],
        ["scenario", "smoke", "--host", "127.0.0.1"],
        ["scenario", "smoke", "--port", "7770"],
    ],
    ids=[
        "member-13", "one-thread", "missing-plan", "wrong-member-plan",
        "compare-fast", "no-scenario", "missing-scenario", "empty-tenants",
        "host-without-port", "port-without-host",
    ],
)
def test_user_errors_exit_2_with_one_line(argv, capsys, tmp_path, snort1_plan):
    (tmp_path / "no-tenants.json").write_text(
        json.dumps({"id": "empty", "tenants": []})
    )
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path, plan=snort1_plan) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_selfcheck_error_keeps_its_traceback(monkeypatch):
    """A failed audit is a bug, not bad input: it propagates out of main."""
    def audit_fails(args):
        raise SelfCheckError("chain broken", invariant="chunk_end_chain")

    monkeypatch.setattr(cli, "cmd_suite", audit_fails)
    with pytest.raises(SelfCheckError, match="chunk_end_chain"):
        main(["suite", "snort"])


def test_suite_listing(capsys):
    assert main(["suite", "snort"]) == 0
    out = capsys.readouterr().out
    assert "regime" in out and "pm" in out


def test_profile(capsys):
    assert main(["profile", "snort", "1", "--training-length", "4096"]) == 0
    out = capsys.readouterr().out
    assert "spec1_accuracy" in out
    assert "FSM" in out  # the explain() trace


def test_run_forced_scheme(capsys):
    rc = main(
        ["run", "snort", "1", "--scheme", "sre",
         "--input-length", "8192", "--threads", "64",
         "--training-length", "2048"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme   : sre" in out
    assert "kernel" in out


def test_compare(capsys):
    rc = main(
        ["compare", "poweren", "3", "--input-length", "8192",
         "--threads", "64", "--training-length", "2048", "--backend", "sim"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup/pm" in out
    assert "*" in out  # selector's pick marked


def test_compare_refuses_answer_only_backend(capsys, monkeypatch):
    """The fast backend counts no execution cycles, so there is nothing to
    rank: compare exits 2 and names the backend that can."""
    argv = ["compare", "poweren", "1", "--input-length", "4096", "--threads", "32"]
    assert main(argv + ["--backend", "fast"]) == 2
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("--backend sim") == 2


def test_scheme_names_come_from_one_list():
    from repro.framework import GSpecPal
    from repro.schemes import SCHEME_REGISTRY
    from repro.selfcheck.fuzz import FUZZ_SCHEMES

    assert tuple(SCHEME_REGISTRY) == GSpecPal.KNOWN_SCHEMES
    assert set(FUZZ_SCHEMES) <= set(GSpecPal.KNOWN_SCHEMES)
    commands = build_parser()._subparsers._group_actions[0].choices
    for name in ("run", "trace"):
        (scheme,) = [a for a in commands[name]._actions if a.dest == "scheme"]
        assert tuple(scheme.choices) == GSpecPal.KNOWN_SCHEMES
    (pool,) = [a for a in commands["fuzz"]._actions if a.dest == "schemes"]
    assert pool.default.split(",") == list(FUZZ_SCHEMES)


def test_run_fast_backend(capsys):
    rc = main(
        ["run", "snort", "1", "--scheme", "sre", "--backend", "fast",
         "--input-length", "8192", "--threads", "64",
         "--training-length", "2048"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "backend  : fast" in out
    assert "answer-only" in out


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_memory_and_warp_lines_only_where_cycles_are_accounted(
    capsys, command, backend
):
    """``run`` and ``trace`` share one printer: on ``sim`` it prints the
    ledger's memory line (and, for ``trace``, its warp steps and the sim
    backend's layout); the answer-only backend counts no lookups and has
    no layout, so it gets ``n/a`` lines."""
    argv = [command, "snort", "1", "--scheme", "sre", "--backend", backend, *SMALL]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    memory = [line for line in lines if line.startswith("memory")]
    warps = [line for line in lines if line.startswith("warps")]
    layout = [line for line in lines if line.startswith("layout")]
    if backend == "sim":
        assert len(memory) == 1 and memory[0].endswith("shared-memory hits")
        if command == "trace":
            assert len(warps) == 1
            assert "warp_steps" in warps[0]
            assert "divergent_warp_steps" in warps[0]
        else:
            assert warps == []
    else:
        assert memory == ["memory   : n/a (answer-only backend)"]
        assert warps == []
    if command == "trace" and backend == "sim":
        assert len(layout) == 1
        assert layout[0].startswith("layout   : rank, ")
        assert layout[0].endswith(" hot states")
    elif command == "trace":
        assert layout == ["layout   : n/a (answer-only backend)"]
    else:
        assert layout == []


def test_compile_then_run_from_plan(capsys, tmp_path):
    plan_path = str(tmp_path / "m.npz")
    rc = main(
        ["compile", "snort", "1", "-o", plan_path,
         "--training-length", "2048", "--threads", "64"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fingerprint" in out and "scheme" in out and "wrote" in out

    rc = main(
        ["run", "snort", "1", "--plan", plan_path,
         "--input-length", "8192", "--threads", "64"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel" in out


def test_run_rejects_plan_for_wrong_member(capsys, tmp_path):
    plan_path = str(tmp_path / "m.npz")
    assert main(
        ["compile", "snort", "1", "-o", plan_path,
         "--training-length", "2048", "--threads", "64"]
    ) == 0
    capsys.readouterr()
    rc = main(
        ["run", "snort", "2", "--plan", plan_path,
         "--input-length", "8192", "--threads", "64"]
    )
    assert rc == 2
    assert "recompile" in capsys.readouterr().err


def test_plan_cache_compiles_once_across_invocations(capsys, tmp_path):
    cache_dir = str(tmp_path / "plans")
    argv = ["run", "snort", "1", "--plan-cache", cache_dir,
            "--input-length", "8192", "--threads", "64",
            "--training-length", "2048"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    spills = list((tmp_path / "plans").glob("*.npz"))
    assert len(spills) == 1  # compiled and persisted
    mtime = spills[0].stat().st_mtime_ns
    assert main(argv) == 0  # second invocation serves from the cache
    second = capsys.readouterr().out
    assert spills[0].stat().st_mtime_ns == mtime  # not recompiled
    assert ("scheme   :" in first) and ("scheme   :" in second)


def test_plan_cache_recompiles_a_spill_from_another_thread_count(
    capsys, tmp_path
):
    """A plan spilled by a ``--threads 32`` run must not serve a
    ``--threads 64`` run: the output equals a fresh cache's."""
    argv = ["run", "snort", "1", "--input-length", "4096",
            "--training-length", "1024", "--plan-cache"]
    shared = str(tmp_path / "shared")
    assert main(argv + [shared, "--threads", "32"]) == 0
    capsys.readouterr()
    assert main(argv + [shared, "--threads", "64"]) == 0
    served = capsys.readouterr().out
    assert main(argv + [str(tmp_path / "fresh"), "--threads", "64"]) == 0
    assert served == capsys.readouterr().out
    assert len(list((tmp_path / "shared").glob("*.npz"))) == 1


def test_compare_with_plan(capsys, tmp_path):
    plan_path = str(tmp_path / "m.npz")
    assert main(
        ["compile", "poweren", "3", "-o", plan_path,
         "--training-length", "2048", "--threads", "64"]
    ) == 0
    capsys.readouterr()
    rc = main(
        ["compare", "poweren", "3", "--plan", plan_path,
         "--input-length", "8192", "--threads", "64", "--backend", "sim"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup/pm" in out and "*" in out


def test_backend_choices_enforced():
    with pytest.raises(SystemExit):
        main(["run", "snort", "1", "--backend", "cuda"])


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["suite", "nids"])
