"""Command-line contract: output shapes, exit codes, admission policy."""

import hashlib
import json
import subprocess
import sys

import pytest

from sendkernel.assembler import Const, ProgramBuilder
from sendkernel.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from sendkernel.durability import read_store
from sendkernel.patterns import creator, delegation_transactions
from sendkernel.sexpr import dumps


def outward_tx(instance_key, obj, message):
    b = ProgramBuilder()
    b.call(Const((7, (instance_key, obj))), Const(message))
    return (b.halt(), 0)


def write_txfile(path, txs):
    path.write_text("".join(dumps(tx) + "\n" for tx in txs), encoding="ascii")
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def delegation_store(tmp_path, capsys):
    txfile = write_txfile(tmp_path / "txs", delegation_transactions())
    store = tmp_path / "k.store"
    code, out, err = run_main(capsys, ["exec", txfile, "--store", str(store)])
    assert code == EXIT_OK, err
    return store, out


def test_exec_prints_six_commits(delegation_store):
    _, out = delegation_store
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + six rows
    assert all("COMMIT" in line for line in lines[1:])
    assert lines[1].split()[2] == "15"
    assert lines[2].split()[2] == "[14,100]"
    assert lines[6].split()[2] == "[17,300]"


def test_exec_lines_format(tmp_path, capsys):
    txfile = write_txfile(tmp_path / "txs", delegation_transactions())
    store = tmp_path / "k.store"
    code, out, _ = run_main(
        capsys, ["exec", txfile, "--store", str(store), "--format", "lines"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "[1,15]",
        "[1,[14,100]]",
        "[1,16]",
        "[1,[16,[42,200]]]",
        "[1,18]",
        "[1,[17,300]]",
    ]


def test_exec_abort_row(tmp_path, capsys):
    txfile = tmp_path / "txs"
    txfile.write_text("[[0,4],0]\n", encoding="ascii")  # a FAIL-only program
    store = tmp_path / "k.store"
    code, out, _ = run_main(capsys, ["exec", str(txfile), "--store", str(store)])
    assert code == EXIT_OK
    assert "ABORT" in out


def test_exec_admission_is_all_or_nothing(tmp_path, capsys):
    txfile = tmp_path / "txs"
    txfile.write_text(
        "[[100,0],0]\n[[101,0],0]\n[42,\n[[102,0],0]\n[[103,0],0]\n",
        encoding="ascii",
    )
    store = tmp_path / "k.store"
    code, out, err = run_main(capsys, ["exec", str(txfile), "--store", str(store)])
    assert code == EXIT_USAGE
    assert ":3:" in err  # cites the offending line
    assert out == ""
    assert not store.exists()  # nothing was admitted, nothing was created


def test_exec_atom_line_rejected(tmp_path, capsys):
    txfile = tmp_path / "txs"
    txfile.write_text("7\n", encoding="ascii")
    code, _, err = run_main(
        capsys, ["exec", str(txfile), "--store", str(tmp_path / "k.store")]
    )
    assert code == EXIT_USAGE
    assert "pair" in err


def test_exec_appends_across_runs(tmp_path, capsys):
    store = tmp_path / "k.store"
    first = write_txfile(tmp_path / "a", delegation_transactions()[:2])
    rest = write_txfile(tmp_path / "b", delegation_transactions()[2:])
    assert run_main(capsys, ["exec", first, "--store", str(store)])[0] == EXIT_OK
    code, out, _ = run_main(capsys, ["exec", rest, "--store", str(store)])
    assert code == EXIT_OK
    assert out.splitlines()[1].split()[0] == "2"  # sequence continues
    assert len(read_store(str(store)).records) == 6


def test_exec_flags_ignored_after_creation(tmp_path, capsys):
    store = tmp_path / "k.store"
    txfile = write_txfile(tmp_path / "txs", delegation_transactions()[:1])
    assert run_main(capsys, ["exec", txfile, "--store", str(store)])[0] == EXIT_OK
    code, _, err = run_main(
        capsys, ["exec", txfile, "--store", str(store), "--allocator", "hash"]
    )
    assert code == EXIT_OK
    assert "store header governs" in err
    assert read_store(str(store)).config.allocator == "seq"


def test_exec_workers_match_serial(tmp_path, capsys):
    txs = delegation_transactions()
    serial_store = tmp_path / "serial.store"
    threaded_store = tmp_path / "threaded.store"
    txfile = write_txfile(tmp_path / "txs", txs)
    run_main(capsys, ["exec", txfile, "--store", str(serial_store)])
    code, out, _ = run_main(
        capsys, ["exec", txfile, "--store", str(threaded_store), "--workers", "4"]
    )
    assert code == EXIT_OK
    a = read_store(str(serial_store))
    b = read_store(str(threaded_store))
    assert a.committed_state().canonical_lines() == b.committed_state().canonical_lines()


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_bad_worker_count_is_rejected_before_a_store_exists(tmp_path, capsys, workers):
    txfile = write_txfile(tmp_path / "txs", delegation_transactions())
    store = tmp_path / "s.store"
    code, _, err = run_main(capsys, ["exec", txfile, "--store", str(store), "--workers", workers])
    assert code == EXIT_USAGE
    assert "--workers" in err
    assert not store.exists()
    assert run_main(capsys, ["demo", "auction", "--workers", workers])[0] == EXIT_USAGE


def test_verify_honest_store(delegation_store, capsys):
    store, _ = delegation_store
    code, out, _ = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_OK
    assert "verified 6 transactions" in out


def test_verify_rejects_tampering(delegation_store, capsys):
    store, _ = delegation_store
    data = bytearray(store.read_bytes())
    data[len(data) // 2] ^= 0x04
    store.write_bytes(bytes(data))
    code, _, err = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_MISMATCH
    assert err


def test_verify_missing_store(tmp_path, capsys):
    code, _, err = run_main(capsys, ["verify", "--store", str(tmp_path / "nope")])
    assert code == EXIT_USAGE


def test_recover_reports_torn_tail(delegation_store, capsys):
    store, _ = delegation_store
    whole = store.read_bytes()
    store.write_bytes(whole[:-3])
    code, out, _ = run_main(capsys, ["recover", "--store", str(store)])
    assert code == EXIT_OK
    assert "recovered 5 transactions" in out
    assert "torn" in out
    code, out, _ = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_OK
    assert "verified 5 transactions" in out


def test_dump_object_log(delegation_store, capsys):
    store, _ = delegation_store
    code, out, _ = run_main(capsys, ["dump", "15", "--store", str(store)])
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4  # birth plus three deliveries
    assert [r.split()[1] for r in rows[1:]] == ["14", "16", "17"]


def test_dump_summary_and_read_only(delegation_store, capsys):
    store, _ = delegation_store
    before = file_hash(store)
    code, out, _ = run_main(capsys, ["dump", "--store", str(store)])
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 7
    code, _, _ = run_main(capsys, ["dump", "15", "--store", str(store)])
    assert code == EXIT_OK
    assert file_hash(store) == before


def test_dump_read_only_even_with_torn_tail(delegation_store, capsys):
    store, _ = delegation_store
    store.write_bytes(store.read_bytes()[:-3])
    before = file_hash(store)
    code, _, err = run_main(capsys, ["dump", "--store", str(store)])
    assert code == EXIT_OK
    assert "torn" in err
    assert file_hash(store) == before  # recover truncates; dump must not


def test_dump_lines_format(delegation_store, capsys):
    store, _ = delegation_store
    code, out, _ = run_main(
        capsys, ["dump", "15", "--store", str(store), "--format", "lines"]
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == "[14,100]"


def test_demo_delegation_table(capsys):
    code, out, _ = run_main(capsys, ["demo", "delegation"])
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert len(rows) == 7
    assert rows[-1].split()[-1] == "[17,300]"


def test_demo_auction_abort_has_one_abort_row(capsys):
    code, out, _ = run_main(capsys, ["demo", "auction-abort", "--format", "lines"])
    assert code == EXIT_OK
    assert out.splitlines().count("0") == 1


def test_demo_workers(capsys):
    serial = run_main(capsys, ["demo", "auction"])
    threaded = run_main(capsys, ["demo", "auction", "--workers", "4"])
    assert serial == threaded


def test_demo_unknown_fixture_is_usage_error(capsys):
    code, _, _ = run_main(capsys, ["demo", "no-such-fixture"])
    assert code == EXIT_USAGE


def test_compose_run_routes_across_instances(tmp_path, capsys):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": [{"key": 2}, {"key": 3}]}))
    # instance 3 gets a constant-answer object 14; instance 2 then sends it
    # 55 through the outward form [7,[3,14]]
    scenario = tmp_path / "scenario"
    scenario.write_text(
        f"3 {dumps(creator((100, 0)))}\n2 {dumps(outward_tx(3, 14, 55))}\n"
    )
    code, out, _ = run_main(
        capsys,
        [
            "compose",
            "run",
            "--topology",
            str(topology),
            "--scenario",
            str(scenario),
        ],
    )
    assert code == EXIT_OK
    assert "delivered 1, dead letters 0" in out


def test_compose_dead_letter_reporting(tmp_path, capsys):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": [{"key": 2}]}))
    scenario = tmp_path / "scenario"
    scenario.write_text(f"2 {dumps(outward_tx(9, 14, 55))}\n")  # no instance 9
    code, out, err = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_OK
    assert "dead letters 1" in out
    assert "no instance 9" in err


def test_compose_scenario_admission(tmp_path, capsys):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": [{"key": 2}]}))
    scenario = tmp_path / "scenario"
    scenario.write_text(f"2 {dumps(creator((100, 0)))}\nbogus line\n")
    code, _, err = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_USAGE
    assert ":2:" in err


def test_compose_topology_validation(tmp_path, capsys):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": []}))
    scenario = tmp_path / "scenario"
    scenario.write_text("")
    code, _, err = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_USAGE


def test_compose_durable_instances(tmp_path, capsys):
    store = tmp_path / "inst2.store"
    topology = tmp_path / "topology.json"
    topology.write_text(
        json.dumps({"instances": [{"key": 2, "store": str(store)}]})
    )
    scenario = tmp_path / "scenario"
    scenario.write_text(f"2 {dumps(creator((100, 0)))}\n")
    code, _, _ = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_OK
    assert len(read_store(str(store)).records) == 1
    code, out, _ = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_OK


def test_usage_without_arguments(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["exec"]) == EXIT_USAGE


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "sendkernel.cli", "demo", "delegation"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "[17,300]" in result.stdout
