"""Command-line contract: output shapes, exit codes, admission policy."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from sendkernel.assembler import Const, ProgramBuilder
from sendkernel.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from sendkernel.durability import DurableSystem, read_store
from sendkernel.patterns import ECHO_PROGRAM, creator, delegation_transactions, poke
from sendkernel.sexpr import dumps

from test_durability import birth_references, create_versioned, transaction_references


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


def test_exec_refers_to_equal_parsed_births(tmp_path, capsys):
    # parse builds a separate program per copy, so only equality finds them
    txfile = write_txfile(tmp_path / "txs", [creator(*[ECHO_PROGRAM] * 100)])
    store = tmp_path / "k.store"
    code, _, err = run_main(capsys, ["exec", txfile, "--store", str(store)])
    assert code == EXIT_OK, err
    assert birth_references(store) == 99
    assert run_main(capsys, ["verify", "--store", str(store)])[0] == EXIT_OK


def test_exec_refers_to_equal_parsed_transactions(tmp_path, capsys):
    # each line is parsed on its own, so only the texts' equality finds them
    long = creator(ECHO_PROGRAM, ECHO_PROGRAM)
    assert len(dumps(long)) >= 64
    txfile = write_txfile(tmp_path / "txs", [long, poke(14, 5), long, long])
    store = tmp_path / "k.store"
    code, _, err = run_main(capsys, ["exec", txfile, "--store", str(store)])
    assert code == EXIT_OK, err
    assert transaction_references(store) == [None, None, 0, 0]
    assert run_main(capsys, ["verify", "--store", str(store)])[0] == EXIT_OK


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


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_bad_worker_count_is_rejected_before_a_store_exists(tmp_path, capsys, workers):
    txfile = write_txfile(tmp_path / "txs", delegation_transactions())
    store = tmp_path / "s.store"
    code, _, err = run_main(capsys, ["exec", txfile, "--store", str(store), "--workers", workers])
    assert code == EXIT_USAGE
    assert "--workers" in err
    assert not store.exists()
    assert run_main(capsys, ["demo", "auction", "--workers", workers])[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "flags", [["--allocator", "hash", "--salt", "-5"], ["--budget", "0"]]
)
def test_bad_store_parameters_are_refused_before_a_store_exists(tmp_path, capsys, flags):
    txfile = write_txfile(tmp_path / "txs", delegation_transactions())
    store = tmp_path / "s.store"
    code, out, err = run_main(capsys, ["exec", txfile, "--store", str(store), *flags])
    assert code == EXIT_USAGE, err
    assert out == ""
    assert not store.exists()


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


def test_overlong_frame_length_is_a_store_error(delegation_store, capsys):
    # A length field past int()'s 4,300-digit limit runs past the end of
    # the file: a torn tail for recover, corruption for verify.
    store, _ = delegation_store
    with open(store, "ab") as fh:
        fh.write(b"9" * 5000 + b":00000000:1\n")
    code, _, err = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_MISMATCH and "incomplete final frame" in err
    code, out, _ = run_main(capsys, ["recover", "--store", str(store)])
    assert code == EXIT_OK and "recovered 6 transactions" in out


def test_verify_and_dump_unbounded_values(tmp_path, capsys):
    long_atom = 10**5000 + 1
    deep = 0
    for i in range(200_000):
        deep = (deep, i % 3)
    store = str(tmp_path / "k.store")
    with DurableSystem.create(store) as ds:
        ds.submit(creator(ECHO_PROGRAM))
        ds.submit(poke(14, long_atom))
        ds.submit(poke(14, deep))
    code, out, _ = run_main(capsys, ["verify", "--store", store])
    assert code == EXIT_OK and "verified 3 transactions" in out
    code, out, _ = run_main(capsys, ["dump", "14", "--store", store, "--format", "lines"])
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [dumps((1, long_atom)), dumps((1, deep))]


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


@pytest.mark.parametrize("version, packed", [(3, 0), (4, 2)])
def test_recover_reports_the_format_and_its_compressed_frames(tmp_path, capsys, version, packed):
    store = tmp_path / "k.store"
    with create_versioned(str(store), None, version) as ds:
        for tx in (creator(*[ECHO_PROGRAM] * 4), poke(14, 1), creator(*[ECHO_PROGRAM] * 6)):
            ds.submit(tx)
    code, out, _ = run_main(capsys, ["recover", "--store", str(store)])
    assert code == EXIT_OK
    assert out.splitlines()[-2:] == [
        "log length 21",
        f"format version {version}, {packed} of 4 frames compressed",
    ]


def test_a_store_held_by_a_writer_is_refused_but_readable(delegation_store, capsys):
    store, _ = delegation_store
    holder, _ = DurableSystem.open(str(store))
    before = file_hash(store)
    for argv in (["recover"], ["exec", write_txfile(store.with_name("more"), [poke(14, 1)])]):
        code, _, err = run_main(capsys, argv + ["--store", str(store)])
        assert code == EXIT_USAGE and "open for writing elsewhere" in err
    code, out, _ = run_main(capsys, ["verify", "--store", str(store)])
    assert code == EXIT_OK and "verified 6 transactions" in out
    holder.close()
    assert file_hash(store) == before


@pytest.mark.parametrize("command", ["exec", "verify", "recover", "dump"])
@pytest.mark.parametrize("place", ["directory", "under-a-file"])
def test_a_store_path_that_cannot_be_a_file_is_a_usage_error(tmp_path, capsys, command, place):
    txfile = write_txfile(tmp_path / "txs", [poke(14, 1)])
    store = tmp_path / "d" if place == "directory" else tmp_path / "txs" / "k.store"
    if place == "directory":
        store.mkdir()
    argv = [command, txfile] if command == "exec" else [command]
    code, out, err = run_main(capsys, argv + ["--store", str(store)])
    assert code == EXIT_USAGE, err
    assert err.startswith("error: ") and out == ""


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
    # The demo table is exec's: the same header and column widths.
    code, out, _ = run_main(capsys, ["demo", "delegation"])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "  tx  status  result",
        "   0  COMMIT  15",
        "   1  COMMIT  [14,100]",
        "   2  COMMIT  16",
        "   3  COMMIT  [16,[42,200]]",
        "   4  COMMIT  18",
        "   5  COMMIT  [17,300]",
    ]


def test_demo_auction_abort_has_one_abort_row(capsys):
    code, out, _ = run_main(capsys, ["demo", "auction-abort", "--format", "lines"])
    assert code == EXIT_OK
    assert out.splitlines().count("0") == 1


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


@pytest.mark.parametrize(
    "instance",
    [
        {"key": True},  # a bool would collide with key 1
        {"key": -1},  # no scenario line can address it
        {"key": 2, "salt": -3, "allocator": "hash"},
        {"key": 2, "budget": "x"},
    ],
    ids=["bool-key", "negative-key", "negative-salt", "text-budget"],
)
def test_compose_refuses_bad_instances_before_a_store_exists(tmp_path, capsys, instance):
    store = tmp_path / "inst.store"
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": [dict(instance, store=str(store))]}))
    scenario = tmp_path / "scenario"
    scenario.write_text("")
    code, _, err = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_USAGE, err
    assert not store.exists()


@pytest.mark.parametrize(
    "instances, scenario_line",
    [
        ([{"key": 2, "store": "a.store"}, {"key": 2, "store": "b.store"}], ""),
        ([{"key": 2, "store": "a.store"}, {"key": 3, "store": "b.store"}], "9 [1,2]\n"),
        ([{"key": 2, "store": "a.store"}, {"key": 3, "store": 7}], ""),
        ([{"key": 2, "store": "a.store"}, {"key": 3, "store": ""}], ""),
        ([{"key": 2, "store": "a.store"}, {"key": 3, "store": "./a.store"}], ""),
    ],
    ids=["duplicate-key", "unknown-instance", "store-not-text", "empty-store", "shared-store"],
)
def test_compose_validates_every_input_before_a_store_exists(
    tmp_path, capsys, instances, scenario_line
):
    instances = [
        dict(inst, store=os.path.join(tmp_path, inst["store"]))
        if isinstance(inst["store"], str) and inst["store"]
        else inst
        for inst in instances
    ]
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": instances}))
    scenario = tmp_path / "scenario"
    scenario.write_text(scenario_line)
    code, _, err = run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )
    assert code == EXIT_USAGE, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario", "topology.json"]


def run_compose(tmp_path, capsys, instances):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": instances}))
    scenario = tmp_path / "scenario"
    scenario.write_text(f"{instances[0]['key']} {dumps(creator((100, 0)))}\n")
    return run_main(
        capsys,
        ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)],
    )


@pytest.mark.parametrize("later", ["nodir/b.store", "d", "txs/b.store"])
def test_compose_removes_the_stores_it_created_when_a_later_store_fails(
    tmp_path, capsys, later
):
    (tmp_path / "d").mkdir()
    (tmp_path / "txs").write_text("")
    a = tmp_path / "a.store"
    instances = [{"key": 2, "store": str(a)}, {"key": 3, "store": str(tmp_path / later)}]
    code, out, err = run_compose(tmp_path, capsys, instances)
    assert code == EXIT_USAGE, err
    assert err.startswith("error: ") and out == ""
    assert not a.exists()


def test_compose_leaves_a_store_it_did_not_create_as_it_was(delegation_store, tmp_path, capsys):
    store, _ = delegation_store
    before = file_hash(store)
    instances = [{"key": 2, "store": str(store)}, {"key": 3, "store": str(tmp_path / "no/b")}]
    code, _, err = run_compose(tmp_path, capsys, instances)
    assert code == EXIT_USAGE, err
    assert file_hash(store) == before


def test_compose_cuts_no_torn_tail_until_every_store_has_opened(tmp_path, capsys):
    store = tmp_path / "a.store"
    txfile = write_txfile(tmp_path / "txs", delegation_transactions()[:2])
    assert run_main(capsys, ["exec", txfile, "--store", str(store)])[0] == EXIT_OK
    store.write_bytes(store.read_bytes()[:-3])
    before = store.read_bytes()
    instances = [{"key": 2, "store": str(store)}, {"key": 3, "store": str(tmp_path / "nodir/b.store")}]
    code, _, err = run_compose(tmp_path, capsys, instances)
    assert code == EXIT_USAGE, err
    assert store.read_bytes() == before
    code, _, err = run_compose(tmp_path, capsys, instances[:1])
    assert code == EXIT_OK, err
    assert len(read_store(str(store), strict=True).records) == 2  # one left by the cut, one run


def test_compose_removes_its_stores_when_a_later_store_is_locked(
    delegation_store, tmp_path, capsys
):
    locked, _ = delegation_store
    holder, _ = DurableSystem.open(str(locked))
    a = tmp_path / "a.store"
    try:
        instances = [{"key": 2, "store": str(a)}, {"key": 3, "store": str(locked)}]
        code, _, err = run_compose(tmp_path, capsys, instances)
    finally:
        holder.close()
    assert code == EXIT_USAGE and "open for writing elsewhere" in err
    assert not a.exists()


@pytest.mark.parametrize("hops", ["0", "-1"])
def test_compose_bad_hop_count_is_a_usage_error(tmp_path, capsys, hops):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"instances": [{"key": 2}]}))
    scenario = tmp_path / "scenario"
    scenario.write_text(f"2 {dumps(creator((100, 0)))}\n")
    argv = ["compose", "run", "--topology", str(topology), "--scenario", str(scenario)]
    code, out, err = run_main(capsys, argv + ["--max-hops", hops])
    assert code == EXIT_USAGE
    assert "--max-hops" in err
    assert out == ""


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
