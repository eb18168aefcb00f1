import hashlib
import json
import tracemalloc

import pytest

from vetoflow import cli, profiles
from vetoflow.matching import FlowNetwork
from vetoflow.profile_io import gen_euclidean, parse_metric, parse_profile

T = "3 3\na b c\na>b>c\nb>a>c\nc>b>a\n"
S = "2 2\na b\na>b\nb>a\n"
U = "2 2\na b\na>b\na>b\n"
P = "3 4\nc1 c2 c3\nc1>c2>c3\nc1>c2>c3\nc3>c2>c1\nc3>c2>c1\n"
P_REV = "3 4\nc1 c2 c3\nc3>c2>c1\nc3>c2>c1\nc1>c2>c3\nc1>c2>c3\n"
T_REV = "3 3\na b c\nc>b>a\nc>a>b\na>b>c\n"


@pytest.fixture
def prof(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "instance.prof"
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_plurality_veto_winner(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "plurality-veto", "--profile", prof(T)])
    assert code == 0 and out == "winner: b\n"


def test_plurality_veto_with_order(prof, capsys):
    code, out, _ = run(capsys, [
        "rule", "--rule", "plurality-veto", "--profile", prof(P), "--order", "4,3,2,1",
    ])
    assert code == 0 and out == "winner: c3\n"


def test_bad_order_is_rejected(prof, capsys):
    code, _, err = run(capsys, [
        "rule", "--rule", "plurality-veto", "--profile", prof(T), "--order", "1,1,2",
    ])
    assert code == 2 and "permutation" in err


def test_veto_consumption_winners(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "veto-consumption", "--profile", prof(P)])
    assert code == 0 and out == "winners: c2\n"


def test_composite_winner(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "composite", "--profile", prof(U)])
    assert code == 0 and out == "winner: a\n"


def test_phragmen_committee(prof, capsys):
    code, out, _ = run(capsys, [
        "rule", "--rule", "phragmen", "--profile", prof(P), "--k", "2",
    ])
    assert code == 0 and out == "committee: c1 c3\n"


@pytest.mark.parametrize("k", ["0", "1"])
def test_phragmen_bad_tie_break_is_rejected_at_every_k(prof, capsys, k):
    code, out, err = run(capsys, [
        "rule", "--rule", "phragmen", "--profile", prof(T), "--k", k, "--tie-break", "a,a",
    ])
    assert code == 2 and out == "" and "permutation" in err


def test_ps_shares(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "ps", "--profile", prof(U)])
    assert code == 0
    assert out == "v1: 1/2 1/2\nv2: 1/2 1/2\n"


def test_serial_dictatorship(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "serial-dictatorship", "--profile", prof(S)])
    assert code == 0 and out == "v1 -> a\nv2 -> b\n"
    code, out, _ = run(capsys, [
        "rule", "--rule", "serial-dictatorship", "--profile", prof(U), "--order", "2,1",
    ])
    assert code == 0 and out == "v1 -> b\nv2 -> a\n"


def test_veto_core_member_and_witness(prof, capsys):
    path = prof(P)
    code, out, _ = run(capsys, [
        "check", "--check", "veto-core", "--profile", path, "--candidate", "c2",
    ])
    assert code == 0 and out == "c2: member\n"
    code, out, _ = run(capsys, [
        "check", "--check", "veto-core", "--profile", path, "--candidate", "c1",
    ])
    assert code == 1
    assert out == "c1: vetoed\n  by voters v3,v4 ranking c2,c3 above it\n"


# the runs of the MAX_VOTERS core profile in the ballot-type tests, divided
# by 100 000: no solid coalition vetoes c, so only a flow finds its witness,
# types 0 and 2, which the CLI spells out as voters
FLOW_VETO = ("# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME 2: b\n"
             "# ALTERNATIVE NAME 3: c\n# ALTERNATIVE NAME 4: d\n"
             "4: 1,2,3,4\n3: 4,3,2,1\n2: 2,4,1,3\n1: 3,1,4,2\n")


def test_veto_core_prints_the_voters_of_a_flow_witness(prof, capsys):
    p = parse_profile(FLOW_VETO)
    assert not any((p.m - len(g.candidates)) * p.n < p.m * g.size and 2 not in g.candidates
                   for g in profiles.solid_coalitions(p))
    argv = ["check", "--check", "veto-core", "--profile", prof(FLOW_VETO), "--candidate", "c"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out == "c: vetoed\n  by voters v1,v2,v3,v4,v8,v9 ranking a,b above it\n"
    assert run_json(capsys, argv) == (1, {
        "check": "veto-core", "candidate": "c", "member": False,
        "witness": {"voters": ["v1", "v2", "v3", "v4", "v8", "v9"], "blocked_by": ["a", "b"]}})


def test_check_usage_errors(prof, capsys):
    code, _, err = run(capsys, ["check", "--check", "veto-core", "--profile", prof(T)])
    assert code == 3 and "--candidate is required" in err
    code, _, err = run(capsys, ["check", "--check", "psc", "--profile", prof(T)])
    assert code == 3 and "--committee is required" in err


@pytest.mark.parametrize("argv, refused", [
    (["rule", "--rule", "plurality-veto", "--k", "2", "--tie-break", "c,b,a"], "--k"),
    (["rule", "--rule", "plurality-veto", "--tie-break", "c,b,a"], "--tie-break"),
    (["rule", "--rule", "composite", "--order", "3,2,1"], "--order"),
    (["rule", "--rule", "veto-consumption", "--k", "0"], "--k"),
    (["check", "--check", "psc", "--committee", "a,b", "--clone-plurality"],
     "--clone-plurality"),
    (["check", "--check", "veto-core", "--candidate", "a", "--committee", "b,c"],
     "--committee"),
])
def test_options_a_rule_or_check_does_not_read_are_refused(argv, refused, prof, capsys):
    code, out, err = run(capsys, argv + ["--profile", prof(T)])
    assert code == 3 and out == ""
    assert f"{refused} does not apply to {argv[2]}" in err


def test_every_option_is_read_by_its_entries_and_refused_by_the_others(prof, capsys):
    path = prof(T)
    values = {"order": ["1,2,3"], "tie_break": ["a,b,c"], "k": ["1"],
              "candidate": ["a"], "committee": ["a"], "clone_plurality": []}
    for command, table in (("rule", cli.RULES), ("check", cli.CHECKS)):
        options = {o for reads, _ in table.values() for o in reads}
        for name, (reads, _) in table.items():
            base = [command, f"--{command}", name, "--profile", path]
            if command == "check":
                base += [f"--{reads[0]}", *values[reads[0]]]
            for option in sorted(options):
                flag = "--" + option.replace("_", "-")
                code, _, err = run(capsys, base + [flag, *values[option]])
                if option in reads:
                    assert code in (0, 1), (name, flag, err)
                else:
                    assert code == 3 and f"{flag} does not apply" in err, (name, flag)


def test_psc_check(prof, capsys):
    code, out, _ = run(capsys, [
        "check", "--check", "psc", "--profile", prof(P_REV), "--committee", "c1,c3",
    ])
    assert code == 0 and out == "satisfied\n"
    code, out, _ = run(capsys, [
        "check", "--check", "psc", "--profile", prof(T_REV), "--committee", "a,b",
    ])
    assert code == 1
    assert out == "violated\n  voters v1,v2 deserve c from {c}\n"


def test_psc_committee_names_distinct_candidates_and_sets_k(prof, capsys):
    argv = ["check", "--check", "psc", "--profile", prof(T_REV), "--committee"]
    code, out, err = run(capsys, argv + ["a,a"])
    assert code == 2 and out == "" and "candidate a twice" in err
    # k is the committee's size; check takes no --k
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["a,b", "--k", "2"])
    assert exc.value.code == 3


def test_domination_check(prof, capsys):
    path = prof(T)
    code, out, _ = run(capsys, [
        "check", "--check", "domination", "--profile", path, "--candidate", "a",
    ])
    assert code == 0 and out == "a: fractional perfect matching exists\n"
    code, out, _ = run(capsys, [
        "check", "--check", "domination", "--profile", path, "--candidate", "c",
    ])
    assert code == 1
    assert out == "c: no fractional perfect matching\n  deficient voters v1,v2\n"


def test_domination_under_plurality_cloning(prof, capsys):
    code, out, _ = run(capsys, [
        "check", "--check", "domination", "--profile", prof(T),
        "--candidate", "a", "--clone-plurality",
    ])
    assert code == 0 and "matching exists" in out
    code, out, _ = run(capsys, [
        "check", "--check", "domination", "--profile", prof(P),
        "--candidate", "c2", "--clone-plurality",
    ])
    assert code == 1 and out == "c2: no clones (plurality score 0), no matching\n"


def test_pareto_matching_check(prof, capsys):
    code, out, _ = run(capsys, [
        "check", "--check", "pareto-matching", "--profile", prof(P), "--candidate", "c1",
    ])
    assert code == 0
    assert out == "c1: criterion holds\n  v1 -> c2\n  v2 -> c3\n"
    code, out, _ = run(capsys, [
        "check", "--check", "pareto-matching", "--profile", prof(T), "--candidate", "c",
    ])
    assert code == 1 and out == "c: criterion fails\n"


def test_distortion_value_and_certificate(prof, capsys, tmp_path):
    cert = str(tmp_path / "cert.txt")
    code, out, _ = run(capsys, [
        "distortion", "--profile", prof(S), "--candidate", "a", "--certificate", cert,
    ])
    assert code == 0
    assert out == f"3/1\ncertificate written to {cert}\n"
    assert (tmp_path / "cert.txt").read_text() == "1/1 1/1\n2/1 0/1\n"


def test_distortion_infinite(prof, capsys):
    code, out, _ = run(capsys, ["distortion", "--profile", prof(U), "--candidate", "b"])
    assert code == 0 and out == "inf\n"


def test_distortion_size_cap(prof, capsys):
    code, _, err = run(capsys, [
        "distortion", "--profile", prof(P), "--candidate", "c1", "--size-cap", "5",
    ])
    assert code == 4 and "12 LP variables, cap is 5" in err


def test_clone_plurality_check_solves_one_flow(prof, capsys, monkeypatch):
    # c2 has two clones and neither admits a matching; the first decides
    calls = []
    solve = FlowNetwork.solve
    monkeypatch.setattr(FlowNetwork, "solve", lambda net: calls.append(net) or solve(net))
    code, out, _ = run(capsys, [
        "check", "--check", "domination", "--profile", prof("3: 1,2,3\n2: 2,1,3\n"),
        "--candidate", "c2", "--clone-plurality",
    ])
    assert code == 1
    assert out == "c2: no fractional perfect matching\n  deficient voters v1,v2,v3\n"
    assert len(calls) == 1


def test_hostile_count_line_is_a_resource_limit(prof, capsys):
    path = prof("1000000000: 1,2,3\n")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["rule", "--rule", "veto-consumption", "--profile", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4 and "more than 1000000 voters, line 1" in err
    assert peak < 1 << 20


def test_unknown_candidate_name(prof, capsys):
    code, _, err = run(capsys, [
        "distortion", "--profile", prof(T), "--candidate", "zz",
    ])
    assert code == 2 and "unknown candidate name: 'zz'" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, [
        "rule", "--rule", "plurality-veto", "--profile", "/nonexistent.prof",
    ])
    assert code == 2 and "error:" in err


def test_malformed_profile(prof, capsys):
    code, _, err = run(capsys, [
        "rule", "--rule", "plurality-veto",
        "--profile", prof("2 1\na a\na>a\n"),
    ])
    assert code == 2 and "line 2" in err
    # the name would turn into a comment line when written back out
    code, _, err = run(capsys, [
        "rule", "--rule", "plurality-veto",
        "--profile", prof("# ALTERNATIVE NAME 1: #x\n2: 1,2\n"),
    ])
    assert code == 2 and "bad candidate name: '#x'" in err


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["rule", "--profile", "x.prof"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["rule", "--rule", "banana", "--profile", "x.prof"])
    assert exc.value.code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "vetoflow" in capsys.readouterr().out


def test_audit_equivalence_single_profile(prof, capsys):
    code, out, _ = run(capsys, ["audit", "equivalence", "--profile", prof(P)])
    assert code == 0
    assert "instances=1 checks=3" in out
    assert out.count("expected-divergence") == 2
    assert "status=ok" in out


def test_audit_equivalence_exhaustive(prof, capsys):
    code, out, _ = run(capsys, ["audit", "equivalence", "--exhaustive", "--n", "2", "--m", "2"])
    assert code == 0 and "instances=4 checks=8" in out


def test_audit_distortion3(capsys):
    code, out, _ = run(capsys, [
        "audit", "distortion3", "--trials", "5", "--nmax", "4", "--mmax", "3",
    ])
    assert code == 0
    assert out.startswith("checked=") and "failures=0" in out


def test_audit_refuses_an_instance_source_it_would_ignore(prof, capsys):
    # distortion3 draws random instances only, and one equivalence audit
    # reads one source; each refusal exits 3 before any instance is audited
    path = prof(P)
    for argv, refused in ((["distortion3", "--profile", path], "--profile"),
                          (["distortion3", "--exhaustive"], "--exhaustive")):
        code, out, err = run(capsys, ["audit", *argv, "--trials", "1"])
        assert code == 3 and out == ""
        assert f"{refused} does not apply to distortion3" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "equivalence", "--profile", path, "--exhaustive"])
    assert exc.value.code == 3
    assert "not allowed with argument" in capsys.readouterr().err
    # each source alone is still read; the JSON record's seed is that of
    # the drawn instances, and null for a source that draws none
    for argv, seed in ((["--profile", path], None),
                       (["--exhaustive", "--n", "2", "--m", "2"], None),
                       (["--trials", "2"], 0), (["--trials", "2", "--seed", "5"], 5)):
        code, out, _ = run(capsys, ["audit", "equivalence", *argv, "--json"])
        assert code == 0 and json.loads(out)["seed"] == seed


@pytest.mark.parametrize("kind, source, reads", [
    ("equivalence", "--profile", ()),
    ("equivalence", "--exhaustive", ("--n", "--m")),
    ("equivalence", "random draws", ("--trials", "--nmax", "--mmax", "--seed")),
    ("distortion3", "random draws", ("--trials", "--nmax", "--mmax", "--seed")),
])
def test_audit_refuses_a_flag_its_source_does_not_read(kind, source, reads, prof, capsys):
    # each refusal exits 3 before any instance is read or drawn
    argv = {"--profile": ["--profile", prof(P)], "--exhaustive": ["--exhaustive"]}.get(source, [])
    for flag in ("--n", "--m", "--trials", "--nmax", "--mmax", "--seed"):
        if flag not in reads:
            code, out, err = run(capsys, ["audit", kind, *argv, flag, "2"])
            assert code == 3 and out == ""
            assert f"{flag} does not apply to {source}" in err


def test_gen_ic_round_trips(tmp_path, capsys):
    out_path = str(tmp_path / "random.prof")
    code, out, _ = run(capsys, [
        "gen", "--model", "ic", "--n", "4", "--m", "3", "--seed", "7", "-o", out_path,
    ])
    assert code == 0 and out == f"wrote {out_path}\n"
    code2, out2, _ = run(capsys, ["rule", "--rule", "plurality-veto", "--profile", out_path])
    assert code2 == 0 and out2.startswith("winner: ")
    first = (tmp_path / "random.prof").read_text()
    run(capsys, ["gen", "--model", "ic", "--n", "4", "--m", "3", "--seed", "7", "-o", out_path])
    assert (tmp_path / "random.prof").read_text() == first


def test_gen_euclidean_writes_sidecar(tmp_path, capsys):
    out_path = str(tmp_path / "points.prof")
    code, out, _ = run(capsys, [
        "gen", "--model", "euclidean", "--n", "3", "--m", "3", "--seed", "1", "-o", out_path,
    ])
    assert code == 0
    assert out == f"wrote {out_path}\nwrote {out_path}.metric\n"
    # the sidecar is the matrix's one text format and reads back through its check
    p, dm = gen_euclidean(3, 3, 1)
    assert parse_profile((tmp_path / "points.prof").read_text()) == p
    assert parse_metric((tmp_path / "points.prof.metric").read_text(), p) == dm


def test_json_payload_schema(prof, capsys):
    path = prof(T)
    argv = ["rule", "--rule", "plurality-veto", "--profile", path, "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    record = json.loads(out)
    assert record["command"] == argv
    assert record["payload"] == {"rule": "plurality-veto", "winner": "b"}
    assert record["seed"] is None
    assert len(record["digest"]) == 64 and set(record["digest"]) <= set("0123456789abcdef")
    _, out2, _ = run(capsys, argv)
    assert out2 == out


def test_json_rationals_are_strings(prof, capsys):
    code, out, _ = run(capsys, ["rule", "--rule", "ps", "--profile", prof(U), "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["assignment"] == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_json_witness_payload(prof, capsys):
    code, out, _ = run(capsys, [
        "check", "--check", "veto-core", "--profile", prof(P), "--candidate", "c1", "--json",
    ])
    assert code == 1
    witness = json.loads(out)["payload"]["witness"]
    assert witness == {"voters": ["v3", "v4"], "blocked_by": ["c2", "c3"]}


def test_timing_goes_to_stderr_only(prof, capsys):
    _, out, err = run(capsys, ["rule", "--rule", "plurality-veto", "--profile", prof(T)])
    assert "elapsed:" in err and "elapsed:" not in out


C = "3 3\na b c\na>b>c\na>c>b\nb>a>c\n"


def run_json(capsys, argv):
    code, out, _ = run(capsys, [*argv, "--json"])
    return code, json.loads(out)["payload"]


def test_json_rule_payloads(prof, capsys):
    assert run_json(capsys, ["rule", "--rule", "veto-consumption", "--profile", prof(P)]) == (
        0, {"rule": "veto-consumption", "winners": ["c2"]})
    assert run_json(capsys, ["rule", "--rule", "phragmen", "--profile", prof(P), "--k", "2"]) == (
        0, {"rule": "phragmen", "committee": ["c1", "c3"]})
    assert run_json(capsys, ["rule", "--rule", "serial-dictatorship", "--profile", prof(S)]) == (
        0, {"rule": "serial-dictatorship", "matching": {"v1": "a", "v2": "b"}})


def test_json_psc_payloads(prof, capsys):
    argv = ["check", "--check", "psc", "--profile"]
    assert run_json(capsys, [*argv, prof(P_REV), "--committee", "c1,c3"]) == (
        0, {"check": "psc", "satisfied": True, "violation": None})
    assert run_json(capsys, [*argv, prof(T_REV), "--committee", "a,b"]) == (
        1, {"check": "psc", "satisfied": False,
            "violation": {"supporters": ["v1", "v2"], "prefix_set": ["c"], "alternative": "c"}})


def test_json_domination_payloads(prof, capsys):
    argv = ["check", "--check", "domination", "--profile"]
    assert run_json(capsys, [*argv, prof(T), "--candidate", "a"]) == (
        0, {"check": "domination", "candidate": "a", "matching": True})
    assert run_json(capsys, [*argv, prof(T), "--candidate", "c"]) == (
        1, {"check": "domination", "candidate": "c", "matching": False,
            "witness": {"voters": ["v1", "v2"], "dominated": ["c"]}})
    assert run_json(capsys, [*argv, prof(T), "--candidate", "a", "--clone-plurality"]) == (
        0, {"check": "domination", "candidate": "a", "matching": True})
    assert run_json(capsys, [*argv, prof(C), "--candidate", "b", "--clone-plurality"]) == (
        1, {"check": "domination", "candidate": "b", "matching": False,
            "witness": {"voters": ["v1", "v2"], "dominated": ["b#1"]}})
    assert run_json(capsys, [*argv, prof(P), "--candidate", "c2", "--clone-plurality"]) == (
        1, {"check": "domination", "candidate": "c2", "matching": False,
            "note": "no clones (plurality zero)"})


def test_json_pareto_payloads(prof, capsys):
    argv = ["check", "--check", "pareto-matching", "--profile"]
    assert run_json(capsys, [*argv, prof(P), "--candidate", "c1"]) == (
        0, {"check": "pareto-matching", "candidate": "c1", "criterion": True,
            "matching": {"v1": "c2", "v2": "c3"}})
    assert run_json(capsys, [*argv, prof(T), "--candidate", "c"]) == (
        1, {"check": "pareto-matching", "candidate": "c", "criterion": False, "matching": None})


def test_json_distortion_payloads(prof, capsys, tmp_path):
    cert = str(tmp_path / "cert.txt")
    assert run_json(capsys, [
        "distortion", "--profile", prof(S), "--candidate", "a", "--certificate", cert,
    ]) == (0, {"candidate": "a", "value": "3/1", "reference": "b", "certificate": cert})
    unused = tmp_path / "unused.txt"
    assert run_json(capsys, [
        "distortion", "--profile", prof(U), "--candidate", "b", "--certificate", str(unused),
    ]) == (0, {"candidate": "b", "value": "inf", "reference": "a"})
    assert not unused.exists()


def test_json_audit_distortion3_and_gen_payloads(capsys, tmp_path):
    code, out, _ = run(capsys, [
        "audit", "distortion3", "--trials", "5", "--nmax", "4", "--mmax", "3", "--json",
    ])
    record = json.loads(out)
    assert code == 0 and record["seed"] == 0 and record["digest"] is None
    assert record["payload"] == {"checked": 8, "failures": [], "ok": True}
    out_path = str(tmp_path / "points.prof")
    code, out, _ = run(capsys, [
        "gen", "--model", "euclidean", "--n", "3", "--m", "3", "--seed", "1", "-o", out_path,
        "--json",
    ])
    record = json.loads(out)
    assert code == 0 and record["seed"] == 1 and record["digest"] is None
    assert record["payload"] == {"files": [out_path, out_path + ".metric"]}


def test_json_audit_profile_carries_the_digest(prof, capsys):
    path = prof(P)
    code, out, _ = run(capsys, ["audit", "equivalence", "--profile", path, "--json"])
    assert code == 0
    assert json.loads(out)["digest"] == hashlib.sha256(P.encode()).hexdigest()


@pytest.mark.parametrize("flag, argv", [
    ("--n", ["gen", "--model", "ic", "--n", "0", "--m", "3", "-o", "unused.prof"]),
    ("--n", ["gen", "--model", "euclidean", "--n", "-3", "--m", "3", "-o", "unused.prof"]),
    ("--m", ["gen", "--model", "ic", "--n", "3", "--m", "0", "-o", "unused.prof"]),
    ("--n", ["audit", "equivalence", "--exhaustive", "--n", "0"]),
    ("--m", ["audit", "equivalence", "--exhaustive", "--m", "-1"]),
    ("--nmax", ["audit", "equivalence", "--nmax", "0"]),
    ("--mmax", ["audit", "equivalence", "--mmax", "-2"]),
    ("--trials", ["audit", "distortion3", "--trials", "-5"]),
    ("--trials", ["audit", "equivalence", "--trials", "0"]),
    ("--size-cap", ["distortion", "--profile", "unused.prof", "--candidate", "a",
                    "--size-cap", "-1"]),
], ids=["gen-n", "gen-negative-n", "gen-m", "audit-n", "audit-m", "audit-nmax", "audit-mmax",
        "audit-trials", "audit-zero-trials", "distortion-size-cap"])
def test_count_flags_below_one_are_bad_input(flag, argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"{flag} must be at least 1" in err
    assert not (tmp_path / "unused.prof").exists()


VOTERS = "1000000000 asks for more than 1000000 voters"
CANDIDATES = "asks for more than 100000 candidates"
CELLS = "asks for more than 10000000 ranking cells"


@pytest.mark.parametrize("argv, message", [
    (["gen", "--model", "ic", "--n", "1000000000", "--m", "3", "-o", "unused.prof"], VOTERS),
    (["gen", "--model", "euclidean", "--n", "1000000000", "--m", "3", "-o", "unused.prof"],
     VOTERS),
    (["audit", "equivalence", "--exhaustive", "--n", "1000000000", "--m", "2"], VOTERS),
    (["audit", "equivalence", "--nmax", "1000000000"], VOTERS),
    (["audit", "distortion3", "--nmax", "1000000000"], VOTERS),
    (["gen", "--model", "ic", "--n", "1", "--m", "100000000", "-o", "unused.prof"], CANDIDATES),
    (["gen", "--model", "ic", "--n", "1", "--m", "10000000", "-o", "unused.prof"], CANDIDATES),
    (["gen", "--model", "euclidean", "--n", "1", "--m", "10000000", "-o", "unused.prof"],
     CANDIDATES),
    (["gen", "--model", "ic", "--n", "1000", "--m", "100000", "-o", "unused.prof"], CELLS),
    (["gen", "--model", "euclidean", "--n", "1000000", "--m", "11", "-o", "unused.prof"], CELLS),
    (["audit", "equivalence", "--exhaustive", "--n", "1", "--m", "10"], CELLS),
    (["audit", "equivalence", "--exhaustive", "--n", "1", "--m", "1000000000"], CANDIDATES),
    (["audit", "equivalence", "--exhaustive", "--n", "1", "--m", "100000"], CELLS),
    (["audit", "equivalence", "--nmax", "1000000", "--mmax", "11"], CELLS),
    (["audit", "equivalence", "--mmax", "10000000"], CANDIDATES),
    (["audit", "distortion3", "--nmax", "2", "--mmax", "100000000"], CANDIDATES),
    (["audit", "distortion3", "--nmax", "1000", "--mmax", "100000"], CELLS),
], ids=["gen-ic", "gen-euclidean", "audit-exhaustive", "audit-equivalence", "audit-distortion3",
        "gen-ic-m", "gen-ic-ten-million-m", "gen-euclidean-m", "gen-ic-cells",
        "gen-euclidean-cells", "audit-exhaustive-m", "audit-exhaustive-huge-m",
        "audit-exhaustive-capped-m", "audit-equivalence-cells", "audit-equivalence-mmax",
        "audit-distortion3-mmax", "audit-distortion3-cells"])
def test_hostile_generated_size_is_a_resource_limit(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4 and message in err
    assert peak < 1 << 20
    assert not (tmp_path / "unused.prof").exists()


def test_native_files_are_capped_by_their_ballot_lines(prof, capsys, monkeypatch):
    # the profile itself caps its voters, so a native file obeys the bound
    # that count lines and gen obey
    monkeypatch.setattr(profiles, "MAX_VOTERS", 3)
    code, out, _ = run(capsys, ["rule", "--rule", "plurality-veto", "--profile", prof(T)])
    assert code == 0 and out == "winner: b\n"
    code, out, err = run(capsys, ["rule", "--rule", "plurality-veto", "--profile", prof(P)])
    assert code == 4 and out == "" and "more than 3 voters" in err


# 4000 voters cloned onto 4000 clones would hold 1.6e7 ranking cells; the
# seed-0 audit draws a 3459-voter election first, 1.2e7 cells.  Plurality
# veto spends plurality scores without cloning, so it answers within the
# same memory bound.
CLONES = "onto 4000 clones asks for more than 10000000 ranking cells"


@pytest.mark.parametrize("argv, code, message", [
    (["rule", "--rule", "plurality-veto"], 0, "winner: c1\n"),
    (["rule", "--rule", "composite"], 4, CLONES),
    (["check", "--check", "domination", "--candidate", "c1", "--clone-plurality"], 4, CLONES),
    (["audit", "distortion3", "--nmax", "4000", "--mmax", "3", "--trials", "1"],
     4, "onto 3459 clones asks for more than 10000000 ranking cells"),
], ids=["plurality-veto", "composite", "check-clone-plurality", "audit-distortion3"])
def test_hostile_clone_expansion_is_a_resource_limit(argv, code, message, prof, capsys):
    if argv[0] != "audit":
        argv = [*argv, "--profile", prof("4000: 1,2,3\n")]
    tracemalloc.start()
    try:
        got, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == code
    assert out == message if code == 0 else message in err
    assert peak < 1 << 20
