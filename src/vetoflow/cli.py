"""Command-line front end.

Subcommands: ``rule`` (run a voting or assignment rule), ``check`` (axiom
and matching checks with witnesses), ``distortion`` (exact LP value),
``audit`` (equivalence and distortion sweeps), ``gen`` (instance
generators).

Exit codes: 0 the property holds / the computation succeeded, 1 the checked
property is violated, 2 bad input, 3 bad usage, 4 resource limits.  All
output is deterministic for fixed flags, inputs and seed; timing goes to
standard error only.  Rationals are printed as "p/q", never as floats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from . import __version__
from .axioms import (
    equivalence_audit,
    pareto_matching_criterion,
    veto_core_member,
    weak_psc_satisfied,
)
from .distortion import INFINITE, LpSizeError, distortion_of_candidate
from .eating import phragmen_committee, probabilistic_serial, veto_by_consumption_winners
from .matching import extract_deficiency_witness
from .profiles import (
    MAX_CELLS,
    MAX_VOTERS,
    PreferenceProfile,
    ProfileSizeError,
    all_profiles,
    clone_expand,
)
from .profile_io import (
    MAX_CANDIDATES,
    format_rational,
    gen_euclidean,
    gen_impartial_culture,
    parse_profile,
    serialize_profile,
)
from .rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
    serial_dictatorship,
)

HOLDS, VIOLATED, BAD_INPUT, BAD_USAGE, RESOURCE = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for bad input
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(BAD_USAGE)


def _load_profile(args) -> PreferenceProfile:
    """Parse ``args.profile``; the JSON record carries the file's digest."""
    with open(args.profile, "r", encoding="utf-8") as fh:
        text = fh.read()
    args.digest = hashlib.sha256(text.encode()).hexdigest()
    return parse_profile(text)


def _count(flag: str, value: int) -> int:
    """Reject a count flag below 1, and a generated electorate or candidate
    set larger than the caps allow."""
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    if flag in ("--n", "--nmax") and value > MAX_VOTERS:
        raise ProfileSizeError(f"{flag} {value} asks for more than {MAX_VOTERS} voters")
    if flag in ("--m", "--mmax") and value > MAX_CANDIDATES:
        raise ProfileSizeError(f"{flag} {value} asks for more than {MAX_CANDIDATES} candidates")
    return value


def _cap_cells(flags: str, rankings: int, m: int) -> None:
    """Reject generating ``rankings`` rankings of m candidates when they
    would hold more than MAX_CELLS cells."""
    if rankings * m > MAX_CELLS:
        raise ProfileSizeError(f"{flags} asks for more than {MAX_CELLS} ranking cells")


def _voter_order(p: PreferenceProfile, raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    # orders are given 1-based on the command line
    order = [int(tok) - 1 for tok in raw.split(",")]
    if sorted(order) != list(range(p.n)):
        raise ValueError(f"--order must be a permutation of 1..{p.n}")
    return order


def _tie_break(p: PreferenceProfile, raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    return [p.name_index(tok) for tok in raw.split(",")]


def _voter_names(voters) -> list[str]:
    return [f"v{i + 1}" for i in sorted(voters)]


def _pairs(p: PreferenceProfile, matching: dict[int, int]) -> dict[str, str]:
    return {f"v{i + 1}": p.candidate_names[c] for i, c in sorted(matching.items())}


def _value_text(value) -> str:
    return "inf" if value == INFINITE else format_rational(value)


def _refuse_unread(args, name: str, table: dict) -> None:
    """Refuse an option that some entry of ``table`` reads but ``name``'s
    entry does not, rather than run without it."""
    reads = table[name][0]
    for option in sorted({o for entry_reads, _ in table.values() for o in entry_reads}):
        if option not in reads and getattr(args, option) is not None:
            flag = "--" + option.replace("_", "-")
            raise argparse.ArgumentError(None, f"{flag} does not apply to {name}")


# rule name -> (the options it reads, handler); a handler takes (profile,
# voter order, tie-break, k) and returns the payload key and the raw
# result, which cmd_rule renders by that key
RULES = {
    "plurality-veto": (("order",), lambda p, order, tie, k: (
        "winner", plurality_veto(p, order))),
    "veto-consumption": ((), lambda p, order, tie, k: (
        "winners", sorted(veto_by_consumption_winners(p)))),
    "phragmen": (("tie_break", "k"), lambda p, order, tie, k: (
        "committee", phragmen_committee(p, p.m if k is None else k, tie))),
    "ps": (("k",), lambda p, order, tie, k: (
        "assignment", probabilistic_serial(p, k).shares)),
    "serial-dictatorship": (("order", "k"), lambda p, order, tie, k: (
        "matching", serial_dictatorship(p, order, k))),
    "composite": (("tie_break",), lambda p, order, tie, k: (
        "winner", composite_distortion_rule(p, tie))),
}


def _check_veto_core(p, args):
    names = p.candidate_names
    c = p.name_index(args.candidate)
    verdict = veto_core_member(p, c)
    if verdict.member:
        return HOLDS, {"candidate": names[c], "member": True, "witness": None}, [
            f"{names[c]}: member"]
    voters = _voter_names(p.voters_of(verdict.witness.types))
    blocked_by = sorted(names[b] for b in range(p.m) if b not in verdict.witness.dominated)
    return VIOLATED, {
        "candidate": names[c], "member": False,
        "witness": {"voters": voters, "blocked_by": blocked_by},
    }, [f"{names[c]}: vetoed",
        f"  by voters {','.join(voters)} ranking {','.join(blocked_by)} above it"]


def _check_psc(p, args):
    names = p.candidate_names
    verdict = weak_psc_satisfied(p, [p.name_index(tok) for tok in args.committee.split(",")])
    if verdict.satisfied:
        return HOLDS, {"satisfied": True, "violation": None}, ["satisfied"]
    v = verdict.violation
    supporters = _voter_names(v.supporters)
    prefix_set = sorted(names[c] for c in v.prefix_set)
    return VIOLATED, {
        "satisfied": False,
        "violation": {"supporters": supporters, "prefix_set": prefix_set,
                      "alternative": names[v.alternative]},
    }, ["violated",
        f"  voters {','.join(supporters)} deserve {names[v.alternative]}"
        f" from {{{','.join(prefix_set)}}}"]


def _check_domination(p, args):
    name = args.candidate
    q, targets = p, [p.name_index(name)]
    if args.clone_plurality:
        ce = clone_expand(p)
        q, targets = ce.expanded, ce.clones[targets[0]]
        if not targets:
            return VIOLATED, {"candidate": name, "matching": False,
                              "note": "no clones (plurality zero)"}, [
                f"{name}: no clones (plurality score 0), no matching"]
    # the first clone's edge sets contain every later clone's, so one cut
    # on it decides for all of them
    witness = extract_deficiency_witness(q, targets[0])
    if witness is None:
        return HOLDS, {"candidate": name, "matching": True}, [
            f"{name}: fractional perfect matching exists"]
    voters = _voter_names(q.voters_of(witness.types))
    return VIOLATED, {
        "candidate": name, "matching": False,
        "witness": {"voters": voters,
                    "dominated": sorted(q.candidate_names[c] for c in witness.dominated)},
    }, [f"{name}: no fractional perfect matching", "  deficient voters " + ",".join(voters)]


def _check_pareto_matching(p, args):
    c = p.name_index(args.candidate)
    name = p.candidate_names[c]
    ok, matching = pareto_matching_criterion(p, c)
    if not ok:
        return VIOLATED, {"candidate": name, "criterion": False, "matching": None}, [
            f"{name}: criterion fails"]
    pairs = _pairs(p, matching)
    return HOLDS, {"candidate": name, "criterion": True, "matching": pairs}, [
        f"{name}: criterion holds", *(f"  {v} -> {x}" for v, x in pairs.items())]


# check name -> (the options it reads, the first of which it cannot run
# without, handler); a handler takes (profile, args) and returns the exit
# code, the payload beyond its "check" key and the text lines
CHECKS = {
    "veto-core": (("candidate",), _check_veto_core),
    "psc": (("committee",), _check_psc),
    "domination": (("candidate", "clone_plurality"), _check_domination),
    "pareto-matching": (("candidate",), _check_pareto_matching),
}


def cmd_rule(args):
    _refuse_unread(args, args.rule, RULES)
    p = _load_profile(args)
    names = p.candidate_names
    order, tie = _voter_order(p, args.order), _tie_break(p, args.tie_break)
    key, result = RULES[args.rule][1](p, order, tie, args.k)
    if key == "winner":
        value, lines = names[result], [f"winner: {names[result]}"]
    elif key == "assignment":
        value = [[format_rational(x) for x in row] for row in result]
        lines = [f"v{i + 1}: " + " ".join(row) for i, row in enumerate(value)]
    elif key == "matching":
        value = _pairs(p, result)
        lines = [f"{v} -> {c}" for v, c in value.items()]
    else:
        value = [names[c] for c in result]
        lines = [f"{key}: " + " ".join(value)]
    return HOLDS, {"rule": args.rule, key: value}, lines


def cmd_check(args):
    _refuse_unread(args, args.check, CHECKS)
    reads, handler = CHECKS[args.check]
    option = reads[0]
    if not getattr(args, option):
        raise argparse.ArgumentError(None, f"--{option} is required for {args.check}")
    code, payload, lines = handler(_load_profile(args), args)
    return code, {"check": args.check, **payload}, lines


def cmd_distortion(args):
    size_cap = _count("--size-cap", args.size_cap)
    p = _load_profile(args)
    c = p.name_index(args.candidate)
    result = distortion_of_candidate(p, c, size_cap=size_cap)
    value = _value_text(result.value)
    payload = {
        "candidate": p.candidate_names[c],
        "value": value,
        "reference": None if result.reference is None else p.candidate_names[result.reference],
    }
    lines = [value]
    if args.certificate and result.certificate is not None:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(result.certificate.to_text())
        payload["certificate"] = args.certificate
        lines.append(f"certificate written to {args.certificate}")
    return HOLDS, payload, lines


def _random_instances(args):
    nmax, mmax = _count("--nmax", args.nmax), _count("--mmax", args.mmax)
    _cap_cells(f"--nmax {nmax} --mmax {mmax}", nmax, mmax)
    rng = random.Random(args.seed)
    for _ in range(_count("--trials", args.trials)):
        n = rng.randint(1, nmax)
        m = rng.randint(1, mmax)
        yield gen_impartial_culture(n, m, seed=rng.randrange(1 << 30))


def _exhaustive_instances(args):
    n, m = _count("--n", args.n), _count("--m", args.m)
    # all m! rankings are listed up front; stop multiplying past the cap
    perms = 1
    for k in range(2, m + 1):
        perms *= k
        if perms * m > MAX_CELLS:
            break
    _cap_cells(f"--m {m}", perms, m)
    return all_profiles(n, m)


# instance source -> (the options it reads, each with its value when
# absent, and its instances); only random draws report a seed
SOURCES = {
    "--profile": ({"profile": None}, lambda args: [_load_profile(args)]),
    "--exhaustive": ({"exhaustive": None, "n": 3, "m": 3}, _exhaustive_instances),
    "random draws": ({"trials": 100, "nmax": 5, "mmax": 4, "seed": 0}, _random_instances),
}


def _audit_equivalence(instances):
    report = equivalence_audit(instances)
    return HOLDS if report.ok else VIOLATED, report.to_json(), report.lines()


def _audit_distortion3(instances):
    # every distortion-motivated winner stays within the bound
    failures = []
    checked = 0
    for p in instances:
        winners = {*plurality_matching_winners(p), plurality_veto(p), composite_distortion_rule(p)}
        for c in sorted(winners):
            checked += 1
            value = distortion_of_candidate(p, c).value
            if value > 3:
                failures.append({"profile": serialize_profile(p),
                                 "candidate": p.candidate_names[c],
                                 "value": _value_text(value)})
    lines = [f"checked={checked} failures={len(failures)}", *(f"FAILURE {f}" for f in failures)]
    return HOLDS if not failures else VIOLATED, {
        "checked": checked, "failures": failures, "ok": not failures}, lines


# audit kind -> (the options it reads besides those of the random
# instances, handler); a handler takes the instances and returns the exit
# code, the payload and the text lines
AUDITS = {
    "equivalence": (("profile", "exhaustive"), _audit_equivalence),
    "distortion3": ((), _audit_distortion3),
}


def cmd_audit(args):
    _refuse_unread(args, args.kind, AUDITS)
    source = ("--profile" if args.profile is not None
              else "--exhaustive" if args.exhaustive else "random draws")
    _refuse_unread(args, source, SOURCES)
    reads, instances = SOURCES[source]
    vars(args).update((o, absent) for o, absent in reads.items() if getattr(args, o) is None)
    return AUDITS[args.kind][1](instances(args))


def cmd_gen(args):
    n, m = _count("--n", args.n), _count("--m", args.m)
    _cap_cells(f"--n {n} --m {m}", n, m)
    if args.model == "ic":
        files = {args.out: serialize_profile(gen_impartial_culture(n, m, args.seed))}
    else:
        p, dm = gen_euclidean(n, m, args.seed)
        files = {args.out: serialize_profile(p), args.out + ".metric": dm.to_text()}
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return HOLDS, {"files": list(files)}, [f"wrote {path}" for path in files]


def build_parser() -> _Parser:
    parser = _Parser(prog="vetoflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vetoflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    reads_profile = argparse.ArgumentParser(add_help=False, parents=[common])
    reads_profile.add_argument("--profile", required=True)

    rule = sub.add_parser("rule", parents=[reads_profile], help="run a voting or assignment rule")
    rule.add_argument("--rule", required=True, choices=RULES)
    rule.add_argument("--order", help="1-based voter order, e.g. 2,1,3")
    rule.add_argument("--tie-break", help="candidate names best first, e.g. b,a,c")
    rule.add_argument("--k", type=int, help="committee or matching size")

    check = sub.add_parser("check", parents=[reads_profile],
                           help="check an axiom or matching property")
    check.add_argument("--check", required=True, choices=CHECKS)
    check.add_argument("--candidate", help="candidate name")
    check.add_argument("--committee", help="comma-separated candidate names")
    # None when absent, so that cmd_check can tell it was not given
    check.add_argument("--clone-plurality", action="store_true", default=None,
                       help="check in the plurality-cloned instance")

    dist = sub.add_parser("distortion", parents=[reads_profile],
                          help="exact metric distortion of a candidate")
    dist.add_argument("--candidate", required=True)
    dist.add_argument("--certificate", help="write the optimal distance matrix here")
    dist.add_argument("--size-cap", type=int, default=100,
                      help="maximum n*m LP variables (default 100)")

    audit = sub.add_parser("audit", parents=[common],
                           help="run the equivalence or distortion sweeps")
    audit.add_argument("kind", choices=AUDITS)
    # a profile, an exhaustive sweep and random draws are the sources of
    # instances; every option is None when absent, so that cmd_audit can tell
    source = audit.add_mutually_exclusive_group()
    source.add_argument("--profile", help="audit a single profile file")
    source.add_argument("--exhaustive", action="store_true", default=None)
    for option in ("--n", "--m", "--trials", "--nmax", "--mmax", "--seed"):
        audit.add_argument(option, type=int)

    gen = sub.add_parser("gen", parents=[common], help="generate instances")
    gen.add_argument("--model", required=True, choices=["ic", "euclidean"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True)
    return parser


# subcommand -> handler returning (exit code, JSON payload, text lines)
COMMANDS = {"rule": cmd_rule, "check": cmd_check, "distortion": cmd_distortion,
            "audit": cmd_audit, "gen": cmd_gen}


def _fail(code: int, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code, payload, lines = COMMANDS[args.command](args)
    except (LpSizeError, ProfileSizeError) as exc:
        return _fail(RESOURCE, exc)
    except argparse.ArgumentError as exc:
        return _fail(BAD_USAGE, exc)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(BAD_INPUT, exc.args[0] if isinstance(exc, KeyError) and exc.args else exc)
    finally:
        elapsed = (time.monotonic() - started) * 1000
        print(f"elapsed: {elapsed:.1f} ms", file=sys.stderr)
    if args.json:
        lines = [json.dumps({
            "command": list(sys.argv[1:] if argv is None else argv),
            "seed": getattr(args, "seed", None),
            "digest": getattr(args, "digest", None),
            "payload": payload,
        }, sort_keys=True)]
    for ln in lines:
        print(ln)
    return code


if __name__ == "__main__":
    sys.exit(main())
