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
from fractions import Fraction

from . import __version__
from .axioms import (
    equivalence_audit,
    pareto_matching_criterion,
    veto_core_member,
    weak_psc_satisfied,
)
from .distortion import INFINITE, LpSizeError, distortion_of_candidate
from .eating import phragmen_committee, probabilistic_serial, veto_by_consumption_winners
from .matching import build_domination_graph, extract_deficiency_witness, has_fractional_perfect_matching
from .profiles import PreferenceProfile, all_profiles, clone_expand, plurality_scores
from .profile_io import (
    ProfileSizeError,
    format_rational,
    gen_euclidean,
    gen_impartial_culture,
    parse_profile,
    serialize_metric,
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


def _load_profile(path: str) -> tuple[PreferenceProfile, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_profile(text), hashlib.sha256(text.encode()).hexdigest()


def _candidate(p: PreferenceProfile, name: str) -> int:
    return p.name_index(name)


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


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        record = {
            "command": args.command_echo,
            "seed": getattr(args, "seed", None),
            "digest": getattr(args, "digest", None),
            "payload": payload,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def cmd_rule(args) -> int:
    p, args.digest = _load_profile(args.profile)
    order = _voter_order(p, args.order)
    tie = _tie_break(p, args.tie_break)
    names = p.candidate_names
    if args.rule == "plurality-veto":
        w = plurality_veto(p, order)
        payload, lines = {"rule": args.rule, "winner": names[w]}, [f"winner: {names[w]}"]
    elif args.rule == "veto-consumption":
        ws = sorted(veto_by_consumption_winners(p))
        payload = {"rule": args.rule, "winners": [names[w] for w in ws]}
        lines = ["winners: " + " ".join(names[w] for w in ws)]
    elif args.rule == "composite":
        w = composite_distortion_rule(p, tie)
        payload, lines = {"rule": args.rule, "winner": names[w]}, [f"winner: {names[w]}"]
    elif args.rule == "phragmen":
        k = p.m if args.k is None else args.k
        committee = phragmen_committee(p, k, tie)
        payload = {"rule": args.rule, "committee": [names[c] for c in committee]}
        lines = ["committee: " + " ".join(names[c] for c in committee)]
    elif args.rule == "ps":
        assignment = probabilistic_serial(p, args.k)
        shares = [[format_rational(x) for x in row] for row in assignment.shares]
        payload = {"rule": args.rule, "assignment": shares}
        lines = [f"v{i + 1}: " + " ".join(row) for i, row in enumerate(shares)]
    else:  # serial-dictatorship
        matching = serial_dictatorship(p, order, args.k)
        pairs = {f"v{i + 1}": names[c] for i, c in sorted(matching.items())}
        payload = {"rule": args.rule, "matching": pairs}
        lines = [f"{v} -> {c}" for v, c in pairs.items()]
    _emit(args, payload, lines)
    return HOLDS


def cmd_check(args) -> int:
    if args.check != "psc" and not args.candidate:
        print(f"error: --candidate is required for {args.check}", file=sys.stderr)
        return BAD_USAGE
    if args.check == "psc" and not args.committee:
        print("error: --committee is required for psc", file=sys.stderr)
        return BAD_USAGE
    p, args.digest = _load_profile(args.profile)
    names = p.candidate_names

    if args.check == "veto-core":
        c = _candidate(p, args.candidate)
        verdict = veto_core_member(p, c)
        if verdict.member:
            _emit(args, {"check": args.check, "candidate": names[c], "member": True,
                         "witness": None}, [f"{names[c]}: member"])
            return HOLDS
        w = verdict.witness
        payload = {
            "check": args.check, "candidate": names[c], "member": False,
            "witness": {"voters": _voter_names(w.voters),
                        "blocked_by": sorted(names[b] for b in w.blocked_by)},
        }
        lines = [f"{names[c]}: vetoed",
                 "  by voters " + ",".join(_voter_names(w.voters))
                 + " ranking " + ",".join(sorted(names[b] for b in w.blocked_by))
                 + " above it"]
        _emit(args, payload, lines)
        return VIOLATED

    if args.check == "psc":
        committee = frozenset(p.name_index(tok) for tok in args.committee.split(","))
        k = len(committee) if args.k is None else args.k
        verdict = weak_psc_satisfied(p, committee, k)
        if verdict.satisfied:
            _emit(args, {"check": args.check, "satisfied": True, "violation": None},
                  ["satisfied"])
            return HOLDS
        v = verdict.violation
        payload = {
            "check": args.check, "satisfied": False,
            "violation": {"supporters": _voter_names(v.supporters),
                          "prefix_set": sorted(names[c] for c in v.prefix_set),
                          "alternative": names[v.alternative]},
        }
        lines = ["violated",
                 "  voters " + ",".join(_voter_names(v.supporters))
                 + " deserve " + names[v.alternative]
                 + " from {" + ",".join(sorted(names[c] for c in v.prefix_set)) + "}"]
        _emit(args, payload, lines)
        return VIOLATED

    if args.check == "domination":
        if args.clone_plurality:
            ce = clone_expand(p, plurality_scores(p))
            target = _candidate(p, args.candidate)
            clones = ce.clones[target]
            if not clones:
                _emit(args, {"check": args.check, "candidate": args.candidate,
                             "matching": False, "note": "no clones (plurality zero)"},
                      [f"{args.candidate}: no clones (plurality score 0), no matching"])
                return VIOLATED
            ok = any(
                has_fractional_perfect_matching(build_domination_graph(ce.expanded, e))
                for e in clones
            )
            q = ce.expanded
        else:
            target = _candidate(p, args.candidate)
            ok = has_fractional_perfect_matching(build_domination_graph(p, target))
            q = p
        if ok:
            _emit(args, {"check": args.check, "candidate": args.candidate, "matching": True},
                  [f"{args.candidate}: fractional perfect matching exists"])
            return HOLDS
        witness = extract_deficiency_witness(q, target if not args.clone_plurality else ce.clones[target][0])
        payload = {"check": args.check, "candidate": args.candidate, "matching": False,
                   "witness": {"voters": _voter_names(witness.voters),
                               "dominated": sorted(q.candidate_names[c] for c in witness.dominated)}}
        lines = [f"{args.candidate}: no fractional perfect matching",
                 "  deficient voters " + ",".join(_voter_names(witness.voters))]
        _emit(args, payload, lines)
        return VIOLATED

    # pareto-matching
    c = _candidate(p, args.candidate)
    ok, matching = pareto_matching_criterion(p, c)
    if ok:
        pairs = {f"v{i + 1}": names[x] for i, x in sorted(matching.items())}
        _emit(args, {"check": args.check, "candidate": names[c], "criterion": True,
                     "matching": pairs},
              [f"{names[c]}: criterion holds",
               *(f"  {v} -> {x}" for v, x in pairs.items())])
        return HOLDS
    _emit(args, {"check": args.check, "candidate": names[c], "criterion": False,
                 "matching": None}, [f"{names[c]}: criterion fails"])
    return VIOLATED


def cmd_distortion(args) -> int:
    p, args.digest = _load_profile(args.profile)
    c = _candidate(p, args.candidate)
    result = distortion_of_candidate(p, c, size_cap=args.size_cap)
    if result.value == INFINITE:
        value_text = "inf"
    else:
        value_text = format_rational(result.value)
    payload = {
        "candidate": p.candidate_names[c],
        "value": value_text,
        "reference": None if result.reference is None else p.candidate_names[result.reference],
    }
    lines = [value_text]
    if args.certificate and result.certificate is not None:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(result.certificate.to_text())
        payload["certificate"] = args.certificate
        lines.append(f"certificate written to {args.certificate}")
    _emit(args, payload, lines)
    return HOLDS


def _random_instances(trials: int, nmax: int, mmax: int, seed: int):
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randint(1, nmax)
        m = rng.randint(1, mmax)
        yield gen_impartial_culture(n, m, seed=rng.randrange(1 << 30))


def cmd_audit(args) -> int:
    if args.kind == "equivalence":
        if args.profile:
            instances = [_load_profile(args.profile)[0]]
        elif args.exhaustive:
            instances = all_profiles(args.n, args.m)
        else:
            instances = _random_instances(args.trials, args.nmax, args.mmax, args.seed)
        report = equivalence_audit(instances)
        _emit(args, report.to_json(), report.lines())
        return HOLDS if report.ok else VIOLATED

    # distortion3: every distortion-motivated winner stays within the bound
    failures = []
    checked = 0
    bound = Fraction(3)
    for p in _random_instances(args.trials, args.nmax, args.mmax, args.seed):
        winners = set(plurality_matching_winners(p))
        winners.add(plurality_veto(p))
        winners.add(composite_distortion_rule(p))
        for c in sorted(winners):
            checked += 1
            value = distortion_of_candidate(p, c).value
            if not value <= bound:
                failures.append({"profile": serialize_profile(p),
                                 "candidate": p.candidate_names[c],
                                 "value": "inf" if value == INFINITE else format_rational(value)})
    payload = {"checked": checked, "failures": failures, "ok": not failures}
    lines = [f"checked={checked} failures={len(failures)}"]
    for f in failures:
        lines.append(f"FAILURE {f}")
    _emit(args, payload, lines)
    return HOLDS if not failures else VIOLATED


def cmd_gen(args) -> int:
    written = []
    if args.model == "ic":
        p = gen_impartial_culture(args.n, args.m, args.seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_profile(p))
        written.append(args.out)
    else:
        inst = gen_euclidean(args.n, args.m, args.seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_profile(inst.profile))
        written.append(args.out)
        sidecar = args.out + ".metric"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(serialize_metric(inst))
        written.append(sidecar)
    _emit(args, {"files": written}, [f"wrote {path}" for path in written])
    return HOLDS


def build_parser() -> _Parser:
    parser = _Parser(prog="vetoflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vetoflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rule = sub.add_parser("rule", help="run a voting or assignment rule")
    rule.add_argument("--rule", required=True, choices=[
        "plurality-veto", "veto-consumption", "phragmen", "ps",
        "serial-dictatorship", "composite"])
    rule.add_argument("--profile", required=True)
    rule.add_argument("--order", help="1-based voter order, e.g. 2,1,3")
    rule.add_argument("--tie-break", help="candidate names best first, e.g. b,a,c")
    rule.add_argument("--k", type=int, help="committee or matching size")
    rule.add_argument("--json", action="store_true")
    rule.set_defaults(func=cmd_rule)

    check = sub.add_parser("check", help="check an axiom or matching property")
    check.add_argument("--check", required=True, dest="check",
                       choices=["veto-core", "psc", "domination", "pareto-matching"])
    check.add_argument("--profile", required=True)
    check.add_argument("--candidate", help="candidate name")
    check.add_argument("--committee", help="comma-separated candidate names")
    check.add_argument("--k", type=int)
    check.add_argument("--clone-plurality", action="store_true",
                       help="check in the plurality-cloned instance")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    dist = sub.add_parser("distortion", help="exact metric distortion of a candidate")
    dist.add_argument("--candidate", required=True)
    dist.add_argument("--profile", required=True)
    dist.add_argument("--certificate", help="write the optimal distance matrix here")
    dist.add_argument("--size-cap", type=int, default=100,
                      help="maximum n*m LP variables (default 100)")
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(func=cmd_distortion)

    audit = sub.add_parser("audit", help="run the equivalence or distortion sweeps")
    audit.add_argument("kind", choices=["equivalence", "distortion3"])
    audit.add_argument("--profile", help="audit a single profile file")
    audit.add_argument("--exhaustive", action="store_true")
    audit.add_argument("--n", type=int, default=3)
    audit.add_argument("--m", type=int, default=3)
    audit.add_argument("--trials", type=int, default=100)
    audit.add_argument("--nmax", type=int, default=5)
    audit.add_argument("--mmax", type=int, default=4)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--json", action="store_true")
    audit.set_defaults(func=cmd_audit)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--model", required=True, choices=["ic", "euclidean"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except (LpSizeError, ProfileSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE
    except (OSError, ValueError, KeyError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return BAD_INPUT
    finally:
        elapsed = (time.monotonic() - started) * 1000
        print(f"elapsed: {elapsed:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
