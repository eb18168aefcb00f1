"""Committed mutants of the fast paths, and a runner that checks the tests
still kill them.

Each mutant replaces one exact text of a module under ``src/vetoflow/`` and
names the tests that must fail on the changed copy.  A fast path is only as
safe as the oracle that pins it; listing its mutants here keeps a later
change from weakening that oracle unnoticed.

    python3 tests/mutants.py                 # every mutant
    python3 tests/mutants.py merge spread    # the named mutants only

The runner copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` to
a temporary directory, since ``pythonpath = ["src"]`` in pyproject.toml
would otherwise import this checkout's own ``src/``.  It first checks that
the named tests pass on the unchanged copy, then applies one mutant at a
time, runs only that mutant's tests and expects them to fail.  It prints
one line per mutant and the kill count, and exits 1 if a mutant survives
or its tests cannot run.  It is not part of the test suite, which only
checks (``test_mutants.py``) that every old text occurs exactly once in
its module and every named test exists.

Known survivor, documented and not listed: ``FlowResult.cut`` reads its
right half as the union of the reachable groups' edge sets.  Reading it
instead from the right nodes the residual network reaches from the source
gives the same set: an edge from a group can carry the group's whole
supply, so it keeps residual capacity while the source still reaches the
group.  The rewrite is equivalent, and no test can kill it.

A second known survivor: ``_Simplex._priced`` eliminates a row's basic
cells in row order, but any order gives the same row.  A pivot row is 1 at
its own basic column and 0 at every other, so each elimination leaves the
other basic cells as they were; the orders differ at most in a common
factor of the row's integer cells and its denominator.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vetoflow"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/vetoflow
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    # ballot runs in the profile, the one voter index
    Mutant("merge", "profiles.py",
           "if run_types[-1:] != [t]:", "if True:",
           ("tests/test_profiles.py::test_adjacent_equal_runs_merge",
            "tests/test_ballot_types.py::test_grouping_matches_a_per_voter_reference")),
    Mutant("spread", "profiles.py",
           "for t, (_, count) in zip(self._run_types, self.runs)",
           "for t, (_, count) in zip(sorted(self._run_types), self.runs)",
           ("tests/test_ballot_types.py::test_grouping_matches_a_per_voter_reference",)),
    Mutant("voters-of", "profiles.py",
           "range(a, b) for t, a, b in runs", "range(a, b - 1) for t, a, b in runs",
           ("tests/test_ballot_types.py::test_grouping_matches_a_per_voter_reference",
            "tests/test_profiles.py::test_voter_groups_merge_equal_sets_in_first_appearance_order",
            "tests/test_ballot_types.py::test_merged_flow_matches_the_per_voter_network")),
    # a PSC violation's supporters are voters; a Hall witness and
    # voters_of take ballot types, which one check refuses when they name
    # no type, so -1 cannot wrap to the last one
    Mutant("voter-check", "profiles.py",
           "if set(map(type, vs)) <= {int} else [-1]", "",
           ("tests/test_type_validators.py::test_witness_validators_refuse_non_voters",)),
    Mutant("type-index", "profiles.py",
           "not 0 <= t < len(self._ballot_types)", "not t < len(self._ballot_types)",
           ("tests/test_profiles.py::test_voters_of_refuses_a_type_index_that_is_no_type",
            "tests/test_type_validators.py::test_witness_validators_refuse_non_voters",
            "tests/test_matching.py::test_cut_witness_validation")),
    Mutant("voter-bound", "profiles.py",
           "if n + count > MAX_VOTERS:", "if n + count > MAX_VOTERS + 1:",
           ("tests/test_profiles.py::test_a_billion_voters_are_refused_before_any_per_voter_allocation",
            "tests/test_cli.py::test_native_files_are_capped_by_their_ballot_lines")),
    # the one permutation check behind every voter order and tie-break
    Mutant("permutation-int", "profiles.py",
           "if set(map(type, order)) - {int} or sorted(order)", "if sorted(order)",
           ("tests/test_rules.py::test_orders_refuse_entries_that_are_not_ints",)),
    # solid coalitions in one pass on prefix masks, sized by type counts
    Mutant("solid-weights", "profiles.py",
           "g[2] += count", "g[2] += 1",
           ("tests/test_ballot_types.py::test_solid_coalitions_match_a_per_voter_grouping",)),
    # the count-line reader
    Mutant("reader-runs", "profile_io.py",
           "        if count:\n", "        if count >= 0:\n",
           ("tests/test_profile_io.py::test_count_lines_become_runs",)),
    Mutant("reader-total", "profile_io.py",
           "        n += count\n", "        n = count\n",
           ("tests/test_profile_io.py::test_count_lines_are_capped_by_their_running_total",)),
    # the minimal min cut read back from Dinic's last level graph
    Mutant("cut-read-back", "matching.py",
           "if level[1 + k] >= 0]", "if level[1 + k] != 0]",
           ("tests/test_ballot_types.py::test_merged_flow_matches_the_per_voter_network",
            "tests/test_matching.py::test_witness_extraction_on_random_profiles")),
    # the Hall witness, the veto core's only witness check: a strict
    # violation on the voters its types count, and exactly the dominated
    # set of its types
    Mutant("cut-hall", "matching.py",
           "len(self.dominated) * p.n >= p.m * size",
           "len(self.dominated) * p.n > p.m * size",
           ("tests/test_matching.py::test_cut_witness_validation",
            "tests/test_axioms.py::test_witness_validation_rejects_tampering",
            "tests/test_type_validators.py::test_per_type_validators_agree_with_per_voter_references")),
    Mutant("cut-dominated", "matching.py",
           "if self.dominated != dominated_set(p, c, self.types):",
           "if not self.dominated <= dominated_set(p, c, self.types):",
           ("tests/test_matching.py::test_cut_witness_validation",
            "tests/test_axioms.py::test_witness_validation_rejects_tampering",
            "tests/test_type_validators.py::test_per_type_validators_agree_with_per_voter_references")),
    Mutant("cut-weights", "matching.py",
           "size = sum(p.ballot_types()[t].count for t in self.types)",
           "size = len(self.types)",
           ("tests/test_matching.py::test_cut_witness_validation",
            "tests/test_type_validators.py::test_forged_witnesses_are_refused",
            "tests/test_type_validators.py::test_per_type_validators_agree_with_per_voter_references")),
    # PSC's prescan over solid_coalitions: voters, not types, clear the
    # threshold, and the witness names the least uncommitted candidate
    Mutant("psc-prescan", "axioms.py",
           "g.size * (k + 1)", "len(g.types) * (k + 1)",
           ("tests/test_ballot_types.py::test_psc_prescan_matches_a_full_solid_coalition_scan",)),
    Mutant("psc-prescan-x", "axioms.py",
           "x = min(outside)", "x = max(outside)",
           ("tests/test_axioms.py::test_psc_prescan_names_the_least_uncommitted_candidate",)),
    # the core's solid-coalition scan: a strict bound, and it must fire
    Mutant("core-scan-bound", "axioms.py",
           "(m - len(g.candidates)) * n < m * g.size", "(m - len(g.candidates)) * n <= m * g.size",
           ("tests/test_axioms.py::test_the_solid_coalition_scan_bound_is_strict",
            "tests/test_axioms.py::test_veto_core_scan_changes_no_core")),
    Mutant("core-scan-off", "axioms.py",
           "vetoed |= everyone - g.candidates", "pass",
           ("tests/test_axioms.py::test_flows_run_only_for_core_members_on_a_large_ic_election",
            "tests/test_ballot_types.py::"
            "test_a_core_whose_non_members_solid_coalitions_veto_allocates_nothing_per_voter")),
    # interval eating: each cell is one shared difference of event times
    Mutant("eating-cells", "eating.py",
           "spans[s] = t - times[s]", "spans[s] = t - times[max(s - 1, 0)]",
           ("tests/test_eating.py::test_eating_matches_the_per_step_reference",
            "tests/test_eating.py::test_eating_outputs_match_the_pinned_digest")),
    # eating traces weigh each type row by its voters
    Mutant("trace-weights", "eating.py",
           "self.consumption, [count for _, count in p.ballot_types()], p.m)",
           "self.consumption, [1 for _ in p.ballot_types()], p.m)",
           ("tests/test_eating.py::test_eating_matches_the_per_step_reference",
            "tests/test_eating.py::test_balance_checks_refuse_malformed_matrices",
            "tests/test_type_validators.py::test_integer_balance_check_agrees_with_fractions")),
    # a trace names each candidate once, as a survivor or in one batch
    Mutant("trace-twice", "eating.py",
           "if len(gone) != len(set(gone)):", "if len(gone) < len(set(gone)):",
           ("tests/test_eating.py::test_trace_validate_catches_tampering",)),
    Mutant("trace-cover", "eating.py",
           "if self.survivors | set(gone) != set(range(p.m)):",
           "if not self.survivors | set(gone) <= set(range(p.m)):",
           ("tests/test_eating.py::test_trace_validate_catches_tampering",)),
    # probabilistic serial validates its own trace, which must have run to k/n
    Mutant("serial-elapsed", "eating.py",
           "if trace.elapsed != elapsed:", "if trace.elapsed > elapsed:",
           ("tests/test_eating.py::test_probabilistic_serial_checks_the_rows_it_returns",)),
    # the balance check's shape and sign check
    Mutant("shape-count", "eating.py",
           "if len(rows) != len(weights):", "if len(rows) > len(weights):",
           ("tests/test_eating.py::test_balance_checks_refuse_malformed_matrices",)),
    Mutant("shape-width", "eating.py",
           "if len(row) != m:", "if len(row) < m:",
           ("tests/test_eating.py::test_balance_checks_refuse_malformed_matrices",)),
    Mutant("shape-sign", "eating.py",
           "min(row, default=0) < 0", "sum(row) < 0",
           ("tests/test_eating.py::test_balance_checks_refuse_malformed_matrices",)),
    # PSC's networks: each voter supplies k + 1 to its weak prefix, read by
    # the scan and by the flow alike
    Mutant("psc-flow", "axioms.py",
           "left_supply=len(W) + 1, right_cap=p.n", "left_supply=len(W), right_cap=p.n",
           ("tests/test_axioms.py::test_the_psc_scan_gives_the_flows_cuts_and_verdicts_on_every_committee",
            "tests/test_ballot_types.py::test_psc_and_pareto_networks_match_a_per_type_build")),
    # FlowNetwork.cut by subset sums up to its bound: every bit of the zeta
    # transform, the least maximizer, and a strictly positive maximum, which
    # only a network of zero supply, with a group of no edges, can tell
    Mutant("psc-scan-bit", "matching.py",
           "for b in range(self.num_right):", "for b in range(1, self.num_right):",
           ("tests/test_matching.py::test_the_subset_sum_cut_is_the_flows_minimal_min_cut",
            "tests/test_axioms.py::test_the_psc_scan_gives_the_flows_cuts_and_verdicts_on_every_committee",
            "tests/test_axioms.py::test_core_witnesses_are_the_subset_sum_scans_at_any_electorate_size")),
    Mutant("psc-scan-min", "matching.py",
           "least = reduce(and_, (s", "least = max((s",
           ("tests/test_matching.py::test_the_subset_sum_cut_is_the_flows_minimal_min_cut",
            "tests/test_axioms.py::test_the_psc_scan_gives_the_flows_cuts_and_verdicts_on_every_committee",
            "tests/test_axioms.py::test_core_witnesses_are_the_subset_sum_scans_at_any_electorate_size")),
    Mutant("psc-scan-threshold", "matching.py",
           "if best <= 0:", "if best < 0:",
           ("tests/test_matching.py::test_the_subset_sum_cut_is_the_flows_minimal_min_cut",)),
    # the scan serves up to and including its bound, the flow above it
    Mutant("cut-bound", "matching.py",
           "if self.num_right > SCAN_MAX_RIGHT:", "if self.num_right >= SCAN_MAX_RIGHT:",
           ("tests/test_axioms.py::"
            "test_the_core_and_psc_decide_by_the_scan_up_to_its_bound_and_by_flows_above",)),
    # the groups a profile keeps per candidate, which every flow network
    # reads: each ballot type under its own candidates weakly below c, and
    # each candidate's groups its own
    Mutant("domination-groups", "profiles.py",
           "frozenset(r[r.index(c):])", "frozenset(r[r.index(c) + 1:])",
           ("tests/test_ballot_types.py::test_groups_below_match_a_per_type_grouping",
            "tests/test_matching.py::test_domination_graph_edges",
            "tests/test_ballot_types.py::test_merged_flow_matches_the_per_voter_network")),
    Mutant("kept-groups", "profiles.py",
           "return kept[c]", "return next(iter(kept.values()))",
           ("tests/test_ballot_types.py::test_groups_below_match_a_per_type_grouping",
            "tests/test_ballot_types.py::test_the_profile_keeps_its_grouped_views")),
    # the flat Dinic: edge e's reverse is e ^ 1, which an augmenting path
    # that cancels flow must credit
    Mutant("reverse-edge", "matching.py",
           "cap[e ^ 1] += pushed", "cap[e + 1] += pushed",
           ("tests/test_matching.py::test_max_bipartite_matching_follows_long_augmenting_paths",
            "tests/test_ballot_types.py::test_flow_outputs_match_the_pinned_digest")),
    # the simplex prices a new row against the pivot rows of its basic cells,
    # and refuses a priced row that still holds a basic column
    Mutant("priced", "lp.py",
           "self.tab[r], self.den[r], self.basis[r])", "self.tab[r], 1, self.basis[r])",
           ("tests/test_lp.py::test_a_family_may_hold_violated_rows_back",
            "tests/test_distortion.py::test_results_are_pinned")),
    # distortion: references in order of their bound, stopping early
    Mutant("bound-order", "distortion.py",
           "bound < best.value or bound == best.value and cref > best.reference",
           "bound <= best.value",
           ("tests/test_distortion.py::test_bound_skipping_changes_no_result",
            "tests/test_distortion.py::test_results_are_pinned")),
    # distortion: the O(m) pair walk of the quadrangle separation
    Mutant("pair-walk", "distortion.py",
           "if va < vb or va == vb and a < b:", "if va < vb:",
           ("tests/test_distortion.py::test_quadrangle_separation_matches_the_reference",)),
    # DistanceMatrix.check skips a voter pair that can violate no row
    Mutant("pair-test", "profile_io.py",
           "<= min(x + y for x, y in zip(di, dj)):", "<= min(x + y for x, y in zip(di, dj)) + 1:",
           ("tests/test_distortion.py::test_integer_check_matches_the_fraction_check",
            "tests/test_profile_io.py::test_metric_instance_checks_match_the_fraction_reference")),
)


def _pytest(root: Path, tests: tuple[str, ...], timeout: float = 900) -> int | None:
    """pytest's exit code on ``tests`` in the copy at ``root``: 0 all passed,
    1 some failed, anything else could not run them; None on a timeout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant, root: Path) -> str:
    """Apply one mutant in the copy at ``root``, run its tests, restore the
    module, and say "killed", "SURVIVED" or "ERROR ..."."""
    path = root / "src" / "vetoflow" / mutant.module
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return f"ERROR old text occurs {original.count(mutant.old)} times"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        code = _pytest(root, mutant.tests)
    finally:
        path.write_text(original)
    return {None: "killed (timeout)", 0: "SURVIVED", 1: "killed"}.get(
        code, f"ERROR pytest exit {code}")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".bench_out")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        # a kill only counts if the same tests pass on the unchanged copy
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if _pytest(root, tests) != 0:
            print("the named tests do not pass on the unchanged copy", file=sys.stderr)
            return 1
        verdicts = []
        for m in chosen:
            verdicts.append(run(m, root))
            print(f"{m.name:18} {m.module:14} {verdicts[-1]}", flush=True)
    killed = sum(v.startswith("killed") for v in verdicts)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
