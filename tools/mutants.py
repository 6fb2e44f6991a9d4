"""Mutation check: apply each mutant to a temporary copy of the package,
run the tests named for it, and report whether they fail (killed) or
still pass (survived).

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named mutants

Each mutant is one textual edit inside one function or method of
src/partinv. The named tests first run on the unmutated copy and must
pass there. A mutant is killed when they fail, or when they can no
longer be imported or collected (see status). Prints one JSON object,
{"mutants": [...], "survived": k}, each mutant with pytest's exit code
or the cap its run hit, and exits 1 if any mutant survived. Each pytest
run is capped in wall time and address space (TIME_CAP_S,
MEMORY_CAP_BYTES), and a mutated copy that hits a cap is killed. It is
not part of the test suite: each mutant costs a pytest run;
tests/test_mutants.py checks, without running them, that every edit
still applies and every named test still exists.
"""

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Caps on each pytest child. A mutant can make a test run without end or
#: grow without bound: NESTING_MAX_N = 501 lets the corpus case `enumerate
#: 501 --max-n 600` stream Bell(501) partitions into captured stdout. All
#: the named tests together take about 10 s and pass under a 256 MiB cap.
TIME_CAP_S = 300
MEMORY_CAP_BYTES = 1 << 30
#: The "exit" of a run that hit a cap, in place of pytest's exit code.
TIME_CAP = "time cap"
MEMORY_CAP = "memory cap"


class Mutant(NamedTuple):
    name: str
    file: str             # under src/partinv
    scope: str            # the function or method the edit stays inside
    old: str              # must occur exactly once in that function
    new: str
    tests: tuple[str, ...]


ALL_ORACLE = "tests/test_partitions.py::TestEnumeration::test_agrees_with_grouping_oracle"
NONOVERLAPPING_ORACLE = "tests/test_partitions.py::TestEnumeration::test_nonoverlapping_agrees_with_first_return_oracle"
ONE_BATCH = "tests/test_partitions.py::TestEnumeration::test_two_element_batch_agrees_with_one_element_batch"
ALL_ONE_BATCH = "tests/test_partitions.py::TestEnumeration::test_all_two_element_batch_agrees_with_one_element_batch"
REACH_BATCH = "tests/test_partitions.py::TestEnumeration::test_stack_batch_agrees_with_reach_loop_batch"
ONE_COMPLETION = "tests/test_partitions.py::TestEnumeration::test_two_blocks_in_need_leave_one_completion"
TYPE_IDENTITY = "tests/test_partitions.py::TestNamedTuple::test_every_fast_path_builds_a_set_partition"
N_FROM_BLOCKS = "tests/test_partitions.py::TestNamedTuple::test_n_is_read_off_the_blocks"
SIGMA_ORACLE = "tests/test_involution.py::test_agrees_with_set_algebra_oracle"
SHARED_SWEEP = "tests/test_verify.py::TestSharedSweep"
SIGMA_RESULT = "tests/test_verify.py::TestSigmaResult"
RECURRENCE = "tests/test_recurrence.py"
INTEGER_RULE = ("tests/test_partitions.py::test_sizes_must_be_integers",
                "tests/test_partitions.py::test_guards_must_be_integers")
BLOCK_SHAPE = "tests/test_partitions.py::TestConstructors::test_validate_refuses_blocks_that_are_not_a_tuple_of_tuples"
VALIDATE_NAMES = "tests/test_partitions.py::TestConstructors::test_validate_names_violation"
PERMUTATION_JUNK = "tests/test_patterns.py::test_non_permutation_is_refused"
IDENTITY_CAUGHT = "tests/test_verify.py::TestMutationSensitivity::test_identity_map_is_caught"
FROZEN_REPORTS = f"{SHARED_SWEEP}::test_same_reports_as_the_standalone_checks"
CLI_CORPUS = "tests/test_cli_corpus.py::test_output_is_frozen"
BLOCK_TYPES = "tests/test_partitions.py::TestConstructors::test_bytes_and_mappings_are_not_blocks"
STAT_Y = ("tests/test_statistics.py::TestExamples::test_stat_y",
          "tests/test_statistics.py::test_invariants_exhaustively",
          "tests/test_statistics.py::test_stat_y_and_aux_s_match_their_definitions")
LAMINAR_ORACLE = ("tests/test_partitions.py::TestSpans::test_matches_all_pairs_scan",
                  "tests/test_partitions.py::TestSpans::test_stack_scan_matches_pairwise_scan_on_every_partition",
                  "tests/test_partitions.py::TestSpans::test_stack_scan_matches_pairwise_scan_on_drawn_spans")
JOINT_ORACLE = (f"{SHARED_SWEEP}::test_broken_y_trips_equidistribution",
                f"{SHARED_SWEEP}::test_dense_tally_matches_counter_tally")
MOVED_FIXED_POINT = "tests/test_verify.py::TestMutationSensitivity::test_moved_fixed_point_is_caught"
WRONG_TRIANGLE_CELL = "tests/test_verify.py::TestMutationSensitivity::test_wrong_triangle_cell_is_caught"
MALFORMED_TEXT = "tests/test_partitions.py::TestParse::test_malformed_text"
AVOIDER_COUNT = ("tests/test_patterns.py::TestCount::test_scan_listing_and_count_agree",
                 "tests/test_patterns.py::TestCount::test_listing_counts_by_last_entry")
OUTSIDE_KEYS = "tests/test_verify.py::TestMutationSensitivity::test_mass_outside_the_row_is_caught"
PLAIN_LOOPS = f"{SHARED_SWEEP}::test_sweep_and_checks_agree_with_the_plain_loops"
TABLE_OUTPUT = (CLI_CORPUS, "tests/test_cli.py::TestTable::test_streamed_output_matches_whole_document_oracle")
JSON_BYTES = (CLI_CORPUS, "tests/test_cli.py::TestEnumerate::test_json_is_the_bytes_of_one_dump")
PARTITION_ENTRY = "tests/test_cli.py::TestEnumerate::test_partition_entry_is_the_indented_dump"
ONE_DOOR = f"{RECURRENCE}::TestOneDoor"
ORACLE_60 = f"{RECURRENCE}::test_matches_oracle_cell_for_cell_to_60"
HELP_COLUMN = "tests/test_cli.py::TestErrorPaths::test_help_column_is_held_at_16_on_the_top_level_only"
Y_FROM_THE_SWEEP = "tests/test_verify.py::TestYFromTheSweep"
ONE_READING = "tests/test_verify.py::TestOneReading::test_each_field_is_read_once_per_side"
SPANS_BY_LO = "tests/test_verify.py::test_spans_counterexample_lists_spans_by_lo"
AVOIDER_PREDICATE = "tests/test_patterns.py::TestPredicates::test_agree_with_all_pairs_scan"
LATER_CHOICES = "tests/test_cli.py::TestErrorPaths::test_invalid_choice_keeps_its_quotes_on_later_releases"
Y_PASS_ITEMS = "tests/test_partitions.py::TestEnumeration::test_y_pass_reads_the_y_of_each_listed_partition"
Y_PASS_MARGINAL = "tests/test_partitions.py::TestEnumeration::test_y_pass_counts_the_open_block_marginal"

MUTANTS = (
    # the batch's join and open cases write their yields out twice, so an anchor that could
    # match both carries a neighbouring line that tells them apart: head or grown when n - 1
    # joins a block, std when it opens one

    # n joins a block that lies inside an earlier one, and crosses it
    Mutant("batch-joins-nested-block", "partitions.py", "_gen_nonoverlapping",
           "if not stack:", "if True:", (NONOVERLAPPING_ORACLE, REACH_BATCH)),
    # the open case's own copy: n joins every block once n - 1 opens one
    Mutant("open-joins-nested-block", "partitions.py", "_gen_nonoverlapping",
           "for other in roots:\n                j = std.index(other)",
           "for other in blocks:\n                j = std.index(other)", (NONOVERLAPPING_ORACLE, REACH_BATCH)),
    # no block is popped, so every earlier block reads as reaching min(k)
    Mutant("batch-never-pops", "partitions.py", "_gen_nonoverlapping",
           "while stack and stack[-1][0] < lo:", "while False:", (NONOVERLAPPING_ORACLE, REACH_BATCH)),
    # the block in need is pushed as itself, so a later block past its maximum pops it
    Mutant("batch-pins-top-as-itself", "partitions.py", "_gen_nonoverlapping",
           "stack.append(last if k == top else block)", "stack.append(block)", (NONOVERLAPPING_ORACLE, REACH_BATCH)),
    Mutant("batch-n-never-joins-n-minus-1-block", "partitions.py", "_gen_nonoverlapping",
           "yield new(SetPartition, (head + (last + grown,),))", "pass", (NONOVERLAPPING_ORACLE, ONE_BATCH)),
    # n then joins one of two blocks in need and leaves the other open
    Mutant("batch-keeps-two-in-need", "partitions.py", "_gen_nonoverlapping",
           "if len(stack) < 2 and", "if len(stack) < 3 and", (NONOVERLAPPING_ORACLE, ONE_BATCH)),
    # n - 1 then joins a block below the one in need, which would have to enclose it too
    Mutant("batch-starts-below-top-need", "partitions.py", "_gen_nonoverlapping",
           "if len(stack) < 2 and k >= top:", "if len(stack) < 2:", (NONOVERLAPPING_ORACLE, ONE_BATCH)),
    # the Y pass past the sweep; the first moves counts between Y = n - 1 and Y = n in equal
    # numbers, so only the item-for-item test sees it
    Mutant("y-pass-swaps-s-of-a-join-to-one", "partitions.py", "_y_nonoverlapping",
           "s = n - 1\n        elif b is one:\n            s = n\n",
           "s = n\n        elif b is one:\n            s = n - 1\n", (Y_PASS_ITEMS,)),
    Mutant("y-pass-swaps-r-fallback", "partitions.py", "_y_nonoverlapping",
           "r = n - 1 if a is not None else n", "r = n if a is not None else n - 1",
           (Y_PASS_ITEMS, Y_PASS_MARGINAL)),
    # r reads the block n - 1 joins at its maximum before the join
    Mutant("y-pass-keeps-a-in-r", "partitions.py", "_y_nonoverlapping",
           "if block is not a:", "if True:", (Y_PASS_ITEMS, Y_PASS_MARGINAL)),
    # the pass then counts completions that leave a block in need open
    Mutant("y-pass-keeps-two-in-need", "partitions.py", "_y_nonoverlapping",
           "if len(stack) < 2 and", "if len(stack) < 3 and", (Y_PASS_ITEMS, Y_PASS_MARGINAL)),
    # n - 1 closes the earlier of two blocks in need and n the later, which crosses it
    Mutant("two-in-need-swaps-blocks", "partitions.py", "_gen_nonoverlapping",
           "block, other = blocks[top],", "other, block = blocks[top],",
           (NONOVERLAPPING_ORACLE, ONE_BATCH, ONE_COMPLETION)),
    # n's block before n - 1's: not standard form
    Mutant("batch-cuts-two-blocks-in-wrong-order", "partitions.py", "_gen_nonoverlapping",
           "j = head.index(other)\n                    yield new(SetPartition, (head[:j] + head[j + 1:] +"
           " (grown, last + other),))",
           "j = head.index(other)\n                    yield new(SetPartition, (head[:j] + head[j + 1:] +"
           " (last + other, grown),))",
           (NONOVERLAPPING_ORACLE, ONE_BATCH)),
    Mutant("need-drops-enclosing-term", "partitions.py", "_grow_nonoverlapping",
           "g |= 1 << b", "pass", (NONOVERLAPPING_ORACLE,)),
    Mutant("need-drops-later-block-term", "partitions.py", "_grow_nonoverlapping",
           "g |= 1 << k", "pass", (NONOVERLAPPING_ORACLE,)),
    Mutant("join-room-test-strict", "partitions.py", "_grow_nonoverlapping",
           "if g.bit_count() <= room:", "if g.bit_count() < room:", (NONOVERLAPPING_ORACLE,)),
    Mutant("open-room-test-strict", "partitions.py", "_grow_nonoverlapping",
           "if need.bit_count() <= room:", "if need.bit_count() < room:", (NONOVERLAPPING_ORACLE,)),
    Mutant("standard-form-wrong-slice", "partitions.py", "_gen_all",
           "yield new(SetPartition, (std[:j] + std[j + 1:] +",
           "yield new(SetPartition, (std[:j + 1] + std[j + 2:] +", (ALL_ORACLE,)),
    Mutant("batch-yields-bare-tuple", "partitions.py", "_gen_all",
           "yield new(SetPartition, (std + (block, last),))", "yield (std + (block, last),)", (TYPE_IDENTITY,)),
    Mutant("all-batch-n-never-joins-n-minus-1-block", "partitions.py", "_gen_all",
           "yield new(SetPartition, (head + (last + block,),))", "pass", (ALL_ORACLE, ALL_ONE_BATCH)),
    # an unwrapped new(SetPartition, ...) builds a SetPartition of k fields whose .blocks is its first block
    Mutant("batch-drops-one-tuple-comma", "partitions.py", "_gen_nonoverlapping",
           "yield new(SetPartition, (std + (block, last),))", "yield new(SetPartition, std + (block, last))",
           (TYPE_IDENTITY, NONOVERLAPPING_ORACLE)),
    Mutant("n-reads-first-block", "partitions.py", "n",
           "return self.blocks[-1][0]", "return self.blocks[0][0]", (TYPE_IDENTITY, N_FROM_BLOCKS)),
    Mutant("absorb-r-ge-s", "involution.py", "sigma",
           "if r > s:", "if r >= s:", (SIGMA_ORACLE,)),
    Mutant("sigma-restore-yields-bare-tuple", "involution.py", "sigma",
           "return tuple.__new__(SetPartition, (pulled + blocks[:j] + (one[:c] + (1,),) + blocks[j + 1:],))",
           "return (pulled + blocks[:j] + (one[:c] + (1,),) + blocks[j + 1:],)", (TYPE_IDENTITY,)),
    # the pulled singletons then lead the image in decreasing order: not standard form
    Mutant("restore-pulls-singletons-in-wrong-order", "involution.py", "sigma",
           "pulled = ((e,),) + pulled", "pulled = pulled + ((e,),)", (SIGMA_ORACLE,)),
    Mutant("prefix-slice-wrong-end", "partitions.py", "_grow_all",
           "blocks[:k] + ((e,) + block,) + blocks[k + 1:]",
           "blocks[:k] + ((e,) + block,) + blocks[:len(blocks) - k - 1]", (ALL_ORACLE,)),
    # the prefix's blocks left in RGS order: items come out of standard form
    Mutant("all-batch-skips-standard-form-sort", "partitions.py", "_gen_all",
           "std = tuple(sorted(blocks))", "std = blocks", (ALL_ORACLE,)),
    Mutant("nonoverlapping-batch-skips-standard-form-sort", "partitions.py", "_gen_nonoverlapping",
           "std = tuple(sorted(blocks))", "std = blocks", (NONOVERLAPPING_ORACLE, ONE_BATCH)),
    Mutant("sweep-settles-only-at-depth", "verify.py", "_sweep",
           "if c is not None:\n                        eqd =",
           "if n == depths[\"equidistribution\"]:\n                        eqd =",
           (f"{SHARED_SWEEP}::test_broken_y_trips_equidistribution",)),
    Mutant("failed-claim-kept-live", "verify.py", "_sweep",
           "inv = settle(\"involution\", c)", "settle(\"involution\", c)", (SHARED_SWEEP,)),
    Mutant("pascal-seeded-one-term-late", "recurrence.py", "v_table",
           "accumulate(reversed(rows[m - 3]))", "accumulate(reversed(rows[m - 3]), initial=0)", (RECURRENCE,)),
    Mutant("pascal-reads-first-entry", "recurrence.py", "v_table",
           "above[d] + a[-1]", "above[d] + a[0]", (RECURRENCE,)),
    Mutant("suffix-sum-above-one-place-late", "recurrence.py", "v_table",
           "above[d] + a[-1]", "above[d - 1] + a[-1]", (RECURRENCE,)),
    Mutant("new-diagonal-never-opened", "recurrence.py", "v_table",
           "zip([*pascal, []], seeds)", "zip(pascal, seeds)", (ORACLE_60,)),
    Mutant("seeds-read-row-above", "recurrence.py", "v_table",
           "reversed(rows[m - 3])", "reversed(rows[m - 2])", (ORACLE_60,)),
    Mutant("first-column-reads-last-suffix-sum", "recurrence.py", "v_table",
           "(*above[-1:],", "(*above[:1],", (ORACLE_60,)),
    Mutant("v-table-guard-one-row-late", "recurrence.py", "v_table",
           'check_bound(n_max, max_n, "triangle")', 'check_bound(n_max, max_n + 1, "triangle")',
           (f"{RECURRENCE}::TestGuard::test_bound",)),
    Mutant("v-compute-reads-row-above", "recurrence.py", "v_compute",
           "v_table(n)[n - 1]", "v_table(n)[n - 2]", (f"{ONE_DOOR}::test_cells_and_sums_read_the_table",)),
    Mutant("bessel-sums-row-above", "recurrence.py", "bessel",
           "v_table(n)[n - 1]", "v_table(n)[n - 2]", (f"{ONE_DOOR}::test_cells_and_sums_read_the_table",)),
    # the two below still refuse the row, through v_table's guard, whose message offers a max_n
    Mutant("v-compute-guard-left-to-v-table", "recurrence.py", "v_compute",
           'check_bound(n, TRIANGLE_MAX_N, "triangle", "row")', "pass",
           (f"{ONE_DOOR}::test_past_the_guard_names_no_max_n",)),
    Mutant("bessel-guard-left-to-v-table", "recurrence.py", "bessel",
           'check_bound(n, TRIANGLE_MAX_N, "triangle", "row")', "pass",
           (f"{ONE_DOOR}::test_past_the_guard_names_no_max_n",)),
    Mutant("outside-sigma-fn-trusted", "verify.py", "_sweep",
           "sigma_fn = _validated(sigma_fn)", "pass", (SIGMA_RESULT,)),
    # the spans are then read only at fixed points, where they cannot differ
    Mutant("fixed-point-test-inverted", "verify.py", "_sweep",
           "and q is not p:", "and q is p:", (FROZEN_REPORTS,)),
    # changes only cost: the spans are read under the involution claim alone too
    Mutant("spans-read-without-a-span-claim", "verify.py", "_sweep",
           "if (spn or nvl) and q is not p:", "if q is not p:", (f"{ONE_READING}[involution]",)),
    # changes only cost: the nonoverlapping partitions are walked under the involution or spans claim alone too
    Mutant("nonoverlapping-walked-without-a-reader", "verify.py", "_sweep",
           "enumerate_nonoverlapping(n) if walk else iter(())", "enumerate_nonoverlapping(n)",
           (f"{ONE_READING}[spans]",)),
    # a map that returns p itself then passes the involution claim everywhere
    Mutant("fixed-point-guard-drops-x-eq-y", "verify.py", "_sweep",
           "not (q is p and x == y)", "not (q is p)", (IDENTITY_CAUGHT, FROZEN_REPORTS)),
    # neither span claim then reports a moved span, nor reads the image's flag
    Mutant("span-lists-never-differ", "verify.py", "_sweep",
           "differ = sp != sq", "differ = False", (FROZEN_REPORTS, SPANS_BY_LO)),
    # the spans are then printed by hi, as the sweep reads them
    Mutant("spans-counterexample-unsorted", "verify.py", "_sweep",
           "str(sorted(sp))", "str(sp)", (SPANS_BY_LO,)),
    Mutant("nonoverlapping-always-reuses-flag", "verify.py", "_sweep",
           "laminar(sq) != nov", "nov != nov", (FROZEN_REPORTS,)),
    Mutant("validate-accepts-empty-block", "partitions.py", "validate",
           "if not block:", "if False:", (VALIDATE_NAMES,)),
    Mutant("validate-accepts-any-block-shape", "partitions.py", "validate",
           "if not isinstance(self.blocks, tuple) or not all(isinstance(block, tuple) for block in self.blocks):",
           "if False:", (BLOCK_SHAPE,)),
    Mutant("integer-rule-lets-bool-through", "errors.py", "is_int",
           " and not isinstance(value, bool)", "", INTEGER_RULE),
    Mutant("permutation-reads-any-iterable", "patterns.py", "_permutation",
           "if isinstance(p, (*NOT_ENTRIES, Set)):", "if False:", (PERMUTATION_JUNK,)),
    Mutant("block-type-refusal-off", "partitions.py", "_iterable",
           "if isinstance(value, NOT_ENTRIES):", "if False:", (BLOCK_TYPES,)),
    Mutant("distribution-marginal-reversed", "cli.py", "cmd_distribution",
           "sorted(counts.items())", "sorted(counts.items(), reverse=True)", (CLI_CORPUS,)),
    Mutant("table-row-sums-drop-last-entry", "cli.py", "cmd_table",
           "sum(row)", "sum(row[:-1])", TABLE_OUTPUT),
    Mutant("table-json-cells-lose-comma", "cli.py", "cmd_table",
           r"""'",\n      "'""", r"""'"\n      "'""", TABLE_OUTPUT),
    # the two below break the JSON form of enumerate; the first breaks that of table too
    Mutant("stream-json-entries-lose-comma", "cli.py", "_stream_json",
           r'sep = ",\n    "', r'sep = "\n    "', (*JSON_BYTES, TABLE_OUTPUT[1])),
    Mutant("partition-entry-numbers-lose-comma", "cli.py", "_partition_entry",
           r'",\n          "', r'"\n          "', (*JSON_BYTES, PARTITION_ENTRY)),
    # v[k][k] = 1 heads column k, so the width falls to that of the label k
    Mutant("table-text-width-from-first-entry", "cli.py", "cmd_table",
           "table[-1][k - 1]", "table[k - 1][k - 1]", TABLE_OUTPUT),
    Mutant("avoiders-text-tab-separated", "cli.py", "cmd_avoiders",
           'print(f"{k} {dist[k]}")', 'print(f"{k}\\t{dist[k]}")', (CLI_CORPUS,)),
    Mutant("help-column-left-to-argparse", "cli.py", "build_parser",
           "HelpFormatter(prog, max_help_position=16)", "HelpFormatter(prog)", (HELP_COLUMN,)),
    # every parser falls back to argparse's own check, which later 3.12 and 3.13 releases word with str
    Mutant("invalid-choice-left-to-argparse", "cli.py", "build_parser",
           "parser = _Parser(", "parser = argparse.ArgumentParser(", (LATER_CHOICES,)),
    Mutant("usage-error-keeps-argparse-code", "cli.py", "main",
           "return 1 if exc.code else 0", "return exc.code", (CLI_CORPUS,)),
    Mutant("handler-not-registered", "cli.py", "common",
           "p.set_defaults(func=func)", "pass", (CLI_CORPUS,)),
    Mutant("stat-y-takes-max", "stats.py", "stat_y",
           "r if r < s else s", "s if r < s else r", STAT_Y),
    # 2/3/41: r read off {3}
    Mutant("stat-y-skips-one-singleton-at-most", "stats.py", "stat_y",
           "while len(blocks[lead]) == 1:", "if len(blocks[lead]) == 1:", STAT_Y),
    # 3/54/76/821: s read off 76, the block after r's
    Mutant("stat-y-looks-for-1-one-block-on", "stats.py", "stat_y",
           "while blocks[j][-1] != 1:", "if blocks[j][-1] != 1:", STAT_Y),
    Mutant("laminar-pops-once", "partitions.py", "laminar",
           "while outer and", "if outer and", LAMINAR_ORACLE),
    Mutant("asymmetry-reads-own-cell", "verify.py", "_asymmetry",
           "joint[j][i]", "joint[i][j]", JOINT_ORACLE),
    Mutant("matches-v-drops-counterexample", "verify.py", "_matches_v",
           "return _report(name, n_max, t0, c)", "return _report(name, n_max, t0)", (WRONG_TRIANGLE_CELL,)),
    Mutant("fixed-point-check-off", "verify.py", "_involution",
           "if x == y and q != p:", "if x == y and q != p and False:", (MOVED_FIXED_POINT,)),
    Mutant("parse-noun-swapped", "partitions.py", "parse",
           'noun = "entry" if sep else "character"', 'noun = "character" if sep else "entry"', (MALFORMED_TEXT,)),
    Mutant("parse-position-skips-separator", "partitions.py", "parse",
           "epos += len(entry) + len(sep)", "epos += len(entry)", (MALFORMED_TEXT,)),
    Mutant("count-drops-ascent-branch", "patterns.py", "_avoider_columns",
           "_suffix_sums(col) + [top]", "_suffix_sums(col) + [0]", AVOIDER_COUNT),
    # a descent leads to (k, b), not (k, b + 1): column b feeds column b
    Mutant("count-descent-keeps-b", "patterns.py", "_avoider_columns",
           "zip([[0], *cols], ones)", "zip([*cols, [0]], ones)", AVOIDER_COUNT),
    Mutant("count-ascents-from-top-entry", "patterns.py", "_avoider_columns",
           "col[0] for col in cols", "col[-1] for col in cols", AVOIDER_COUNT),
    # the count of [n] reads the state of length n + 1
    Mutant("distribution-reads-one-length-late", "patterns.py", "avoider_last_entry_distribution",
           "n - 1, None", "n, None", AVOIDER_COUNT),
    # (1, 4, 2, 3), a 1_23 alone, passes
    Mutant("avoider-pass-drops-1-23-clause", "patterns.py", "_is_avoider",
           "if a > low or b > top:", "if b > top:", (AVOIDER_PREDICATE,)),
    # (2, 3, 1, 4), a 12_3 alone, passes
    Mutant("avoider-pass-never-lowers-top", "patterns.py", "_is_avoider",
           "top = b", "pass", (AVOIDER_PREDICATE,)),
    Mutant("avoider-pass-low-from-ascent-top", "patterns.py", "_is_avoider",
           "low = min(low, a)", "low = min(low, b)", (AVOIDER_PREDICATE,)),
    # changes only cost: the avoider check counts afresh for each n, O(n^4) in all
    Mutant("avoider-check-counts-each-n-afresh", "patterns.py", "_last_entry_distributions",
           "map(_by_last_entry, _avoider_columns())",
           "map(avoider_last_entry_distribution, range(1, AVOIDER_MAX_N + 1))",
           ("tests/test_verify.py::TestAvoidersFromOneCount::test_the_count_runs_once",)),
    # the loop compares only the cells k = 1..n
    Mutant("matches-v-ignores-outside-keys", "verify.py", "_matches_v",
           "sorted(dist.keys() - range(1, n + 1))", "()", (OUTSIDE_KEYS,)),
    # a broken Y leaves X > Y partitions with no X < Y partner, and only the count shows it
    Mutant("paired-pass-ignores-side-counts", "verify.py", "_sweep",
           "if sides:", "if False:", (f"{SHARED_SWEEP}::test_broken_y_trips_equidistribution",)),
    # X < Y partitions skip sigma(sigma(p)) = p, so in the paired pass no partition checks a pair's way back
    Mutant("paired-pass-drops-back-check", "verify.py", "_involution",
           "if back != p:", "if back != p and x > y:", (FROZEN_REPORTS, PLAIN_LOOPS)),
    # an X < Y partition whose image lies outside P_n still counts as paired
    Mutant("paired-pass-trusts-image-size", "verify.py", "_sweep",
           "sides += q.n == n", "sides += 1", (FROZEN_REPORTS,)),
    Mutant("map-called-after-its-claims-settle", "verify.py", "_sweep",
           "elif inv or spn or nvl:", "else:",
           (f"{SHARED_SWEEP}::test_failed_claim_stops_the_reads_only_it_needed",
            f"{SHARED_SWEEP}::test_sigma_call_counts")),
    # an empty nonoverlapping tally is symmetric, so only an asymmetric nonoverlapping side shows it
    Mutant("nonoverlapping-tally-never-counts", "verify.py", "_sweep",
           "joint_nov[x][y] += 1", "joint_nov[x][y] += 0",
           (f"{SHARED_SWEEP}::test_crossing_lower_side_trips_the_nonoverlapping_tally",)),
    # only the first nonoverlapping partition of each n, the one-block one, is flagged
    Mutant("lockstep-never-advances", "verify.py", "_sweep",
           "joint_nov[x][y] += 1\n                        nxt = next(nonoverlapping, None)", "joint_nov[x][y] += 1",
           (f"{SHARED_SWEEP}::test_nonoverlapping_joint_matches_the_laminar_filter",)),
    # a missing key reads as 1, which a row cell of 1, such as v[n][n], accepts
    Mutant("matches-v-missing-cell-reads-one", "verify.py", "_matches_v",
           "if dist.get(k, 0) != expected:", "if dist.get(k, 1) != expected:",
           ("tests/test_verify.py::TestMutationSensitivity::test_missing_row_cell_is_caught",)),
    Mutant("verify-passed-count-adds-failures", "cli.py", "cmd_verify",
           "len(reports) - len(failed)", "len(reports) + len(failed)",
           ("tests/test_cli.py::TestVerify::test_failure_exits_two",)),
    Mutant("elapsed-adds-start-time", "verify.py", "_report",
           "perf_counter() - t0", "perf_counter() + t0", ("tests/test_verify.py::test_passes_at_small_depth",)),
    # the two below are still refused, by "blocks do not partition"; only the message tells them apart
    Mutant("validate-accepts-entry-zero", "partitions.py", "validate",
           "e < 1", "e < 0", (VALIDATE_NAMES,)),
    Mutant("validate-accepts-repeated-entry", "partitions.py", "validate",
           "a <= b", "a < b", (VALIDATE_NAMES,)),
    # v_table's triangle guard still refuses 301, with a max_n hint that a check cannot act on
    Mutant("avoider-check-drops-its-guard", "verify.py", "check_avoiders_match_v",
           'check_bound(n_max, AVOIDER_MAX_N, "avoider", "check depth")', "pass",
           ("tests/test_verify.py::TestDepthGuard::test_avoider_depth_is_checked_against_the_avoider_guard",)),
    Mutant("y-tally-from-all-partitions", "verify.py", "_sweep",
           "map(sum, zip(*joint_nov))", "map(sum, zip(*joint_all))",
           (f"{Y_FROM_THE_SWEEP}::test_tally_matches_the_enumerated_distribution",)),
    # at n = 1 the check reads the last tallied n
    Mutant("y-check-reads-tally-one-n-early", "verify.py", "_sweep",
           "lambda n: tallied[n - 1]", "lambda n: tallied[n - 2]",
           (f"{Y_FROM_THE_SWEEP}::test_same_counterexample_as_the_standalone_check",)),
    # changes only cost: the pass counts Y over the last tallied n again
    Mutant("y-check-enumerates-last-tallied-n", "verify.py", "_sweep",
           "n <= len(tallied)", "n < len(tallied)",
           (f"{Y_FROM_THE_SWEEP}::test_enumerates_only_past_the_sweep",)),
    # the two below still raise a PartinvError with the same message, of the other kind;
    # the edit imports the class it raises, which its module does not
    Mutant("v-compute-cell-error-class", "recurrence.py", "v_compute",
           "raise BoundError(", "from .errors import ValidationError\n        raise ValidationError(",
           (f"{RECURRENCE}::TestVCompute::test_domain",)),
    Mutant("sigma-result-error-class", "verify.py", "_validated",
           'raise ValidationError(f"sigma_fn must return a SetPartition, got',
           'from .errors import BoundError\n            raise BoundError(f"sigma_fn must return a SetPartition, got',
           (SIGMA_RESULT,)),
)


def mutate(text: str, m: Mutant) -> str:
    """text with m's edit made inside the function or method m.scope."""
    head = re.compile(rf"\n( *)def {m.scope}\(").search(text)
    start = head.start()
    end = re.compile(rf"\n {{0,{len(head.group(1))}}}\S").search(text, start + 1)
    stop = end.start() if end else len(text)
    body = text[start:stop]
    if body.count(m.old) != 1:
        raise SystemExit(f"mutant {m.name}: {m.old!r} occurs {body.count(m.old)} times in {m.scope}")
    return text[:start] + body.replace(m.old, m.new) + text[stop:]


def copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dst / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def _cap_memory() -> None:
    """Runs in the pytest child before it starts: an allocation past the
    cap raises MemoryError there, not in this process."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_tests(copy: Path, tests) -> int | str:
    """pytest's exit code on the named tests of copy, or the name of the
    cap the run hit: TIME_CAP when it overran TIME_CAP_S, MEMORY_CAP when
    it failed with a MemoryError in its report, which is how an allocation
    past the cap shows. Captured output is left out of the report, so the
    report stays small when a test has filled its capture."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--show-capture=no", *tests]
    with tempfile.TemporaryFile() as report:
        try:
            code = subprocess.run(cmd, cwd=copy, env=env, stdout=report, stderr=subprocess.STDOUT,
                                  preexec_fn=_cap_memory, timeout=TIME_CAP_S).returncode
        except subprocess.TimeoutExpired:
            return TIME_CAP
        report.seek(0)
        return MEMORY_CAP if code != 0 and b"MemoryError" in report.read() else code


def status(name: str, code: int | str) -> str:
    """Mutant name's status from pytest's exit code on the mutated copy,
    once its named tests have passed on the unmutated one. 0 is a pass and
    1 a test failure. 2 (a named test file fails to import) and 4 (a named
    test id can no longer be collected) mean the mutant broke code that a
    named test module runs at import, so it is killed too, as is a run
    that hit a cap (TIME_CAP or MEMORY_CAP). Any other code (3, an internal
    error; 5, no tests collected) stops the run."""
    if code == 0:
        return "survived"
    if code in (1, 2, 4, TIME_CAP, MEMORY_CAP):
        return "killed"
    raise SystemExit(f"mutant {name}: pytest exit {code}, neither a pass, a test failure nor a failed import")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    results = []
    with tempfile.TemporaryDirectory(prefix="partinv-mutants-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        baseline = run_tests(copy, sorted({t for m in chosen for t in m.tests}))
        if baseline != 0:
            raise SystemExit(f"the named tests fail on the unmutated copy (pytest exit {baseline})")
        for m in chosen:
            path = copy / "src" / "partinv" / m.file
            original = path.read_text()
            path.write_text(mutate(original, m))
            try:
                code = run_tests(copy, m.tests)
            finally:
                path.write_text(original)
            results.append({"name": m.name, "file": f"src/partinv/{m.file}", "scope": m.scope,
                            "tests": list(m.tests), "status": status(m.name, code), "exit": code})
    survived = sum(r["status"] == "survived" for r in results)
    print(json.dumps({"mutants": results, "survived": survived}, indent=2))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
