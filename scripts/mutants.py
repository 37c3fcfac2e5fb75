#!/usr/bin/env python3
"""Apply each catalogued mutant to a copy of the repository and run the tests meant to kill it.

Run from the repository root:

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py --list     # names and descriptions, nothing run

Each catalogue entry names a file under `src`, an exact snippet of it, the
snippet's replacement, and the tests that should fail once the replacement is
in.  For each entry the script copies the repository to a temporary directory
(tests find `src`, README and perfbench relative to their own path, and
pytest's `pythonpath` setting points at the copy's `src`), replaces the
snippet there, and runs the named tests with `PYTHONPATH` on the copy's
`src`.  A mutant is killed when at least one of them fails.  The named tests
are first run once on an unmutated copy: a kill means nothing if they fail
anyway.

Exit codes: 0 every mutant killed; 1 some mutant survived; 2 a snippet does
not occur exactly once, a named test is not collected, or the unmutated copy
fails.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name description file snippet replacement tests")

_CLI = "src/symsplit/cli.py"
_SYMPLECTIC = "src/symsplit/symplectic.py"
_QUADRATIC = "src/symsplit/quadratic.py"
_COCYCLES = "src/symsplit/cocycles.py"
_VERIFY = "src/symsplit/verify.py"
_MCG = "src/symsplit/mcg.py"
_JACOBI = "src/symsplit/jacobi.py"
_DISPATCH_ORACLE = ("tests/test_cli.py::test_dispatch_matches_the_single_top_level_parse",
                    "tests/test_cli.py::test_one_parser_serves_every_call_like_a_fresh_process")
_PLAIN_ONLY = "tests/test_cli.py::test_plain_reader_leaves_every_other_argv_to_argparse"
_PLAIN_ORACLE = "tests/test_cli.py::test_plain_reader_agrees_with_parse_known_args"
_CLOSED_STDOUT = ("tests/test_cli.py::test_closed_stdout_is_an_input_error_without_a_traceback",)
_PAIRED_DISPATCH = "tests/test_symplectic.py::test_wide_rank_6_checks_and_products_take_the_paired_path"
_PAIRING_TABLE = "tests/test_symplectic.py::test_pairing_pays_on_crafted_rows"
_OFF_BY_ONE = "tests/test_symplectic.py::test_wide_document_off_by_one_is_refused"
_TRUSTED_INVERSE = "tests/test_symplectic.py::test_inverse_of_wide_trusted_non_member_raises"
_WORD_ORACLE = "tests/test_symplectic.py::test_word_column_updates_match_transvection_products"
_PACKED_WIDEST = "tests/test_symplectic.py::test_packed_form_check_at_the_widest_entries_it_admits"
_PACKED_ORACLES = ("tests/test_symplectic.py::test_both_form_check_paths_match_phi_sum",
                   "tests/test_symplectic.py::test_form_check_path_follows_dimension_and_width",
                   _PACKED_WIDEST)
_C_PACKING = ("tests/test_symplectic.py::test_c_packed_columns_equal_shifted_ones_at_the_extremes",
              "tests/test_symplectic.py::test_c_packed_form_check_matches_plain_and_reference_at_its_guard")
_JACOBI_ORACLES = ("tests/test_jacobi.py::test_jacobi_results_match_the_covector_action_and_qact",)
_SAMPLER_RANGES = ("tests/test_verify.py::test_samplers_cover_their_ranges",)
_PRODUCT_ORACLES = ("tests/test_symplectic.py::test_product_matches_triple_loop_oracle",
                    "tests/test_symplectic.py::test_both_product_paths_match_reference_matmul")
_CLOSURE_ORACLES = ("tests/test_quadratic.py::test_orbit_of_frozen_rank_one",
                    "tests/test_quadratic.py::test_generator_closure_matches_all_directions_every_start",
                    "tests/test_quadratic.py::test_bitset_closure_matches_breadth_first_search",
                    "tests/test_quadratic.py::test_last_orbit_stopped_by_its_complement_is_whole")
_CLOSURE_STEPS = "tests/test_quadratic.py::test_closure_steps_permute_the_generators"
_GROUP_FIXED = "tests/test_quadratic.py::test_is_group_fixed_matches_all_directions"

CATALOGUE = (
    # one parse per CLI call
    Mutant("M1", "the top-level parse ignores leftover tokens", _CLI,
           "            args = parser.parse_args(argv)\n",
           "            args = parser.parse_known_args(argv)[0]\n", _DISPATCH_ORACLE),
    Mutant("M3", "dispatch on a prefix of a command name", _CLI,
           "    command = argv[0] if argv else None\n",
           "    command = next((name for name in parser.commands if argv and argv[0]\n"
           "                    and name.startswith(argv[0])), argv[0] if argv else None)\n",
           _DISPATCH_ORACLE),
    # one rendered format per report
    Mutant("M4", "a JSON orbits call takes the table branch", _CLI,
           "    if args.format == \"json\":\n        results = {\n            \"rank\": r,",
           "    if args.format == \"JSON\":\n        results = {\n            \"rank\": r,",
           ("tests/test_cli.py::test_golden_report_outputs",
            "tests/test_cli.py::test_orbits_json_schema_and_determinism")),
    Mutant("M5", "a JSON split call takes the table branch", _CLI,
           "    if args.format == \"json\":\n        results = {\n            \"p\": args.p,",
           "    if args.format == \"JSON\":\n        results = {\n            \"p\": args.p,",
           ("tests/test_cli.py::test_golden_report_outputs", "tests/test_cli.py::test_split_json")),
    # a closed stdout
    Mutant("M6", "the closed-stdout handler returns 1", _CLI,
           "stdout closed before the output was written\", file=sys.stderr)\n        return 2",
           "stdout closed before the output was written\", file=sys.stderr)\n        return 1",
           _CLOSED_STDOUT),
    Mutant("M7", "the output is written but not flushed inside the try", _CLI,
           "        sys.stdout.flush()\n", "", _CLOSED_STDOUT),
    Mutant("M8", "fd 1 is left on the closed pipe", _CLI,
           "        os.dup2(devnull, sys.stdout.fileno())\n", "", _CLOSED_STDOUT),
    # the plain-form reader: what it reads, argparse would read the same
    Mutant("A1", "the plain reader skips the choices check", _CLI,
           "            if action.choices is not None and value not in action.choices:\n"
           "                return None\n", "", (_PLAIN_ONLY, _DISPATCH_ORACLE[0], _PLAIN_ORACLE)),
    Mutant("A2", "the plain reader accepts a repeated option", _CLI,
           "        if action is None or action in seen:\n", "        if action is None:\n", (_PLAIN_ONLY,)),
    Mutant("A3", "the plain reader fills a missing required option with its default", _CLI,
           "    return args if required <= seen else None\n", "    return args\n",
           (_PLAIN_ONLY, _DISPATCH_ORACLE[0], "tests/test_cli.py::test_argparse_errors_and_version")),
    # Winograd pairing dispatch (D1-D5 in CHANGES.md)
    Mutant("D1", "never pair", _SYMPLECTIC,
           "    if (wx - 64) * (n - 2) < 2560:\n        return False",
           "    if True:\n        return False",
           (_PAIRED_DISPATCH, _OFF_BY_ONE, _TRUSTED_INVERSE)),
    Mutant("D2", "width-ratio rule dropped", _SYMPLECTIC,
           " and 2 * hi <= 3 * lo\n", "\n", (_PAIRED_DISPATCH, _PAIRING_TABLE)),
    Mutant("D3", "one-row products paired", _SYMPLECTIC,
           "if len(a) > 1 and _pairing_pays(row, cols[0]):", "if _pairing_pays(row, cols[0]):",
           (_PAIRED_DISPATCH, _OFF_BY_ONE)),
    Mutant("D4", "narrow-entry rule dropped", _SYMPLECTIC,
           "\n            and 4 * min(map(abs, (*x, *y))).bit_length() >= hi)", ")",
           (_PAIRED_DISPATCH, _PAIRING_TABLE)),
    Mutant("D5", "the form check probes w_0 alone", _SYMPLECTIC,
           "if _pairing_pays(vectors[0], vectors[1]):", "if _pairing_pays(vectors[0], vectors[0]):",
           (_PAIRED_DISPATCH, "tests/test_symplectic.py::test_form_check_pairs_on_w0_and_w1_not_on_w0_alone")),
    # the packed form check: its width guard, the signs of its negated packed J rows, its dispatch
    Mutant("K1", "the packed path's width guard admits one more bit", _SYMPLECTIC,
           "        if m.bit_length() <= 128:\n", "        if m.bit_length() <= 129:\n", (_PACKED_WIDEST,)),
    Mutant("K2", "an even row's negated packed target has the wrong sign", _SYMPLECTIC,
           "(-(1 << f * (i + 1)) if not i & 1", "(1 << f * (i + 1) if not i & 1", _PACKED_ORACLES),
    Mutant("K3", "an odd row's negated packed target has the wrong sign", _SYMPLECTIC,
           " else 1 << f * (i - 1))", " else -(1 << f * (i - 1)))", _PACKED_ORACLES),
    Mutant("K4", "the pairing probe runs before the packed path's guard", _SYMPLECTIC,
           "    if n >= 8:\n        m = max(map(abs, chain.from_iterable(vectors)))\n"
           "        if m.bit_length() <= 128:\n            return _pairs_as_basis_packed(vectors, m)\n"
           "    if _pairing_pays(vectors[0], vectors[1]):\n        return _pairs_as_basis_paired(vectors)\n",
           "    if _pairing_pays(vectors[0], vectors[1]):\n        return _pairs_as_basis_paired(vectors)\n"
           "    if n >= 8:\n        m = max(map(abs, chain.from_iterable(vectors)))\n"
           "        if m.bit_length() <= 128:\n            return _pairs_as_basis_packed(vectors, m)\n",
           ("tests/test_symplectic.py::test_form_check_path_follows_dimension_and_width",)),
    # the C-level column packing: its sign fix-up, its guard and the byte order it reads
    Mutant("K5", "the C-packed columns skip the XOR/subtract sign fix-up", _SYMPLECTIC,
           "[(from_bytes(array(\"i\", col).tobytes(), order) ^ tops) - tops for col",
           "[from_bytes(array(\"i\", col).tobytes(), order) for col", _C_PACKING),
    Mutant("K6", "the C path's guard admits one bit more than the field", _SYMPLECTIC,
           "    if f <= _C_INT_BITS:\n", "    if f <= _C_INT_BITS + 1:\n", _C_PACKING),
    Mutant("K7", "the C-level packing reads the bytes in the other byte order", _SYMPLECTIC,
           "from_bytes, order = int.from_bytes, sys.byteorder",
           "from_bytes, order = int.from_bytes, \"big\" if sys.byteorder == \"little\" else \"little\"",
           _C_PACKING),
    # each Jacobi result's covector in one pass
    Mutant("V1", "jinv drops the outer phi of phi(A phi(x))", _JACOBI,
           "coords = tuple(_phi_row([sum(map(mul, row, phix)) for row in g.a.rows]))",
           "coords = tuple([sum(map(mul, row, phix)) for row in g.a.rows])", _JACOBI_ORACLES),
    Mutant("V2", "gamma_psi_member forgets psi's own state", _JACOBI,
           "_qact_state(psi.state, rows) ^ psi.state", "_qact_state(psi.state, rows)", _JACOBI_ORACLES),
    # entries that are exact ints already are taken as they are, and only those
    Mutant("I1", "the exact-int fast path admits bool", _SYMPLECTIC,
           "    if set(map(type, values)) == {int}:\n", "    if set(map(type, values)) <= {int, bool}:\n",
           ("tests/test_symplectic.py::test_int_tuple_holds_exact_ints_equal_to_int_of_each_value",
            "tests/test_symplectic.py::test_public_construction_still_coerces")),
    # the whole-matrix passes of the element path: entry types, shape, and the signed transpose
    Mutant("I2", "the constructor's whole-matrix type pass admits bool", _SYMPLECTIC,
           "    if set(map(type, chain.from_iterable(rows))) != {int}:\n",
           "    if not set(map(type, chain.from_iterable(rows))) <= {int, bool}:\n",
           ("tests/test_symplectic.py::test_public_construction_still_coerces",
            "tests/test_symplectic.py::test_rows_of_mixed_integral_types_are_read_as_exact_ints")),
    Mutant("I3", "the whole-document type pass admits bool", _CLI,
           "    if set(map(type, chain.from_iterable(rows))) == {int}:\n        return rows\n",
           "    if set(map(type, chain.from_iterable(rows))) <= {int, bool}:\n        return rows\n",
           ("tests/test_cli.py::test_document_validation",
            "tests/test_cli.py::test_row_mixing_ints_with_non_integers")),
    Mutant("N1", "the constructor's shape check reads the first row alone", _SYMPLECTIC,
           "    if n % 2 or set(map(len, rows)) != {n}:", "    if n % 2 or len(rows[0]) != n:",
           ("tests/test_symplectic.py::test_matrix_shape_validation",)),
    Mutant("X1", "the signed transpose negates the even positions of row 2k", _SYMPLECTIC,
           "        row[1::2] = map(neg, odd[1::2])\n", "        row[0::2] = map(neg, odd[0::2])\n",
           ("tests/test_symplectic.py::test_signed_transpose_matches_the_index_formula",
            "tests/test_symplectic.py::test_inverse_matches_signed_transpose_oracle")),
    # unit-coefficient word steps and products by C-level adds and subtracts
    Mutant("U1", "a word update subtracts by adding", _SYMPLECTIC,
           "(j, add if c == 1 else sub) for j", "(j, add if c == 1 else add) for j",
           (_WORD_ORACLE, "tests/test_symplectic.py::test_form_signs_match_explicit_gram_matrix")),
    Mutant("U2", "the direction e_a - e_b combined as e_b - e_a", _SYMPLECTIC,
           "[*map(op, cols[a], cols[b])]", "[*map(op, cols[b], cols[a])]", (_WORD_ORACLE,)),
    Mutant("U3", "the sparse product path adds a -1 term as B_k itself", _SYMPLECTIC,
           "term = brow if x == 1 else", "term = brow if x * x == 1 else", _PRODUCT_ORACLES),
    Mutant("U4", "Covector._trusted leaves its coordinates unreduced", _SYMPLECTIC,
           "tuple([c % modulus for c in coords]) if modulus else coords", "coords",
           ("tests/test_jacobi.py::test_reduce_modulus",
            "tests/test_cocycles.py::test_principal_additive_in_translation")),
    # the inverse transvection in place of T_v: as the matrix, and as each step of a seeded word
    Mutant("T2", "transvection builds w -> w - phi(v, w) v", _SYMPLECTIC,
           "tuple([e + x * c for e, c in zip(ident, row)])", "tuple([e - x * c for e, c in zip(ident, row)])",
           ("tests/test_symplectic.py::test_transvection_hand_expanded_matrices",
            "tests/test_symplectic.py::test_transvection_is_symplectic_and_double_twist", _WORD_ORACLE)),
    Mutant("U5", "a word update adds where it subtracts and subtracts where it adds", _SYMPLECTIC,
           "(j, add if c == 1 else sub) for j", "(j, sub if c == 1 else add) for j",
           (_WORD_ORACLE, "tests/test_symplectic.py::test_form_signs_match_explicit_gram_matrix")),
    # word directions from their indices, one coboundary formula, the torsor image by definition
    Mutant("W1", "the u_i + v_j and u_i - v_j blocks of the word directions swapped", _SYMPLECTIC,
           "for op in (add, sub) for i in range(r)", "for op in (sub, add) for i in range(r)",
           ("tests/test_symplectic.py::test_word_directions_keep_their_order",)),
    Mutant("C1", "coboundary_at returns x - x.A", _COCYCLES,
           "    return x.act(a) - x\n", "    return x - x.act(a)\n",
           ("tests/test_cocycles.py::test_coboundary_at_hand_value",
            "tests/test_cocycles.py::test_minus_id_constraint_for_coboundaries",
            "tests/test_jacobi.py::test_reframe_carries_membership",
            "tests/test_jacobi.py::test_section_from_witness_standalone")),
    Mutant("T1", "the torsor's full-image check compares e_j's translate with e_(j+1)", _VERIFY,
           "qtranslate(base, e).basis_values == e.coords for e in units)",
           "qtranslate(base, e).basis_values == f.coords for e, f in zip(units, units[1:] + units[:1]))",
           ("tests/test_verify.py::test_all_suites_pass", "tests/test_cli.py::test_golden_report_outputs")),
    # the mod-2 generators: bare directions in closure order, each flip at the pair partner
    Mutant("Z1", "a closure step flips bit k of the state, not its partner k ^ 1", _QUADRATIC,
           "moves.append((1 << (k ^ 1), clears[k ^ 1]))", "moves.append((1 << k, clears[k]))",
           (*_CLOSURE_ORACLES, _CLOSURE_STEPS)),
    Mutant("Z2", "the generators without the mixing directions u_i + u_(i+1)", _QUADRATIC,
           "    return (*(10 << k for k in range(0, nbits - 3, 2)), *(1 << k for k in range(nbits)))\n",
           "    return tuple(1 << k for k in range(nbits))\n",
           (_CLOSURE_STEPS, _CLOSURE_ORACLES[1], _GROUP_FIXED)),
    Mutant("Z3", "is_group_fixed asks for psi(v) = 0 at each generator", _QUADRATIC,
           "all((psi.state & v).bit_count() & 1 for v", "all(not (psi.state & v).bit_count() & 1 for v",
           (_GROUP_FIXED, "tests/test_quadratic.py::test_group_fixed_classification_rank_one_and_two")),
    # the quadratic part of the refinement action, of the evaluation and of the Arf invariant
    Mutant("Q1", "qact without its pair term: a linear action", _QUADRATIC,
           "        out ^= first & second\n", "",
           ("tests/test_verify.py::test_section_suite_sees_a_linear_refinement_action",
            "tests/test_verify.py::test_all_suites_pass",
            "tests/test_quadratic.py::test_packed_qact_matches_column_oracle")),
    Mutant("Q2", "qeval without its pair term", _QUADRATIC,
           " + pairs.bit_count()) & 1", ") & 1",
           ("tests/test_quadratic.py::test_qeval_matches_recursive_oracle",
            "tests/test_quadratic.py::test_refinement_identity")),
    Mutant("Q3", "arf without its pair mask", _QUADRATIC,
           "(s & s >> 1 & _pair_mask(psi.nbits))", "(s & s >> 1)",
           ("tests/test_quadratic.py::test_arf_is_the_per_pair_sum",
            "tests/test_quadratic.py::test_arf_is_orbit_invariant")),
    # the orbit closure's two stopping rules: a quiet cycle of every generator, or a filled complement
    Mutant("O1", "the quiet streak stops one application short", _QUADRATIC,
           "if quiet == len(steps):", "if quiet == len(steps) - 1:", _CLOSURE_ORACLES),
    Mutant("O2", "a growing step does not reset the quiet streak", _QUADRATIC,
           "orbit, quiet = grown, 0\n", "orbit = grown\n", _CLOSURE_ORACLES),
    Mutant("O3", "the fill stop tests containment, not equality", _QUADRATIC,
           "if orbit == rest:", "if orbit & rest == orbit:", _CLOSURE_ORACLES),
    # guards on operands of different rank or modulus: one guard and one message per rule
    Mutant("G1", "qdifference without its rank guard", _QUADRATIC,
           "    _same_rank(psi1.nbits, psi0.nbits)\n", "",
           ("tests/test_jacobi.py::test_operands_of_different_rank_or_modulus_are_refused",
            "tests/test_quadratic.py::test_difference_of_refinements_of_different_rank_is_refused")),
    Mutant("R1", "the rank guard never raises", _SYMPLECTIC,
           "    if m != n:\n        raise ValueError(\"rank mismatch\")\n", "    pass\n",
           ("tests/test_jacobi.py::test_operands_of_different_rank_or_modulus_are_refused",
            "tests/test_cli.py::test_mul_input_errors",
            "tests/test_cli.py::test_cli_error_is_the_library_error")),
    Mutant("R2", "covector addition without its modulus rule, the only one jmul and reframe meet",
           _SYMPLECTIC,
           "        if self.modulus != other.modulus:\n"
           "            raise ValueError(\"modulus mismatch\")\n", "",
           ("tests/test_jacobi.py::test_operands_of_different_rank_or_modulus_are_refused",
            "tests/test_cli.py::test_mul_input_errors")),
    # the one integer guard, `_check_int`, and the Covector modulus it reads
    Mutant("G2", "the integer guard truncates through int()", _SYMPLECTIC,
           "    n = _integral(value)\n", "    n = int(value)\n",
           ("tests/test_imports.py::test_no_int_call_truncates_a_parameter",
            "tests/test_symplectic.py::test_non_integral_entries_are_refused",
            "tests/test_jacobi.py::test_reduce_modulus",
            "tests/test_verify.py::test_samples_must_be_an_integer")),
    Mutant("G3", "the integer guard's lower bound off by one", _SYMPLECTIC,
           "(lo is not None and n < lo)", "(lo is not None and n < lo - 1)",
           ("tests/test_cli.py::test_verify_guards", "tests/test_cli.py::test_cli_error_is_the_library_error",
            "tests/test_cli.py::test_coeff_table_and_json", "tests/test_mcg.py::test_dehn_twist_guards")),
    Mutant("G4", "the integer guard's upper bound dropped", _SYMPLECTIC,
           " or (hi is not None and n > hi)", "",
           ("tests/test_cli.py::test_input_just_past_a_guard_does_no_work",
            "tests/test_cli.py::test_element_rank_guard", "tests/test_cli.py::test_verify_samples_limit",
            "tests/test_quadratic.py::test_rank_limits")),
    Mutant("G5", "Covector reads its modulus without the guard", _SYMPLECTIC,
           "        m = _check_int(modulus, \"modulus\", 0)\n", "        m = modulus\n",
           ("tests/test_symplectic.py::test_matrix_shape_validation",
            "tests/test_symplectic.py::test_public_covector_construction_still_coerces_and_checks",
            "tests/test_symplectic.py::test_non_integral_entries_are_refused")),
    # the homotopy modulus derived from p, and integers past int64 in JSON reports
    Mutant("H1", "the homotopy modulus is the coefficient order c, not 2c", _MCG,
           "        return 2 * self.c\n", "        return self.c\n",
           ("tests/test_mcg.py::test_coefficient_orders", "tests/test_mcg.py::test_model_construction",
            "tests/test_mcg.py::test_splitting_theorem_small_ranks",
            "tests/test_cli.py::test_golden_report_outputs")),
    Mutant("J1", "verify's JSON seed is written raw", _CLI,
           "        seed = _encode_int(args.seed)\n", "        seed = args.seed\n",
           ("tests/test_cli.py::test_every_json_output_is_safe_for_64_bit_readers",
            "tests/test_cli.py::test_verify_json_seed_is_a_string_exactly_past_int64")),
    Mutant("J2", "the whole-document int64 pass admits 2^63", _CLI,
           "max(map(max, rows)) <= _INT64_MAX:", "max(map(max, rows)) <= _INT64_MAX + 1:",
           ("tests/test_cli.py::test_int64_boundary_entries",)),
    # one splitting verdict printed for both models; only MCGModel asks for a multiple of 4
    Mutant("S1", "the homotopy row reports modulus 0", _CLI,
           "    v, m = theorem.verdict, theorem.params.homotopy_modulus\n", "    v, m = theorem.verdict, 0\n",
           ("tests/test_cli.py::test_split_json", "tests/test_cli.py::test_split_table_rank_one",
            "tests/test_cli.py::test_golden_report_outputs")),
    Mutant("S2", "MCGModel's divisibility check asks for an even modulus", _MCG,
           "        if modulus % 4:\n", "        if modulus % 2:\n",
           ("tests/test_mcg.py::test_homotopy_modulus_has_one_validator",
            "tests/test_mcg.py::test_model_accepts_exactly_the_multiples_of_4")),
    # the seeded samplers draw from their whole ranges, one call per sampled value
    Mutant("B1", "integer covectors never draw 99", _VERIFY,
           "range(-99, 100)", "range(-99, 99)", _SAMPLER_RANGES),
    Mutant("B2", "a member's noise never draws 9", _JACOBI,
           "range(-9, 10)", "range(-9, 9)", _SAMPLER_RANGES),
    Mutant("B3", "a refinement draws one bit short", _VERIFY,
           "getrandbits(2 * r)", "getrandbits(2 * r - 1)", _SAMPLER_RANGES),
    # the exit codes of a failed internal check and of running out of memory
    Mutant("E1", "a failed internal check exits 2", _CLI,
           "return 1 if isinstance(exc, ArithmeticError) else 2", "return 2",
           ("tests/test_cli.py::test_failed_internal_check_is_a_property_failure_without_a_traceback",
            "tests/test_cli.py::test_an_arithmetic_error_in_a_handler_exits_1")),
    Mutant("E2", "running out of memory exits 1", _CLI,
           "\"error: out of memory\", file=sys.stderr)\n            return 2",
           "\"error: out of memory\", file=sys.stderr)\n            return 1",
           ("tests/test_cli.py::test_running_out_of_memory_is_an_input_error_without_a_traceback",
            "tests/test_cli.py::test_a_memory_error_in_a_handler_exits_2")),
)


def stale_entries() -> list[str]:
    """Entries whose file is not under src or whose snippet does not occur exactly once."""
    stale = []
    for m in CATALOGUE:
        path = ROOT / m.file
        if not m.file.startswith("src/") or not path.is_file():
            stale.append(f"{m.name}: {m.file} is not a file under src")
        elif (count := path.read_text(encoding="utf-8").count(m.snippet)) != 1:
            stale.append(f"{m.name}: snippet occurs {count} times in {m.file}")
    return stale


def _copy(into: str) -> Path:
    tree = Path(into) / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out"))
    return tree


def _pytest(tree: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-300:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list the catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in CATALOGUE:
            print(f"{m.name:<4} {m.file:<28} {m.description}")
        return 0
    stale = stale_entries()
    if stale:
        print("error: stale catalogue:", *stale, sep="\n  ", file=sys.stderr)
        return 2

    tests = sorted({t for m in CATALOGUE for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="symsplit-mutants-") as tmp:
        code, summary = _pytest(_copy(tmp), tests)
    if code != 0:
        print(f"error: the unmutated copy fails its catalogue tests: {summary}", file=sys.stderr)
        return 2

    survived = errors = 0
    for m in CATALOGUE:
        with tempfile.TemporaryDirectory(prefix="symsplit-mutants-") as tmp:
            tree = _copy(tmp)
            path = tree / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.snippet, m.replacement),
                            encoding="utf-8")
            code, summary = _pytest(tree, m.tests)
        # pytest exits 1 when a test failed; anything else is no verdict on the mutant
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
        survived += code == 0
        errors += code not in (0, 1)
        failed = re.search(r"(\d+) failed", summary)
        print(f"{m.name:<4} {verdict:<22} {failed.group(1) if failed else 0:>3} failed"
              f"  {m.description}  [{summary}]")
    print(f"{len(CATALOGUE) - survived - errors} of {len(CATALOGUE)} mutants killed,"
          f" {survived} survived, {errors} without a verdict")
    return 1 if survived else 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
