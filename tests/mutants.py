"""The mutation table: edits to ``src/gqt`` that named tests must catch.

Each entry is (file, exact old text, new text, tests expected to fail).
An entry states a claim of the form "test T catches mutant M": a later
change can make T stop catching M, and replaying the table notices.  Run
it from anywhere::

    python tests/mutants.py

The runner copies ``src/`` and ``tests/`` into a temporary directory and
first runs every named test there unedited: they must pass.  Then, for
each entry, it applies the one edit in that copy, runs the entry's tests
with ``pytest -x`` and restores the file.  A mutant is killed when pytest
reports a failed test (exit 1); any other outcome is a survivor.  An entry
whose old text does not occur exactly once in its file is stale: the code
it names has changed, so the entry must be retired or rewritten, and it
counts as a failure, not a skip.  The runner prints killed, survived or
stale per entry and a count, and exits 1 on any survivor or stale entry.
Standard library only, and no ``assert``: the checks must hold under
``python -O`` too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/gqt, old text, new text, tests expected to fail)
MUTANTS = [
    # The four ``raise InvariantError`` guards, each disabled; each test
    # breaks its invariant on purpose.
    ("field.py", "            if len(subfield) != self.q:\n", "            if False:\n",
     ["tests/test_invariants.py::test_field_spec_invariant_failure"]),
    ("kernel.py", "        elif len(through[i]) != per_point:\n", "        elif False:\n",
     ["tests/test_kernel.py::test_unequal_line_counts_raise"]),
    ("points.py", "    if by_form != by_lines:\n", "    if False:\n",
     ["tests/test_invariants.py::test_collinear_invariant_failure"]),
    ("protocols.py", "    if char2 and system != (tensor(basis[0][1], phi)\n",
     "    if False and system != (tensor(basis[0][1], phi)\n",
     ["tests/test_invariants.py::test_teleport_char2_invariant_failure"]),
    # The unitary sampler's post-check, disabled.
    ("forms.py", "    if not _is_unitary_rows(rows, f):\n", "    if False:\n",
     ["tests/test_forms.py::test_sampler_post_check_catches_a_non_unitary_draw"]),
    # The tensor obstruction a_i b_j + b_i a_j read as a_i b_j twice.
    ("nogo.py", "add[mul[ai][bj]][mul[bi][aj]]", "add[mul[ai][bj]][mul[ai][bj]]",
     ["tests/test_nogo.py::test_obstruction_vanishing_characterization"]),
    # One-or-All accepting a point that sees none of a line.
    ("kernel.py", "            if count not in (1, size):\n",
     "            if count not in (0, 1, size):\n",
     ["tests/test_kernel.py::test_one_or_all_negative_control"]),
    # The line scan skipping the points whose lines are not all found yet.
    ("kernel.py", "        if len(through[i]) == per_point:\n",
     "        if per_point and len(through[i]) < per_point:\n",
     ["tests/test_kernel.py::test_polar_plane_scan_runs_only_for_points_with_lines_left"]),
    # The GQ refinement accepting two points that share two lines.
    ("kernel.py", "            elif count == 1 and seen & doubled[xi]:\n", "            elif False:\n",
     ["tests/test_kernel.py::test_gq_unique_line_negative_control"]),
    # ``field._ray`` scaling by the lead entry instead of its inverse: one
    # entry per module that calls it, each killed by a test of that module.
    *[("field.py", "            m = spec.mul[spec.inv[x]]\n", "            m = spec.mul[x]\n", [test])
      for test in ["tests/test_kernel.py::test_kernel_counts_q2_against_oracle",
                   "tests/test_nogo.py::test_index_core_matches_object_arithmetic",
                   "tests/test_geocode.py::test_bits_to_rays_normalizes_every_vector_of_gf4_4",
                   "tests/test_bell.py::test_decode_reads_every_multiple_of_each_bell_vector"]],
    # A degree-2 conjugation sending c0 + c1 t to c0 + c1 t^-1, right only
    # when N(t) = 1, as under every default quadratic modulus.
    ("field.py",
     "        self.frob = None if self.q is None else [0] + [exp[la * self.q % n] for la in logs]\n",
     "        self.frob = None if self.q is None else [0] + [exp[la * self.q % n] for la in logs]\n"
     "        if self.k == 2:\n"
     "            self.frob = [add[c0][self.mul[c1][self.inv[p]]] for c0, c1 in self.coeffs]\n",
     ["tests/test_kernel.py::test_change_of_modulus_carries_conjugates_norms_kernel_and_scans"]),
    # The roundtrip's Mismatch witness built from the normalized ray, not
    # from the state the trial drew.
    ("geocode.py", '                "state": _rows_json([ray], spec)[0],\n'
                   '                "failure": "Mismatch",\n',
     '                "state": _rows_json([key], spec)[0],\n'
     '                "failure": "Mismatch",\n',
     ["tests/test_geocode.py::test_a_mismatch_is_witnessed_by_each_trial_that_draws_the_ray"]),
    # A subcommand's parser filled in when it is built, not on its first parse.
    ("cli.py", "        self._fill = fill\n",
     "        self._fill = None\n        if fill is not None:\n            fill(self)\n",
     ["tests/test_cli.py::test_a_job_fills_in_only_its_own_subcommands_parsers"]),
    # ``FieldSpec.zero`` built at index 1.
    ("field.py", "        return _elements().FieldElement(self, 0)\n",
     "        return _elements().FieldElement(self, 1)\n",
     ["tests/test_field.py::test_gf4_arithmetic_examples"]),
    # The f2 special case's table test inverted: x * x == x read as a counterexample.
    ("nogo.py", "if spec.mul[x][x] != x)", "if spec.mul[x][x] == x)",
     ["tests/test_nogo.py::test_f2_special_case"]),
    # ``errors._guard``, the one reader of GQT_GUARD_OVERRIDE, never refusing.
    ("errors.py", '    if refused and os.environ.get("GQT_GUARD_OVERRIDE") != "1":\n',
     "    if False:\n",
     ["tests/test_nogo.py::test_scan_bound_keeps_desk_scale_and_override_lifts_it"]),
    # ``FieldElement.__rsub__`` computing self - other instead of other - self.
    ("elements.py", "spec.add[b][spec.neg[a]]", "spec.add[a][spec.neg[b]]",
     ["tests/test_field.py::test_each_operator_and_its_reflection_read_their_table_formula"]),
    # The operand rule's type test disabled: ``[1] * x`` parses the list.
    ("elements.py", "            if not isinstance(other, (FieldElement, int)):\n",
     "            if False:\n",
     ["tests/test_field.py::test_operands_other_than_elements_and_ints_raise_type_error"]),
    # Each object-API entry's field check disabled, reading one field's
    # indices in another's tables.
    *[(name, old, old.replace(old.strip(), "if False:"),
       [f"tests/test_linalg.py::test_object_entries_refuse_operands_over_another_field[{entry}]"])
      for name, old, entry in [
          ("forms.py", "        if x.spec != self.spec or y.spec != self.spec:\n", "evaluate-x"),
          ("points.py", "    if v.spec != f.spec:\n", "polar_hyperplane"),
          ("points.py", "    if x.spec != spec:\n", "hermitian_curve"),
          ("protocols.py", "    if any(b.spec != spec for b in basis):\n", "decompose-state"),
          ("geocode.py", "    if state.spec != spec:\n", "geo_encode")]],
    # A point counted among its own collinear points.
    ("kernel.py", "frozenset().union(*map(self.lines.__getitem__, through)) - {i}",
     "frozenset().union(*map(self.lines.__getitem__, through))",
     ["tests/test_kernel.py::test_enumeration_matches_brute_force_q2"]),
    # A forced teleport branch taken without its range check.
    ("protocols.py", "        if branch not in range(len(residuals)):\n", "        if False:\n",
     ["tests/test_protocols.py::test_teleport_refuses_a_branch_out_of_range"]),
    # ``geo_decode`` returning a polar that is not a point.
    ("geocode.py", "    if len(polar) != 1:\n", "    if False:\n",
     ["tests/test_errors.py::test_each_refusal_raises_its_own_type[geocode-decode-four-points]"]),
    # ``FieldMatrix`` accepting ragged rows.
    ("linalg.py", "        if any(len(r) != width for r in rows):\n", "        if False:\n",
     ["tests/test_errors.py::test_each_refusal_raises_its_own_type[linalg-ragged-rows]"]),
    # The reference oracles of the kernel, scan and sweep tests, one mutant
    # each: the isotropy test without the conjugation, each state's first
    # pair kept as (psi, phi), a success read against the drawn state
    # rather than its ray.
    ("kernel.py", "        conj = [frob[x] for x in col]\n", "        conj = list(col)\n",
     ["tests/test_kernel.py::test_enumeration_matches_brute_force_q2"]),
    ("nogo.py", "                first[verdict] = (a, b)\n", "                first[verdict] = (b, a)\n",
     ["tests/test_nogo.py::test_scan_matches_the_per_pair_reference"]),
    ("geocode.py", "        elif outcome == key:\n", "        elif outcome == ray:\n",
     ["tests/test_geocode.py::test_sweep_matches_the_per_trial_reference"]),
    # The ZX gate's rows written as X's.
    ("bell.py", '    "ZX": ((0, 1), (-1, 0)),\n', '    "ZX": ((0, 1), (1, 0)),\n',
     ["tests/test_bell.py::test_the_gate_rows_are_the_pauli_gates"]),
    # Super-dense decoding comparing the raw state, not its ray, to each Bell vector.
    ("bell.py", "        if _indices(spec, vec) == ray and", "        if _indices(spec, vec) == state and",
     ["tests/test_bell.py::test_decode_reads_every_multiple_of_each_bell_vector"]),
    # The sweep's coordinate draw accepting the value ``order``, one past the last index.
    ("geocode.py", "        if r < order:\n", "        if r <= order:\n",
     ["tests/test_geocode.py::test_the_sweep_draws_each_coordinate_as_randrange"]),
    # ``GeoParams`` accepting any shared lines: their number, range and disjointness unchecked.
    ("geocode.py", "        if (len(line_indices) != 3 or", "        if False and (len(line_indices) != 3 or",
     ["tests/test_errors.py::test_each_refusal_raises_its_own_type[geocode-params-lines-meeting]",
      "tests/test_errors.py::test_each_refusal_raises_its_own_type[geocode-params-lines-negative]"]),
    # The report writer's int fast path taking bools, which json writes as
    # true/false, and its non-str keys written without quotes.
    ("cli.py", "        if all(type(x) is int for x in obj):",
     "        if all(isinstance(x, int) for x in obj):",
     ["tests/test_cli.py::test_the_writer_matches_json_dumps_case_by_case"]),
    ("cli.py", "        return '\"' + _encode(key) + '\"'\n", "        return _encode(key)\n",
     ["tests/test_cli.py::test_the_writer_matches_json_dumps_case_by_case"]),
    # One-or-All's neighbour mask built from the first line through each point only.
    ("kernel.py", "            adjacent |= line_masks[li]\n",
     "            adjacent |= line_masks[li]\n            break\n",
     ["tests/test_kernel.py::test_one_or_all_matches_the_adjacency_reference"]),
    # A unitary's permutation accepted without mapping the lines onto lines.
    ("kernel.py", "    return tuple(image) if lines == set(geom.lines) else None\n",
     "    return tuple(image)\n",
     ["tests/test_kernel.py::test_unitary_escapes_counts_a_broken_geometry"]),
    # ``run()`` catching one ``GQTError`` subclass less: a ``Parse`` error escapes
    # as a traceback.
    ("cli.py", "    except GQTError as exc:\n",
     "    except GQTError as exc:\n        if exc.code == \"Parse\":\n            raise\n",
     ["tests/test_cli.py::test_every_drawn_argv_keeps_the_failure_contract"]),
    # The ``--trials`` guard moved after the kernel and parameters are built.
    ("geocode.py", '    _guard(trials > _MAX_TRIALS, f"roundtrip guard: trials <= {_MAX_TRIALS}")\n'
                   "    params = _standard_params(spec, seed)\n",
     "    params = _standard_params(spec, seed)\n"
     '    _guard(trials > _MAX_TRIALS, f"roundtrip guard: trials <= {_MAX_TRIALS}")\n',
     ["tests/test_cli.py::test_every_drawn_argv_keeps_the_failure_contract"
      "[geocode roundtrip-trials]"]),
]


def pytest_run(tree: Path, tests: list) -> int:
    """The exit status of ``pytest -x`` on ``tests`` in ``tree``, importing gqt from its src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    """Replay every entry; 1 on any survivor, stale entry or failing unedited test."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        code = pytest_run(tree, named)
        if code != 0:
            print(f"the named tests fail on the unedited source (pytest exit {code})")
            return 1
        failed = 0
        for number, (name, old, new, tests) in enumerate(MUTANTS, 1):
            path = tree / "src" / "gqt" / name
            source = path.read_text()
            label = f"{number} {name}: {old.strip()!r} -> {new.strip()!r}"
            if source.count(old) != 1:
                failed += 1
                print(f"STALE    {label} (old text occurs {source.count(old)} times)")
                continue
            path.write_text(source.replace(old, new))
            try:
                code = pytest_run(tree, tests)
            finally:
                path.write_text(source)
            if code == 1:
                print(f"killed   {label}")
            else:
                failed += 1
                print(f"SURVIVED {label} (pytest exit {code})")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
