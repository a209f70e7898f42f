"""The mutants of src/rotstar that the tier-1 tests must kill.

Each entry names a module under src/rotstar/ (file), an exact text in it
that must occur once (old), the text that replaces it (new), the tests
expected to fail on the mutated copy (tests, as pytest ids from the
repository root) and what the mutation breaks (why).  A mutant whose old
text no longer occurs fails its case, so a change that rewrites the code
restates its mutants here.
"""

MUTANTS = [
    {
        "id": "far-factors-at-the-sketch-rows",
        "file": "greens.py",
        "old": "self.nodes.size + new.size > self.sketch.size",
        "new": "self.nodes.size + new.size >= self.sketch.size",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_factors_past_the_sketch_rows"],
        "why": "a far operator whose filled nodes reach its sketch's rows is factored a call early",
    },
    {
        "id": "far-factoring-call-fills-only-itself",
        "file": "greens.py",
        "old": "            ops = self._factor()\n",
        "new": "            self._factor()\n",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_pair_fills_n3_once",
                  "tests/test_pn.py::TestFarWork::test_far_work"],
        "why": "the pair factored with an n = 5 operator is left without rows and fills its own",
    },
    {
        "id": "far-factor-keeps-the-dense-rows",
        "file": "greens.py",
        "old": "            op.nodes, op.weights = op.nodes[:0], op.weights[:0]\n"
               "            op.built[:] = False\n",
        "new": "            pass\n",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_matches_eval_at",
                  "tests/test_greens.py::TestCachedQuadrature::test_factors_past_the_sketch_rows"],
        "why": "the dense rows keep their skeleton columns while the factoring call fills "
               "every node again, so a node carries two rows",
    },
    {
        "id": "metric-A-times-1.1",
        "file": "metric.py",
        "old": "A = mul_varpi(mul_varpi(state.Y)) * (1.0 / c**3)",
        "new": "A = mul_varpi(mul_varpi(state.Y)) * (1.1 / c**3)",
        "tests": ["tests/test_acceptance.py::TestAcceptance::test_criterion_12_einstein_equations"],
        "why": "the frame-dragging potential no longer solves the R02 Einstein equation "
               "(its residual refines at order 1.16)",
    },
    {
        "id": "v-gauge-constant-times-1.01",
        "file": "pn.py",
        "old": "C_inf = float(coef[0])",
        "new": "C_inf = float(coef[0]) * 1.01",
        "tests": ["tests/test_acceptance.py::TestAcceptance::test_criterion_14_elementary_flatness"],
        "why": "V's far-arc constant is 1 % off, so K leaves log(Pi/varpi) on the axis "
               "(the gap refines at order 0.89)",
    },
    {
        "id": "pair-fill-swaps-the-lattice",
        "file": "greens.py",
        "old": "found, fills, kvs, lats, accs",
        "new": "found, fills, kvs, lats[::-1], accs",
        "tests": ["tests/test_greens.py::TestColumnFill::test_pair_fill_matches_own_fills"],
        "why": "a paired fill hands each table the other's lattice kernel values",
    },
]
