"""The mutants of src/rotstar that the tier-1 tests must kill.

Each entry names a module under src/rotstar/ (file), an exact text in it
that must occur once (old), the text that replaces it (new), the tests
expected to fail on the mutated copy (tests, as pytest ids from the
repository root) and what the mutation breaks (why).  A mutant whose old
text no longer occurs fails its case, so a change that rewrites the code
restates its mutants here; tests/test_hygiene.py checks in tier-1 that each
old text occurs once and that each named test exists.
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
        "id": "v-map-fit-in-physical-radii",
        "file": "pn.py",
        "old": "        rr = FAR_RADII\n",
        "new": "        rr = far[\"radii\"]\n",
        "tests": ["tests/test_pn.py::TestUnits::test_same_star_in_any_units"],
        "why": "V's far-arc fit takes r^-3 in physical radii, which falls under lstsq's "
               "rcond at r1 = 1.3e9, so the SI-like star's V/c^4 reads 0.49 % low",
    },
    {
        "id": "asymptotic-fit-in-physical-radii",
        "file": "verify.py",
        "old": "    r_lo = r_window[0]\n",
        "new": "    r_lo = 1.0\n",
        "tests": ["tests/test_pn.py::TestUnits::test_same_star_in_any_units"],
        "why": "asymptotic_fit's F design takes 1/r^2 in physical radii, which falls under "
               "lstsq's rcond at r1 = 1.3e9, so the SI-like star's F order reads 0.56 "
               "against 2.01 and its M 5.5e-6 low",
    },
    {
        "id": "edge-check-only-below-P",
        "file": "greens.py",
        "old": "if p > self.P or np.any(gvals[-1]) or np.any(gvals[:, -1]):",
        "new": "if p > self.P or p < self.P and (np.any(gvals[-1]) or np.any(gvals[:, -1])):",
        "tests": ["tests/test_greens.py::TestSharedTable::test_edge_touching_source_rejected"],
        "why": "a source on the table's own P nodes that touches its last row or column "
               "is applied, through a table that holds no last column and no Gauss rule "
               "at its last node or lag",
    },
    {
        "id": "last-lag-left-to-the-nodal-rule",
        "file": "greens.py",
        "old": "            W2[..., -1] = 0.0\n",
        "new": "",
        "tests": ["tests/test_greens.py::TestBatchedBuild::test_matches_loop_build"],
        "why": "lag 2P - 2, which no source node reaches, holds stencil sums that read "
               "lattice nodes past the last lag instead of exact zeros",
    },
    {
        "id": "pair-fill-swaps-the-lattice",
        "file": "greens.py",
        "old": "zip(Cs, folds, kvs, lats, accs)",
        "new": "zip(Cs, folds, kvs, lats[::-1], accs)",
        "tests": ["tests/test_greens.py::TestColumnFill::test_pair_fill_matches_own_fills"],
        "why": "a paired fill hands each table the other's lattice kernel values",
    },
    {
        "id": "fill-holds-the-old-spectra",
        "file": "greens.py",
        "old": "            table.C = np.empty(table.C.shape[:2] + (0,))\n",
        "new": "            pass\n",
        "tests": ["tests/test_greens.py::TestColumnFill::test_later_fill_copies_no_column"],
        "why": "a fill keeps the old spectra until the new ones are built, so it holds "
               "both at its peak",
    },
    {
        "id": "fill-leaves-its-pair",
        "file": "greens.py",
        "old": "t is not None and t.ncols < ncols]",
        "new": "t is self]",
        "tests": ["tests/test_greens.py::TestColumnFill::test_pair_fill_matches_own_fills",
                  "tests/test_pn.py::TestFarWork::test_table_work"],
        "why": "an n = 5 fill leaves its n = 3 pair short, so the pair's next fill "
               "evaluates the kernel again",
    },
    {
        "id": "gauss-band-4",
        "file": "greens.py",
        "old": "GAUSS_BAND = 16",
        "new": "GAUSS_BAND = 4",
        "tests": ["tests/test_greens.py::TestBatchedBuild::test_matches_loop_build",
                  "tests/test_greens.py::TestNodalRule::test_entry_classes_against_12_point"],
        "why": "the stencil sums replace the Gauss sums next to the target, where the "
               "kernel is not smooth on the stencil's span",
    },
    {
        "id": "fold-parity-sign",
        "file": "greens.py",
        "old": "fold(ncols, (-1.0) ** table.n)",
        "new": "fold(ncols, (-1.0) ** (table.n + 1))",
        "tests": ["tests/test_greens.py::TestBatchedBuild::test_matches_loop_build"],
        "why": "the ghost nodes below ws = 0 take the wrong sign of the ws^(n-2) measure",
    },
    {
        "id": "diamond-exponent-3",
        "file": "greens.py",
        "old": 'g.weight("star", -4) * g_inf_star',
        "new": 'g.weight("star", -3) * g_inf_star',
        "tests": ["tests/test_greens.py::TestGlobalInverse::test_plummer_potential"],
        "why": "the exterior tail's diamond source is (R0/r*)^3 g, not the Kelvin "
               "transform's (R0/r*)^4 g",
    },
    {
        "id": "far-sketch-rows-1",
        "file": "greens.py",
        "old": "FAR_SKETCH_ROWS = 8",
        "new": "FAR_SKETCH_ROWS = 1",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_matches_eval_at"],
        "why": "a sketch of P source nodes misses the far operator's rank",
    },
    {
        "id": "far-rank-tol-1e-11",
        "file": "greens.py",
        "old": "FAR_RANK_TOL = 1e-14",
        "new": "FAR_RANK_TOL = 1e-11",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_matches_eval_at"],
        "why": "the far skeleton drops pivots that carry about 1e-11 of the far field",
    },
    {
        "id": "far-mask-strict",
        "file": "greens.py",
        "old": "(q <= (P_t - 1) ** 2)",
        "new": "(q < (P_t - 1) ** 2)",
        "tests": ["tests/test_greens.py::TestCachedQuadrature::test_float_masks_inside_integer_set"],
        "why": "the shared far targets leave out the boundary circle, which a star's "
               "float mask can hold",
    },
    {
        "id": "J-with-R0-squared",
        "file": "pn.py",
        "old": "self.params.R0**3 / (2.0 * self.params.G_grav)",
        "new": "self.params.R0**2 / (2.0 * self.params.G_grav)",
        "tests": ["tests/test_pn.py::TestInnerOuter::test_fit_mass_matches_tail_mass"],
        "why": "J from Y's starred origin takes R0^2 for the R0^3 of A's 1/r^3 tail",
    },
    {
        "id": "y-source-pn-part-times-1.01",
        "file": "pn.py",
        "old": "        Q6 = (lhs6 - nf.rho_N) * c**2\n",
        "new": "        Q6 = (lhs6 - nf.rho_N) * (1.01 * c**2)\n",
        "tests": ["tests/test_acceptance.py::TestAcceptance::test_criterion_16_komar_integrals"],
        "why": "the post-Newtonian part of Y's fluid source is 1 % off, a floor below "
               "criterion 12's residuals, so J departs from the Komar integral of the "
               "fluid (the gap refines at order 1.21)",
    },
    {
        "id": "omega-times-1.005",
        "file": "pn.py",
        "old": "return params.Omega_O * chi(",
        "new": "return 1.005 * params.Omega_O * chi(",
        "tests": ["tests/test_acceptance.py::TestAcceptance::test_criterion_13_newtonian_profile"],
        "why": "Omega^2 is 1 % off against the distorted profile's b, so the rotational "
               "part of u_N leaves the profile's (the gap holds at 1.1e-2, order 0.1)",
    },
    {
        "id": "simpson-margin-0",
        "file": "lane_emden.py",
        "old": "SIMPSON_MARGIN = 3 ",
        "new": "SIMPSON_MARGIN = 0 ",
        "tests": ["tests/test_lane_emden.py::TestMatterRows::test_support_ending_at"],
        "why": "kelvin3_legendre's Simpson sums stop at the source's last row, where "
               "the last interval's parabola reads the rows past it",
    },
    {
        "id": "simpson-margin-1",
        "file": "lane_emden.py",
        "old": "SIMPSON_MARGIN = 3 ",
        "new": "SIMPSON_MARGIN = 1 ",
        "tests": ["tests/test_lane_emden.py::TestMatterRows::test_support_ending_at[20]"],
        "why": "on a support ending on an even row its last interval becomes the sums' "
               "final one and takes the parabola of the nodes before its right end, "
               "not that of the nodes from its left end",
    },
    {
        "id": "simpson-margin-2",
        "file": "lane_emden.py",
        "old": "SIMPSON_MARGIN = 3 ",
        "new": "SIMPSON_MARGIN = 2 ",
        "tests": ["tests/test_lane_emden.py::TestMatterRows::test_support_ending_at[21]"],
        "why": "on a support ending on an odd row the sums' final interval reads the "
               "support's last row through the parabola of the last three nodes, where "
               "the whole-grid sums add zero",
    },
    {
        "id": "secant-step-sign-flipped",
        "file": "lane_emden.py",
        "old": "                Theta -= d_new\n",
        "new": "                Theta += d_new\n",
        "tests": ["tests/test_lane_emden.py::TestMixing::test_sweep_count"],
        "why": "the secant step moves the profile away from the fixed point's estimate, so "
               "the distorted sweeps take more than 20 sweeps or stall",
    },
    {
        "id": "shared-cells-from-a-band-target",
        "file": "greens.py",
        "old": "    shared = min(P, ncols + D)\n",
        "new": "    shared = min(P, ncols + D - 1)\n",
        "tests": ["tests/test_greens.py::TestFillLayout::test_matches_per_target_build[lone-33-13]"],
        "why": "target ncols - 1 + D, whose band reaches row ncols - 1, joins the targets "
               "past the band, and they all take its Gauss cells",
    },
    {
        "id": "kerr-levels-min-first",
        "file": "config.py",
        "old": "_numbers(v, Integral) and len(set(v)) >= 2 and min(v) >= 2",
        "new": "min(v) >= 2 and _numbers(v, Integral) and len(set(v)) >= 2",
        "tests": ["tests/test_cli.py::TestConfigValidation::test_bad_input_exits_1[list key kerr.levels]"],
        "why": "the kerr.levels rule takes min of a value before it knows the value is "
               "a list of integers, so a string raises TypeError, not ConfigError",
    },
    {
        "id": "kerr-levels-min-before-count",
        "file": "config.py",
        "old": "_numbers(v, Integral) and len(set(v)) >= 2 and min(v) >= 2",
        "new": "_numbers(v, Integral) and min(v) >= 2 and len(set(v)) >= 2",
        "tests": ["tests/test_cli.py::TestConfigValidation::test_list_key_rules"],
        "why": "the kerr.levels rule takes min of a list before it counts the levels, so "
               "an empty list raises ValueError, not ConfigError",
    },
    {
        "id": "x-source-newtonian-part-times-1.02",
        "file": "pn.py",
        "old": "self.gc = (nf.P_N * (-16.0 * math.pi * Gg))",
        "new": "self.gc = (nf.P_N * (-16.32 * math.pi * Gg))",
        "tests": ["tests/test_acceptance.py::TestAcceptance::test_criterion_17_static_metric_off_axis"],
        "why": "X's Newtonian source -16 pi G P_N is 2 % off, so a static star's Pi/varpi "
               "leaves isotropic TOV off the axis (gap 4.85e-2 at 65/49, order 1.42); "
               "every other tier-1 test passes",
    },
]
