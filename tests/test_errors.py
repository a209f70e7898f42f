import pytest

from rotstar.errors import ConvergenceError, contraction_ratio, damped_iteration


def halving(x):
    return x / 2, x / 2


class TestDampedIteration:
    def test_stops_below_tol(self):
        # changes 1/2, 1/4, 1/8: the third is the first below 0.2
        state, changes = damped_iteration(halving, 1.0, 0.2, 10, "halving")
        assert (state, changes) == (0.125, [0.5, 0.25, 0.125])

    def test_cap_carries_residual_and_iterations(self):
        with pytest.raises(ConvergenceError, match="halving did not converge in 3 steps") as exc:
            damped_iteration(halving, 1.0, 1e-9, 3, "halving", stall=(1, 1))
        assert (exc.value.residual, exc.value.iterations) == (0.125, 3)

    # changes 1, 1/2, 1/4, then growing by 1.1 a step: the first change
    # past step `after` that exceeds the one `lag` steps back stops the loop;
    # the first three rows are the solvers' rules, the last three show the lag
    @pytest.mark.parametrize("after, lag, stop", [(12, 5, 13), (6, 3, 7), (4, 2, 5),
                                                  (2, 2, 5), (3, 3, 6), (5, 5, 8)])
    def test_stall_after_and_lag(self, after, lag, stop):
        seq = [1.0, 0.5] + [0.25 * 1.1**k for k in range(20)]

        def step(k):
            return k + 1, seq[k]

        with pytest.raises(ConvergenceError, match="toy stopped contracting") as exc:
            damped_iteration(step, 0, 1e-12, 100, "toy", stall=(after, lag))
        assert (exc.value.iterations, exc.value.residual) == (stop, seq[stop - 1])

    def test_no_stall_rule_runs_to_cap(self):
        with pytest.raises(ConvergenceError, match="did not converge in 4 steps"):
            damped_iteration(lambda x: (x, 1.0), 0.0, 0.5, 4, "flat")


def test_contraction_ratio_is_median_of_last_eight():
    changes = [1.0] + [0.5**k for k in range(1, 12)]
    changes[-2] *= 4.0  # one outlier ratio of 4 and one of 1/8 in the window
    assert contraction_ratio(changes) == 0.5
    assert contraction_ratio([0.3]) == 0.0
    assert contraction_ratio([0.0, 0.2, 0.1]) == 0.5
