"""The reference solver against a closed form: y' = -y(t - 1), phi = 1 on [0, 3]."""

import numpy as np

from reference import constant_history, solve_delay


def closed_form(t: float) -> float:
    if t <= 1.0:
        return 1.0 - t
    if t <= 2.0:
        return (t * t - 4.0 * t + 3.0) / 2.0
    return -0.5 - t ** 3 / 6.0 + 1.5 * t * t - 4.0 * t + 10.0 / 3.0


def test_method_of_steps_matches_closed_form():
    sol = solve_delay(lambda t, y, yd: -yd, constant_history([1.0]), 1.0, 0.0, 3.0)
    grid = np.linspace(0.0, 3.0, 301)
    err = max(abs(sol(float(t))[0] - closed_form(float(t))) for t in grid)
    assert err < 1e-9
    assert sol.t_end == 3.0 and not sol.reached_cap


def test_cap_stops_the_run():
    sol = solve_delay(lambda t, y, yd: y, constant_history([1.0]), None, 0.0, 10.0,
                      cap=100.0)
    assert sol.reached_cap
    assert abs(sol.t_end - np.log(100.0)) < 1e-8
