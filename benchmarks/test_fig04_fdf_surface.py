"""Fig. 4 — the Forecast Decision Function surface.

Regenerates the published plot: minimum SI-usage demand over the temporal
distance t/T_rot in [0.1, 100] (log scale) for usage probabilities 100%,
70% and 40%, and checks the bathtub shape (wall below one rotation time,
flat valley up to 10 rotation times, rise beyond, everything scaled up at
lower probability).
"""

from repro.forecast import ForecastDecisionFunction
from repro.reporting import render_surface

#: The figure's log-spaced x axis, as printed on the plot.
X_TICKS = [
    0.1, 0.2, 0.3, 0.4, 0.6, 1.0, 1.6, 2.5, 4.0, 6.3,
    10.0, 15.8, 25.1, 39.8, 63.1, 100.0,
]
PROBABILITIES = [1.0, 0.7, 0.4]


def build_fdf() -> ForecastDecisionFunction:
    # SATD_4x4-flavoured timing: T_sw=544, T_hw=24, offset ~ a few
    # executions at alpha=1.
    return ForecastDecisionFunction(
        t_rot=85_000.0,
        t_sw=544.0,
        t_hw=24.0,
        rotation_energy=2_000.0,
        alpha=1.0,
    )


def compute_surface():
    fdf = build_fdf()
    distances = [x * fdf.t_rot for x in X_TICKS]
    return fdf, fdf.surface(distances, PROBABILITIES)


def test_fig04_fdf_surface(benchmark, save_artifact):
    fdf, surface = benchmark(compute_surface)

    assert len(surface) == 3 and all(len(row) == len(X_TICKS) for row in surface)

    # Left wall: demand decreasing towards t = T_rot.
    for row in surface:
        wall = row[: X_TICKS.index(1.0) + 1]
        assert wall == sorted(wall, reverse=True)
        assert wall[0] > 100  # hundreds of executions demanded at 0.1 T_rot

    # Valley: between 1 and 10 T_rot only the offset is demanded.
    i1, i10 = X_TICKS.index(1.0), X_TICKS.index(10.0)
    for row in surface:
        valley = row[i1 : i10 + 1]
        assert max(valley) - min(valley) < 1e-9

    # Right rise: demand increasing beyond 10 T_rot (blocking ACs too long).
    for row in surface:
        rise = row[i10:]
        assert rise == sorted(rise)
        assert rise[-1] > rise[0]

    # Probability sheets: lower probability demands strictly more
    # everywhere outside the valley.
    for j, x in enumerate(X_TICKS):
        if 1.0 <= x <= 10.0:
            continue
        assert surface[2][j] > surface[1][j] > surface[0][j]

    # The plotted value range matches the figure's 0..500 z axis at the
    # published operating points.
    assert 400 <= surface[0][0] <= 600  # p=100%, t=0.1 T_rot

    rows = [f"p={int(p * 100)}%" for p in PROBABILITIES]
    cols = [f"{x:g}" for x in X_TICKS]
    art = render_surface(
        surface, rows, cols, title="Fig. 4: FDF demand over t/T_rot (log axis)"
    )
    lines = [art, "", "numeric rows (executions demanded):"]
    for label, row in zip(rows, surface):
        lines.append(
            label + ": " + " ".join(f"{v:7.1f}" for v in row)
        )
    save_artifact("fig04_fdf_surface.txt", "\n".join(lines))
