import numpy as np
import pytest

from dbcscore import TrainConfig, make_blobs, train
from dbcscore.svgplot import CANVAS, CLASS0_FILL, CLASS1_FILL, PAD, _fmt, render_plot2d


def raster_oracle(labels):
    """The raster's <rect> lines, found cell by cell: one rectangle per
    run of same-class cells in each row."""
    grid = labels.shape[0]
    cell = (CANVAS - 2 * PAD) / grid
    lines = []
    for row in range(grid):
        y = PAD + row * cell
        col = 0
        while col < grid:
            run = col
            while run < grid and labels[row, run] == labels[row, col]:
                run += 1
            fill = CLASS1_FILL if labels[row, col] else CLASS0_FILL
            lines.append(
                f'<rect x="{_fmt(PAD + col * cell)}" y="{_fmt(y)}" '
                f'width="{_fmt((run - col) * cell)}" height="{_fmt(cell)}" '
                f'fill="{fill}"/>'
            )
            col = run
    return lines


def rendered_raster(dataset, f, grid):
    """The raster's <rect> lines of render_plot2d's SVG, and the labels
    that f gave its probes."""
    outputs = []

    def recorded(points):
        outputs.append(np.asarray(f(points)))
        return outputs[-1]

    lines = render_plot2d(dataset, recorded, grid=grid).splitlines()
    start = lines.index('<g shape-rendering="crispEdges">') + 1
    labels = (outputs[0] >= 0.5).reshape(grid, grid)
    return lines[start:lines.index("</g>", start)], labels


@pytest.fixture(scope="module")
def readme_blobs():
    return make_blobs(per_class=200, dimension=2, center_distance=10.0, spread=1.0, seed=7)


def readme_complex_model(dataset):
    """The README's complex.json: 2,10,32,16,1, 300 epochs at lr 0.01."""
    model, _ = train(dataset, [2, 10, 32, 16, 1],
                     TrainConfig(epochs=300, learning_rate=0.01, seed=0))
    return model


def noise(points):
    return np.random.default_rng(3).random(len(points))


@pytest.mark.parametrize("make_f, grid, mixed", [
    (readme_complex_model, 200, True),
    (lambda _: noise, 37, True),
    (lambda _: lambda points: np.ones(len(points)), 25, False),
    (lambda _: lambda points: np.array([0.9, 0.1, 0.2, 0.3]), 2, True),
], ids=["readme", "noise", "one class", "grid 2"])
def test_raster_matches_cell_by_cell_runs(readme_blobs, make_f, grid, mixed):
    lines, labels = rendered_raster(readme_blobs, make_f(readme_blobs), grid)
    assert lines == raster_oracle(labels)
    # each raster is the kind it is named for
    assert (0 < labels.mean() < 1) == mixed


@pytest.mark.parametrize("f, message", [
    (lambda X: (X[:, :1] > 0).astype(float), "shape"),
    (lambda X: 4.0 * X[:, 0], "outside"),
], ids=["column", "logits"])
def test_decision_function_contract(readme_blobs, f, message):
    """The plot reads f through the same contract as the crossing search:
    an (n, 1) column or a finite value outside [0, 1] raises ValueError
    instead of rendering a raster."""
    with pytest.raises(ValueError, match=message):
        render_plot2d(readme_blobs, f, grid=5)
