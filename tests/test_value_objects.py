"""Every value object holds each of its arrays as a read-only float copy.

For each class that keeps an array, the caller's array must stay writable and
unchanged, the held array must be read-only, and a later write to the caller's
array must not reach the object.
"""

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    ConvolutionPath,
    CovOperator,
    ExponentialKernel,
    HSOperator,
    ItoTestFunction,
    MildSolutionPath,
    NoiseSpec,
    ResolventTable,
    ScalarResolventPath,
    ScalarTypeKernel,
    StepDiffusion,
    TabulatedKernel,
    TimeGrid,
    WienerIncrements,
    YosidaFamily,
    compute_resolvent,
    make_yosida,
)

GRID = TimeGrid(1.0, 4)
TABLE = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), -np.eye(2)), GRID)
SPEC = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=3)
FAMILY = make_yosida(-np.eye(2), [1.0, 0.5])
TAB = ([0.0, 0.5, 1.0], [1.0, 0.5, 0.25])


def _table(name):
    def build(a):
        arrays = {n: getattr(TABLE, n) for n in ("S", "U", "cell_weights", "lam", "V", "s")}
        arrays[name] = a
        channels = {n: arrays[n] for n in ("lam", "V", "s")}
        t = ResolventTable(
            GRID, arrays["S"], arrays["U"], TABLE.kernel, "product", arrays["cell_weights"],
            **channels,
        )
        return getattr(t, name)

    return build


def _yosida(name):
    def build(a):
        arrays = {n: getattr(FAMILY, n) for n in ("A", "lambdas", "J", "A_lam")}
        return getattr(YosidaFamily(**{**arrays, name: a}), name)

    return build


# (id, the caller's array, a function from that array to the array the object holds)
CASES = [
    ("CovOperator.q", [1.0, 2.0], lambda a: CovOperator(a).q),
    ("HSOperator.matrix", np.eye(2), lambda a: HSOperator(a).matrix),
    ("TabulatedKernel.times", TAB[0], lambda a: TabulatedKernel(a, TAB[1]).times),
    ("TabulatedKernel.values", TAB[1], lambda a: TabulatedKernel(TAB[0], a).values),
    ("ScalarTypeKernel.A", -np.eye(2), lambda a: ScalarTypeKernel(ConstantKernel(), a).A),
    (
        "StepDiffusion.breakpoints",
        [0.0, 0.5],
        lambda a: StepDiffusion(a, [[[1.0]]] * 2).breakpoints,
    ),
    ("StepDiffusion.values", [[1.0, 2.0]], lambda a: StepDiffusion([0.0], [a]).values[0]),
    ("ConstantDiffusion.B", [[1.0, 2.0]], lambda a: ConstantDiffusion(a).B),
    ("ResolventTable.S", TABLE.S, _table("S")),
    ("ResolventTable.U", TABLE.U, _table("U")),
    ("ResolventTable.cell_weights", TABLE.cell_weights, _table("cell_weights")),
    ("ResolventTable.lam", TABLE.lam, _table("lam")),
    ("ResolventTable.V", TABLE.V, _table("V")),
    ("ResolventTable.s", TABLE.s, _table("s")),
    ("WienerIncrements.dW", np.ones((2, 4)), lambda a: WienerIncrements(GRID, a, SPEC).dW),
    (
        "ConvolutionPath.values",
        np.ones((5, 2)),
        lambda a: ConvolutionPath(GRID, a, "conv", 1.0).values,
    ),
    (
        "MildSolutionPath.values",
        np.ones((5, 2)),
        lambda a: MildSolutionPath(GRID, a, [1.0, 0.0]).values,
    ),
    ("MildSolutionPath.X0", [1.0, 0.0], lambda a: MildSolutionPath(GRID, np.ones((5, 2)), a).X0),
    ("ItoTestFunction.xi0", [1.0, 0.5], lambda a: ItoTestFunction(a, np.exp, np.exp).xi0),
    ("ItoTestFunction.constant", [1.0, 0.5], lambda a: ItoTestFunction.constant(a).xi0),
    (
        "ScalarResolventPath.s",
        np.ones(5),
        lambda a: ScalarResolventPath(GRID, 0.0, a, ConstantKernel()).s,
    ),
    ("YosidaFamily.A", FAMILY.A, _yosida("A")),
    ("YosidaFamily.lambdas", FAMILY.lambdas, _yosida("lambdas")),
    ("YosidaFamily.J", FAMILY.J, _yosida("J")),
    ("YosidaFamily.A_lam", FAMILY.A_lam, _yosida("A_lam")),
]


@pytest.mark.parametrize("given, hold", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_value_objects_hold_read_only_copies(given, hold):
    caller = np.array(given, dtype=float)  # a fresh, writable float array
    before = caller.copy()
    held = hold(caller)
    assert caller.flags.writeable
    np.testing.assert_array_equal(caller, before)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[...] = 0.0
    np.testing.assert_array_equal(held, before)
    caller += 1.0
    np.testing.assert_array_equal(held, before)
