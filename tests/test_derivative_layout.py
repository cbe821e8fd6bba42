"""``FiniteCMV.derivative_form`` rounds the same whatever the memory layout
of its gradient: C order, Fortran order, a transposed view and a strided
slice of one ``alpha_gradient`` give the same bits."""

import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example, sqrt_frequency
from cmvspec.spectral import eigensolve
from cmvspec.torus import Phase

from conftest import random_unit

HALF = 10       # the 21-site window of the layout check


def layouts(g):
    wide = np.zeros((g.shape[0], 2 * g.shape[1]), dtype=g.dtype)
    wide[:, ::2] = g
    return {"C": g, "F": np.asfortranarray(g),
            "transposed view": np.ascontiguousarray(g.T).T,
            "strided slice": wide[:, ::2]}


@pytest.mark.parametrize("k", [0, 4, 13])
def test_every_layout_of_one_gradient_gives_the_same_bits(k):
    f, om = localization_example(), sqrt_frequency().array()
    rng = np.random.default_rng(9)
    x = rng.random(2)
    m = build_finite_cmv(VerblunskySequence(f, om, Phase(tuple(x))), -HALF, HALF,
                         beta=random_unit(rng), eta=random_unit(rng))
    v = eigensolve(m)[k].vector
    g = f.alpha_gradient(x + np.arange(-HALF - 1, HALF + 1)[:, None] * om)
    assert g.flags.c_contiguous
    assert all(np.array_equal(a, g) for a in layouts(g).values())
    forms = {name: m.derivative_form(v, a) for name, a in layouts(g).items()}
    for name, form in forms.items():
        assert form.tobytes() == forms["C"].tobytes(), name
