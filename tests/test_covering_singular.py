"""The covering criterion calls a subwindow singular by the rule of
``green_value``: log |normalized phi| not finite or below _SINGULAR_LOG."""

import numpy as np

from cmvspec import green
from cmvspec.cmv import VerblunskySequence
from cmvspec.torus import Phase


def test_a_subwindow_below_the_singular_floor_excludes_nothing(f_two_mode, freq2,
                                                               monkeypatch):
    seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
    z, m, sub, outer = np.exp(0.7j), 18, (10, 26), (0, 40)
    assert green._SINGULAR_LOG > -700.0
    phi = green.log_normalized_phi

    def below_floor(seq_, a, b, z_, **kwargs):
        # the full subwindow at -700; every numerator made tiny, so that
        # only the singular rule keeps the sum from vanishing
        if (a, b) == sub:
            return -700.0
        return phi(seq_, a, b, z_, **kwargs) - 1000.0

    monkeypatch.setattr(green, "log_normalized_phi", below_floor)
    excluded, total = green.covering_predicate(seq, z, m, sub, outer)
    assert not excluded
    assert total >= np.exp(700.0)
