"""Spectra, graph energy, and half-filled (Huckel) energy."""

import math
import random

import numpy as np
import pytest

from conftest import complete, cycle, path, random_graph, star
from huckel.graphs import Graph, mask_graph6, parse_graph6
from huckel.spectra import (
    eigenvalues,
    energy,
    energy_values,
    group_spectrum,
    half_spectrum,
    huckel_energy,
    invariants_hold,
    match_spectrum,
)

SEEDS = [0x11A, 0x22B, 0x33C, 0x44D, 0x55E]


def complete_spectrum(n):
    return [float(n - 1)] + [-1.0] * (n - 1)


def cycle_spectrum(n):
    return sorted((2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True)


def path_spectrum(n):
    return sorted((2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)), reverse=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 20, 33, 50])
def test_closed_form_spectra(n):
    for g, expected in [
        (complete(n), complete_spectrum(n)),
        (cycle(n), cycle_spectrum(n)) if n >= 3 else (Graph(n), [0.0] * n),
        (path(n), path_spectrum(n)),
    ]:
        spec = eigenvalues(g)
        assert np.allclose(spec.values, expected, atol=1e-10)


def test_empty_graph_spectrum():
    spec = eigenvalues(Graph(0))
    assert spec.n == 0 and spec.residual == 0.0
    assert energy(spec) == 0.0 and huckel_energy(spec) == 0.0
    spec1 = eigenvalues(Graph(1))
    assert spec1.values.tolist() == [0.0]
    assert huckel_energy(spec1) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_spectrum_invariants_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 25), rng.random())
        spec = eigenvalues(g)
        w = spec.values
        assert list(w) == sorted(w, reverse=True)
        assert abs(w.sum()) <= 1e-9 * max(1.0, 2.0 * g.m)
        assert abs((w * w).sum() - 2.0 * g.m) <= 1e-9 * max(1.0, 2.0 * g.m)
        assert spec.residual <= 1e-12 * g.n * max(1.0, abs(w[0]))


def test_known_energy_values():
    k5 = energy_values(eigenvalues(complete(5)))
    assert k5.energy == pytest.approx(8.0, abs=1e-12)
    assert k5.huckel == pytest.approx(5.0, abs=1e-12)
    assert k5.alpha == pytest.approx(17.0, abs=1e-12)
    assert k5.beta == pytest.approx(-1.0, abs=1e-12)
    assert k5.r == 2

    c5 = energy_values(eigenvalues(cycle(5)))
    assert c5.energy == pytest.approx(2.0 + 2.0 * math.sqrt(5.0), abs=1e-10)
    assert c5.energy == pytest.approx(6.472135955, abs=1e-9)
    assert c5.huckel == pytest.approx(5.854101966250, abs=1e-9)
    assert c5.alpha == pytest.approx(4.381966011250, abs=1e-9)
    assert c5.beta == pytest.approx(2.0 * math.cos(2.0 * math.pi / 5.0), abs=1e-12)

    c6 = energy_values(eigenvalues(cycle(6)))
    assert c6.energy == pytest.approx(8.0, abs=1e-10)
    assert c6.huckel == pytest.approx(8.0, abs=1e-10)
    assert c6.beta is None

    p3 = energy_values(eigenvalues(path(3)))
    assert p3.energy == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert p3.huckel == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert p3.alpha == pytest.approx(2.0, abs=1e-12)
    assert p3.beta == pytest.approx(0.0, abs=1e-12)


def test_petersen_energy_values():
    spec = eigenvalues(parse_graph6("IheA@GUAo"))
    assert group_spectrum(spec.values) == [
        (pytest.approx(3.0, abs=1e-9), 1),
        (pytest.approx(1.0, abs=1e-9), 5),
        (pytest.approx(-2.0, abs=1e-9), 4),
    ]
    ev = energy_values(spec)
    assert ev.energy == pytest.approx(16.0, abs=1e-9)
    assert ev.huckel == pytest.approx(14.0, abs=1e-9)
    assert ev.alpha == pytest.approx(13.0, abs=1e-9)
    assert ev.beta is None


def test_group_spectrum():
    vals = eigenvalues(complete(5)).values
    grouped = group_spectrum(vals)
    assert [mult for _, mult in grouped] == [1, 4]
    assert grouped[0][0] == pytest.approx(4.0, abs=1e-9)
    assert grouped[1][0] == pytest.approx(-1.0, abs=1e-9)
    assert group_spectrum([]) == []
    assert group_spectrum([1.0, 1.0 - 1e-9, 0.5]) == [(pytest.approx(1.0), 2), (0.5, 1)]


def test_match_spectrum():
    # K5 against its closed form {4, (-1)^4}: within TIGHT_TOL.
    values = eigenvalues(complete(5)).values
    max_dev, matches = match_spectrum(values, [4.0] + [-1.0] * 4)
    assert max_dev == max(abs(values[0] - 4.0), *(abs(x + 1.0) for x in values[1:])) < 1e-9 and matches
    assert match_spectrum([2.0, 1.0], [2.0, 1.5]) == (0.5, False)
    assert match_spectrum([], []) == (0.0, True)
    # A template of another length is an error, not a prefix comparison.
    with pytest.raises(ValueError):
        match_spectrum(values, [4.0] + [-1.0] * 3)


def test_half_filled_at_most_total_energy():
    rng = random.Random(0xE46)
    for _ in range(60):
        spec = eigenvalues(random_graph(rng, rng.randrange(1, 15), rng.random()))
        assert huckel_energy(spec) <= energy(spec) + 1e-9


@pytest.mark.parametrize(
    "g",
    [
        path(6),
        path(7),
        cycle(8),
        star(9),
        Graph(6, [(i, j + 3) for i in range(3) for j in range(3)]),  # K_{3,3}
    ],
)
def test_bipartite_energies_agree(g):
    spec = eigenvalues(g)
    assert huckel_energy(spec) == pytest.approx(energy(spec), abs=1e-9)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_cycle_energies_differ(n):
    spec = eigenvalues(cycle(n))
    assert huckel_energy(spec) < energy(spec) - 1e-6


def check_odd_second_moment(g):
    # For odd n: 2m - alpha >= (r+1) * beta^2, a Cauchy-Schwarz consequence
    # of the lower half of the spectrum summing to -(HE - beta)/... shape.
    spec = eigenvalues(g)
    _, alpha, beta = half_spectrum(spec)
    r = g.n // 2
    slack = 2.0 * g.m - alpha - (r + 1) * beta * beta
    assert slack >= -1e-8 * max(1.0, 2.0 * g.m)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_second_moment_exhaustive(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        check_odd_second_moment(parse_graph6(mask_graph6(n, mask)))


@pytest.mark.parametrize("seed", SEEDS)
def test_odd_second_moment_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.choice([7, 9, 11, 13, 15])
        check_odd_second_moment(random_graph(rng, n, rng.random()))


def test_energy_accepts_plain_sequences():
    assert energy([3.0, -1.0, -2.0]) == pytest.approx(6.0)
    assert huckel_energy([3.0, -1.0, -2.0]) == pytest.approx(5.0)
    assert half_spectrum([3.0, -1.0, -2.0])[1:] == (9.0, -1.0)


@pytest.mark.parametrize("n", [0, 1, 4, 7, 10])
def test_batch_helpers_match_per_spectrum(n):
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.random()) for _ in range(8)]
    spectra = [eigenvalues(g) for g in graphs]
    w = np.array([s.values for s in spectra]).reshape(8, n)
    m = np.array([g.m for g in graphs])
    he, alpha, beta = half_spectrum(w)
    trace_ok, frobenius_ok = invariants_hold(w, m)
    assert trace_ok.all() and frobenius_ok.all()
    for i, s in enumerate(spectra):
        ev = energy_values(s)
        assert (he[i], alpha[i]) == (ev.huckel, ev.alpha)
        assert (None if beta is None else beta[i]) == ev.beta
        assert energy(w)[i] == ev.energy
    if n:
        # A corrupted spectrum fails the invariant it breaks, row by row.
        w[0, 0] += 1e-3
        trace_ok, frobenius_ok = invariants_hold(w, m)
        assert list(trace_ok) == [False] + [True] * 7
