"""The batched constraint kernel against the per-pair loop it replaced.

``reference_residual`` is the former ``unitarity_residual``: it buckets the
ordered letter pairs in dictionaries and sums, subtracts and takes the
operator norm one bucket at a time.  The batched kernel must give the same
bits, family by family.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetwalk import examples as ex
from cosetwalk.groups import GroupElement, right_multiply
from cosetwalk.linalg import adjoint, operator_norm
from cosetwalk.walks import (
    WalkSpec,
    _pair_buckets,
    unitarity_residual,
    unitarity_residuals,
)

TEMPLATES = {"g1": ex.g1_walk(), "g2": ex.g2_walk("I")}


def reference_residual(walk):
    tiling = walk.tiling
    s = walk.coin_dim
    identity = GroupElement.identity(tiling.dimension)
    left, right = {}, {}
    for g in walk.presentation.alphabet:
        for gp in walk.presentation.alphabet:
            f_left = right_multiply(right_multiply(identity, g, tiling), gp.inverse(), tiling)
            f_right = right_multiply(right_multiply(identity, g.inverse(), tiling), gp, tiling)
            left.setdefault(f_left, []).append((g, gp))
            right.setdefault(f_right, []).append((g, gp))
    mats = walk.matrices
    report = {}
    for buckets, combine in ((left, lambda a, b: a @ adjoint(b)), (right, lambda a, b: adjoint(a) @ b)):
        for f, pairs in buckets.items():
            acc = np.zeros((s, s), dtype=complex)
            for g, gp in pairs:
                acc += combine(mats[g], mats[gp])
            if f == identity:
                acc -= np.eye(s)
            report[f] = max(report.get(f, 0.0), operator_norm(acc))
    return max(report.values(), default=0.0), report


def reference_rejection(template, samples, rng, threshold=1e-3, modulus_range=(0.1, 1.0)):
    rejected = 0
    min_residual = np.inf
    for _ in range(samples):
        amplitudes = {
            g: rng.uniform(*modulus_range) * np.exp(2j * np.pi * rng.uniform())
            for g in template.presentation.alphabet
        }
        residual, _ = reference_residual(family_walk(template, {
            g: np.array([[z]], dtype=complex) for g, z in amplitudes.items()
        }))
        min_residual = min(min_residual, residual)
        if residual >= threshold:
            rejected += 1
    return rejected, float(min_residual)


def family_walk(template, matrices):
    size = next(iter(matrices.values())).shape[0]
    return WalkSpec(template.presentation, template.tiling, matrices)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def random_stack(seed, batch, letters, s):
    """Complex families with some all-zero letters and some exact zeros."""
    gen = np.random.default_rng(seed)
    mats = gen.normal(size=(batch, letters, s, s)) + 1j * gen.normal(size=(batch, letters, s, s))
    mats *= gen.uniform(0.0, 1.0, size=(batch, letters, 1, 1)) > 0.25
    mats.real[gen.uniform(size=mats.shape) < 0.2] = 0.0
    return mats


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(TEMPLATES)),
    s=st.sampled_from([1, 2]),
    batch=st.integers(1, 7),
)
def test_batched_residuals_equal_the_per_pair_loop_bitwise(seed, name, s, batch):
    template = TEMPLATES[name]
    alphabet = template.presentation.alphabet
    stack = random_stack(seed, batch, len(alphabet), s)
    residuals, deviations = unitarity_residuals(template.tiling, alphabet, stack)
    products = _pair_buckets(template.tiling, alphabet).products
    assert residuals.shape == (batch,) and deviations.shape == (batch, len(products))
    for b in range(batch):
        walk = family_walk(template, dict(zip(alphabet, stack[b])))
        expected, report = reference_residual(walk)
        assert list(report) == list(products)
        assert bits(deviations[b]) == bits(list(report.values()))
        assert bits(residuals[b]) == bits(expected)
        residual, single = unitarity_residual(walk)
        assert type(residual) is float and bits(residual) == bits(expected)
        assert list(single) == list(report)
        assert bits(list(single.values())) == bits(list(report.values()))


@pytest.mark.parametrize("walk", [
    ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)),
    ex.g1_walk(ex.G1Params("II", 0.8, 0.6, -1)),
    ex.g2_walk("I"),
    ex.g2_walk("II"),
], ids=["g1-I", "g1-II", "g2-I", "g2-II"])
def test_builtin_walk_residuals_equal_the_per_pair_loop(walk):
    residual, report = unitarity_residual(walk)
    expected, expected_report = reference_residual(walk)
    assert bits(residual) == bits(expected)
    assert list(report.items()) == list(expected_report.items())


def test_non_unitary_stack_member_is_scored():
    template = TEMPLATES["g1"]
    alphabet = template.presentation.alphabet
    good = np.stack([template.matrices[g] for g in alphabet])
    bad = good.copy()
    bad[0] *= 2.0
    residuals, deviations = unitarity_residuals(template.tiling, alphabet, np.stack([good, bad, good]))
    assert residuals[0] < 1e-12 and residuals[2] < 1e-12
    expected, report = reference_residual(family_walk(template, dict(zip(alphabet, bad))))
    assert expected > 0.5
    assert bits(residuals[1]) == bits(expected)
    assert bits(deviations[1]) == bits(list(report.values()))


def test_stack_shape_is_checked():
    template = TEMPLATES["g2"]
    alphabet = template.presentation.alphabet
    with pytest.raises(ValueError, match="expected"):
        unitarity_residuals(template.tiling, alphabet, np.zeros((2, len(alphabet) - 1, 2, 2)))
    with pytest.raises(ValueError, match="expected"):
        unitarity_residuals(template.tiling, alphabet, np.zeros((len(alphabet), 2, 2)))


@pytest.mark.parametrize("seed", [0, 20240811])
def test_scalar_rejection_matches_the_per_sample_loop(seed):
    for template in TEMPLATES.values():
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        rejected, min_residual = ex.scalar_rejection_rate(template, 150, rng)
        expected = reference_rejection(template, 150, ref_rng)
        assert rejected == expected[0] == 150
        assert bits(min_residual) == bits(expected[1])
        assert bits(rng.random()) == bits(ref_rng.random())


def test_scalar_rejection_blocks_keep_the_draw_order(monkeypatch):
    monkeypatch.setattr(ex, "_SAMPLE_BLOCK", 7)
    monkeypatch.setattr(ex, "_SCALAR_THRESHOLD", 0.35)
    monkeypatch.setattr(ex, "_SCALAR_MODULI", (0.2, 0.7))
    template = TEMPLATES["g2"]
    rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    result = ex.scalar_rejection_rate(template, 30, rng)
    expected = reference_rejection(template, 30, ref_rng, threshold=0.35, modulus_range=(0.2, 0.7))
    assert result[0] == expected[0] and 0 < result[0] < 30
    assert bits(result[1]) == bits(expected[1])
    assert bits(rng.random()) == bits(ref_rng.random())


def test_scalar_rejection_without_samples():
    rng = np.random.default_rng(1)
    assert ex.scalar_rejection_rate(TEMPLATES["g1"], 0, rng) == (0, float("inf"))
