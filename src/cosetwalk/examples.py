"""Built-in walks on two planar non-commutative square-lattice groups.

``g1``: G1 = <a, b | a^4, b^4, (ab)^2>, coarse-grained over the index-four
translation subgroup generated by h_x = a^-1 b and h_y = b a^-1 with
representatives e, a, a^2, a^3.  The two-dimensional-coin solutions form
two families (distinguished by how the inverse letters pair with the
forward ones), each carrying a mixing unitary Z = n I + i sign m sigma_x
applied from the left; their exact bands are +-arccos(alpha) shifted by a
class-dependent constant, with alpha built from one of the two mixing
weights.

``g2``: G2 = <a, b | a^2 b^-2>, coarse-grained over the index-two subgroup
generated by h_2 = a^2 and h_3 = a^-1 b with representatives e, a^-1.  The
two coin solutions are exchanged by an anti-unitary map and share a
massless band structure, linear around its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .groups import (
    GeneratorLabel,
    GroupPresentation,
    TilingData,
    TilingRule,
    generator_pair,
)
from .linalg import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    adjoint,
    phase_multiset_distance,
    wrap_phase,
)
from .spectral import DispersionGrid
from .walks import (
    IsotropySpec,
    TransitionFamily,
    WalkSpec,
    isotropy_deviations,
    unitarity_residuals,
)

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


# ---------------------------------------------------------------------------
# g1: the massive family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G1Params:
    """Parameters of the g1 family.

    walk_class selects how inverse letters pair with forward ones ("I":
    A_{a^-1} tied to A_a, "II": tied to A_b); (n, m) with n^2 + m^2 = 1 and
    n, m >= 0 parameterize the left-multiplied mixing unitary
    Z = n I + i sign m sigma_x; sign (+1/-1) picks the phase branch
    zeta = (1 + i sign)/2 together with the sign inside Z.
    """

    walk_class: str = "I"
    n: float = 1.0
    m: float = 0.0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.walk_class not in ("I", "II"):
            raise ValueError(f"walk_class must be 'I' or 'II', got {self.walk_class!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be nonnegative")
        if abs(self.n * self.n + self.m * self.m - 1.0) > 1e-12:
            raise ValueError(f"n^2 + m^2 = {self.n**2 + self.m**2} is not 1")


def g1_presentation() -> GroupPresentation:
    return GroupPresentation(
        generators=(A, B),
        relators=((A,) * 4, (B,) * 4, (A, B, A, B)),
    )


_G1_TABLE: tuple[tuple[GeneratorLabel, int, int, tuple[int, int]], ...] = (
    # (generator, coset, target, shift) with shift = c_target g c_coset^-1
    # in the (h_x, h_y) basis
    (A, 0, 3, (0, 0)),
    (A, 1, 0, (0, 0)),
    (A, 2, 1, (0, 0)),
    (A, 3, 2, (0, 0)),
    (B, 0, 3, (1, 0)),
    (B, 1, 0, (0, 1)),
    (B, 2, 1, (-1, 0)),
    (B, 3, 2, (0, -1)),
    (A_INV, 0, 1, (0, 0)),
    (A_INV, 1, 2, (0, 0)),
    (A_INV, 2, 3, (0, 0)),
    (A_INV, 3, 0, (0, 0)),
    (B_INV, 0, 1, (0, -1)),
    (B_INV, 1, 2, (1, 0)),
    (B_INV, 2, 3, (0, 1)),
    (B_INV, 3, 0, (-1, 0)),
)


def g1_tiling() -> TilingData:
    return TilingData(
        dimension=2,
        index=4,
        rep_words=((), (A,), (A, A), (A, A, A)),
        rules=tuple(TilingRule(*row) for row in _G1_TABLE),
    )


def g1_mixing_unitary(params: G1Params) -> np.ndarray:
    """Z = n I + i sign m sigma_x, the commutant of the a<->b swap coin."""
    return params.n * IDENTITY2 + 1j * params.sign * params.m * PAULI_X


def g1_base_matrices(walk_class: str, sign: int) -> dict[GeneratorLabel, np.ndarray]:
    """The normalized (Z = I) transition matrices of either class."""
    zeta = (1.0 + 1j * sign) / 2.0
    forward = {A: zeta * _P0, B: zeta * _P1}
    if walk_class == "I":
        inverse = {A_INV: adjoint(forward[A]), B_INV: adjoint(forward[B])}
    else:
        inverse = {A_INV: adjoint(forward[B]), B_INV: adjoint(forward[A])}
    return {**forward, **inverse}


def g1_walk(params: G1Params = G1Params()) -> WalkSpec:
    """Built-in g1 walk; passes tiling validation and is unitary to 1e-12."""
    z = g1_mixing_unitary(params)
    matrices = {g: z @ m for g, m in g1_base_matrices(params.walk_class, params.sign).items()}
    return WalkSpec(
        presentation=g1_presentation(),
        tiling=g1_tiling(),
        transitions=TransitionFamily(coin_dim=2, matrices=matrices),
    )


def g1_effective_weight(params: G1Params) -> float:
    """The mixing weight that drives the g1 dispersion: m for class I, n for II."""
    return params.m if params.walk_class == "I" else params.n


def g1_band_offset(walk_class: str) -> float:
    """Constant phase offset of the g1 bands: pi/2 for class I, 0 for class II."""
    return np.pi / 2.0 if walk_class == "I" else 0.0


def _wave_vectors(k) -> np.ndarray:
    """One wave-vector as a (2,) array, or a batch as an (nk, 2) array."""
    k = np.asarray(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != 2:
        raise ValueError(f"wave-vectors have shape {k.shape}, expected (2,) or (nk, 2)")
    return k


def g1_closed_form(k, nu: float, walk_class: str = "II") -> np.ndarray:
    """Exact eigenphase multiset (size 8) of the g1 fiber operator.

    alpha = nu sqrt((cos^2(k_x/2) + cos^2(k_y/2)) / 2) with (k_x, k_y) the
    H-basis pairings; the bands are +-arccos(alpha) + offset and the same
    shifted by pi, each with multiplicity two.  ``nu`` must be the
    effective weight of the class (see ``g1_effective_weight``).  A (2,)
    wave-vector gives the (8,) sorted phases, an (nk, 2) array of them the
    (nk, 8) rows; ValueError if alpha leaves the arccos domain at any row.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"effective weight {nu} outside [0, 1]")
    k = _wave_vectors(k)
    kx, ky = k[..., 0], k[..., 1]
    alpha = nu * np.sqrt(0.5 * (np.cos(kx / 2.0) ** 2 + np.cos(ky / 2.0) ** 2))
    if np.any(alpha > 1.0 + 1e-12):
        raise ValueError(f"alpha = {np.max(alpha)} left the arccos domain")
    arc = np.arccos(np.clip(alpha, -1.0, 1.0))
    offset = g1_band_offset(walk_class)
    branch = np.stack([arc + offset, -arc + offset], axis=-1)
    phases = np.concatenate([branch, branch - np.pi], axis=-1)
    return np.sort(wrap_phase(np.repeat(phases, 2, axis=-1)), axis=-1)


# ---------------------------------------------------------------------------
# g2: the massless pair
# ---------------------------------------------------------------------------

ANTIUNITARY_Y = ((IDENTITY2 + 1j * PAULI_Y) / np.sqrt(2.0)).copy()


def g2_presentation() -> GroupPresentation:
    return GroupPresentation(
        generators=(A, B),
        relators=((A, A, B_INV, B_INV),),
    )


_G2_TABLE: tuple[tuple[GeneratorLabel, int, int, tuple[int, int]], ...] = (
    # shift in the (h_2, h_3) basis; representatives e, a^-1
    (A, 0, 1, (0, 0)),
    (A, 1, 0, (1, 0)),
    (B, 0, 1, (0, 1)),
    (B, 1, 0, (1, -1)),
    (A_INV, 0, 1, (-1, 0)),
    (A_INV, 1, 0, (0, 0)),
    (B_INV, 0, 1, (-1, 1)),
    (B_INV, 1, 0, (0, -1)),
)


def g2_tiling() -> TilingData:
    return TilingData(
        dimension=2,
        index=2,
        rep_words=((), (A_INV,)),
        rules=tuple(TilingRule(*row) for row in _G2_TABLE),
    )


def g2_solution_matrices(variant: str = "I") -> dict[GeneratorLabel, np.ndarray]:
    """The two coin solutions; variant II is Y A^T Y^dag of variant I."""
    mats = {
        A: 0.5 * np.array([[1, 0], [1, 0]], dtype=complex),
        B: 0.5 * np.array([[1, 0], [-1, 0]], dtype=complex),
        A_INV: 0.5 * np.array([[0, 1], [0, 1]], dtype=complex),
        B_INV: 0.5 * np.array([[0, -1], [0, 1]], dtype=complex),
    }
    if variant == "I":
        return mats
    if variant == "II":
        y = ANTIUNITARY_Y
        return {g: y @ m.T @ adjoint(y) for g, m in mats.items()}
    raise ValueError(f"variant must be 'I' or 'II', got {variant!r}")


def g2_walk(variant: str = "I") -> WalkSpec:
    """Built-in g2 walk; passes tiling validation and is unitary to 1e-12."""
    return WalkSpec(
        presentation=g2_presentation(),
        tiling=g2_tiling(),
        transitions=TransitionFamily(coin_dim=2, matrices=g2_solution_matrices(variant)),
    )


def g2_wave_numbers(k) -> tuple[np.ndarray, np.ndarray]:
    """Derived pairings (k_x, k_y) = (k_2 + k_3, k_2 - k_3).

    k_y is the pairing with the redundant translation h_1 = b a, which the
    relator ties to h_2 - h_3.  Scalars for one (2,) wave-vector, (nk,)
    arrays for an (nk, 2) batch.
    """
    k = _wave_vectors(k)
    k2, k3 = k[..., 0], k[..., 1]
    return k2 + k3, k2 - k3


def g2_closed_form(k) -> np.ndarray:
    """Exact eigenphase multiset (size 4) of the g2 fiber operator.

    alpha = (sin(k_x/2) + sin(k_y/2)) / 2; the bands are
    +-arccos(alpha) + pi/2 and the same shifted by pi.  Both coin variants
    share this multiset at every k.  A (2,) wave-vector gives the (4,)
    sorted phases, an (nk, 2) array of them the (nk, 4) rows.
    """
    kx, ky = g2_wave_numbers(k)
    alpha = 0.5 * (np.sin(kx / 2.0) + np.sin(ky / 2.0))
    arc = np.arccos(np.clip(alpha, -1.0, 1.0))
    branch = np.stack([arc + np.pi / 2.0, -arc + np.pi / 2.0], axis=-1)
    return np.sort(wrap_phase(np.concatenate([branch, branch + np.pi], axis=-1)), axis=-1)


# ---------------------------------------------------------------------------
# isotropy fixtures
# ---------------------------------------------------------------------------

SWAP_AB: Mapping[GeneratorLabel, GeneratorLabel] = {
    A: B, B: A, A_INV: B_INV, B_INV: A_INV
}


def g1_isotropy() -> IsotropySpec:
    """The a<->b swap represented by sigma_x (both classes, any Z branch)."""
    return IsotropySpec(permutation=SWAP_AB, coin_unitary=PAULI_X)


def g2_isotropy(variant: str = "I") -> IsotropySpec:
    """The a<->b swap coin: sigma_z for variant I, sigma_x for variant II.

    The anti-unitary map between the variants conjugates the swap coin,
    Y sigma_z Y^dag = -sigma_x, so the representing unitary changes with the
    variant.
    """
    if variant == "I":
        return IsotropySpec(permutation=SWAP_AB, coin_unitary=PAULI_Z)
    if variant == "II":
        return IsotropySpec(permutation=SWAP_AB, coin_unitary=PAULI_X)
    raise ValueError(f"variant must be 'I' or 'II', got {variant!r}")


# ---------------------------------------------------------------------------
# oracle comparison and the verification suite
# ---------------------------------------------------------------------------


def grid_oracle_deviation(grid: DispersionGrid, closed_form: Callable[[np.ndarray], np.ndarray]) -> float:
    """Worst circular multiset distance between grid phases and a closed form.

    ``closed_form`` is called once with all (nk, d) grid wave-vectors and
    must return the (nk, n) exact phases, one multiset per row.
    """
    distances = phase_multiset_distance(grid.phases, closed_form(grid.kpoints))
    return float(np.max(distances, initial=0.0))


@dataclass(frozen=True)
class SuiteItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    items: tuple[SuiteItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if item.passed else 'FAIL'}  {item.name}: {item.detail}"
            for item in self.items
        ]
        return "\n".join(lines)


_SAMPLE_BLOCK = 4096


def scalar_rejection_rate(
    template: WalkSpec,
    samples: int,
    rng: np.random.Generator,
    *,
    threshold: float = 1e-3,
    modulus_range: tuple[float, float] = (0.1, 1.0),
) -> tuple[int, float]:
    """(rejections, worst-case minimum residual) over random scalar families.

    Every letter gets a nonzero scalar with modulus drawn uniformly from
    ``modulus_range`` and a uniform phase; a family is rejected when its
    unitarity residual reaches ``threshold``.  The draws are
    ``rng.random((samples, L, 2))`` in C order, one modulus
    lo + (hi - lo) u then one phase exp(2 pi i u) per letter per sample,
    letters in alphabet order: the stream ``rng.uniform`` calls in that
    order would consume.  Up to ``_SAMPLE_BLOCK`` families are drawn and
    scored by one ``unitarity_residuals`` call, so memory stays bounded
    for any sample count.
    """
    alphabet = template.presentation.alphabet
    lo, hi = modulus_range
    rejected = 0
    min_residual = np.inf
    for start in range(0, samples, _SAMPLE_BLOCK):
        u = rng.random((min(_SAMPLE_BLOCK, samples - start), len(alphabet), 2))
        scalars = (lo + (hi - lo) * u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
        residuals, _ = unitarity_residuals(template.tiling, alphabet, scalars[..., None, None])
        rejected += int(np.count_nonzero(residuals >= threshold))
        min_residual = min(min_residual, float(residuals.min()))
    return rejected, float(min_residual)


_G1_SWEEP_WEIGHTS = (0.0, 0.3, 1.0 / np.sqrt(2.0), 0.8, 1.0)


def verification_suite(
    *,
    seed: int = 0,
    scalar_samples: int = 1000,
    g2_variant_walks: Mapping[str, WalkSpec] | None = None,
) -> SuiteReport:
    """Structural checks on the built-in solution families.

    Items: (i) every g1 family member satisfies the unitarity constraints
    and swap/sigma_x covariance; (ii) extra left multiplications by mixing
    unitaries keep the constraints; (iii) both g2 variants satisfy the
    constraints and variant II equals Y A^T Y^dag entrywise; (iv) random
    all-nonzero scalar families are rejected on both graphs; (v) the two g1
    classes differ structurally in how inverse letters pair.  Each family
    group of (i)-(iii) is one (B, L, 2, 2) stack scored by one
    ``unitarity_residuals`` and one ``isotropy_deviations`` call.
    ``g2_variant_walks`` lets a caller probe the suite with corrupted
    inputs; the pair is scored on variant I's tiling.
    """
    rng = np.random.default_rng(seed)
    items: list[SuiteItem] = []

    g1_members = [
        g1_walk(G1Params(cls, n, float(np.sqrt(max(0.0, 1.0 - n * n))), sign))
        for n in _G1_SWEEP_WEIGHTS
        for cls in ("I", "II")
        for sign in (1, -1)
    ]
    tiling, alphabet = g1_members[0].tiling, g1_members[0].presentation.alphabet
    members = np.stack([walk.matrix_stack() for walk in g1_members])
    iso = g1_isotropy()
    worst_unitarity = float(unitarity_residuals(tiling, alphabet, members)[0].max())
    worst_isotropy = float(isotropy_deviations(alphabet, members, iso).max())
    items.append(
        SuiteItem(
            "g1_family_constraints",
            worst_unitarity < 1e-12 and worst_isotropy < 1e-12,
            f"{len(members)} members, worst unitarity {worst_unitarity:.2e}, "
            f"worst swap/sigma_x covariance {worst_isotropy:.2e}",
        )
    )

    # three extra mixing unitaries cos t I + i sin t sigma_x on every third member
    theta = rng.uniform(0.0, 2.0 * np.pi, (len(members[::3]), 3))[..., None, None]
    extra = np.cos(theta) * IDENTITY2 + 1j * np.sin(theta) * PAULI_X
    # non-finite entries score NaN in the kernels below; building them must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        multiplied = (extra[:, :, None] @ members[::3, None]).reshape(-1, *members.shape[1:])
    worst = float(np.maximum(
        unitarity_residuals(tiling, alphabet, multiplied)[0],
        isotropy_deviations(alphabet, multiplied, iso),
    ).max())
    items.append(
        SuiteItem(
            "g1_left_multiplication_closure",
            worst < 1e-12,
            f"{len(multiplied)} extra mixing unitaries, worst residual {worst:.2e}",
        )
    )

    if g2_variant_walks is None:
        g2_variant_walks = {"I": g2_walk("I"), "II": g2_walk("II")}
    walk_one = g2_variant_walks["I"]
    alphabet = walk_one.presentation.alphabet
    pair = np.stack([g2_variant_walks[v].matrix_stack() for v in ("I", "II")])
    worst = float(np.maximum(
        unitarity_residuals(walk_one.tiling, alphabet, pair)[0],
        isotropy_deviations(alphabet, pair, (g2_isotropy("I"), g2_isotropy("II"))),
    ).max())
    y = ANTIUNITARY_Y
    with np.errstate(over="ignore", invalid="ignore"):
        entrywise = float(np.abs(pair[1] - y @ pair[0].swapaxes(-1, -2) @ adjoint(y)).max())
    items.append(
        SuiteItem(
            "g2_solutions",
            worst < 1e-12 and entrywise < 1e-12,
            f"worst constraint residual {worst:.2e}, "
            f"anti-unitary map entrywise deviation {entrywise:.2e}",
        )
    )

    g1_rejected, g1_min = scalar_rejection_rate(g1_walk(), scalar_samples, rng)
    g2_rejected, g2_min = scalar_rejection_rate(g2_walk("I"), scalar_samples, rng)
    items.append(
        SuiteItem(
            "scalar_walks_rejected",
            g1_rejected == scalar_samples and g2_rejected == scalar_samples,
            f"{g1_rejected}/{scalar_samples} and {g2_rejected}/{scalar_samples} "
            f"rejected, smallest residual {min(g1_min, g2_min):.3e}",
        )
    )

    base_one = g1_base_matrices("I", 1)
    base_two = g1_base_matrices("II", 1)
    class_one_ok = (
        np.allclose(base_one[A_INV], adjoint(base_one[A]))
        and np.allclose(base_one[B_INV], adjoint(base_one[B]))
    )
    class_two_ok = (
        np.allclose(base_two[A_INV], adjoint(base_two[B]))
        and np.allclose(base_two[B_INV], adjoint(base_two[A]))
        and not np.allclose(base_two[A_INV], adjoint(base_two[A]))
    )
    items.append(
        SuiteItem(
            "g1_class_distinction",
            class_one_ok and class_two_ok,
            "class I pairs each inverse with its own letter, class II crosses them",
        )
    )

    return SuiteReport(tuple(items))


def builtin_walk(
    name: str, *, g1_params: G1Params | None = None, g2_variant: str = "I"
) -> tuple[WalkSpec, Callable[[np.ndarray], np.ndarray]]:
    """A built-in walk by CLI name ('g1' or 'g2') and its closed-form phases.

    The closed form maps (nk, 2) wave-vectors to the (nk, n) exact phases,
    as ``grid_oracle_deviation`` expects.
    """
    if name == "g1":
        params = g1_params or G1Params()
        nu = g1_effective_weight(params)
        return g1_walk(params), lambda k: g1_closed_form(k, nu, params.walk_class)
    if name == "g2":
        return g2_walk(g2_variant), g2_closed_form
    raise KeyError(f"unknown example {name!r}; available: g1, g2")
