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

Every built-in walk of a group shares one immutable presentation and one
tiling, built once at import; ``g1_walk`` and ``g2_walk`` build only the
walk's own matrices.
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
    WalkSpec,
    isotropy_deviations,
    unitarity_residuals,
)

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")
_INVERSE = {A: A_INV, B: B_INV}  # the label objects that key every built-in walk's matrices

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
        # written so that NaN fails every check
        if not (self.n >= 0 and self.m >= 0):
            raise ValueError("n and m must be nonnegative")
        if not abs(self.n * self.n + self.m * self.m - 1.0) <= 1e-12:
            raise ValueError(f"n^2 + m^2 = {self.n**2 + self.m**2} is not 1")


_G1_TABLE: tuple[tuple[GeneratorLabel, int, int, tuple[int, int]], ...] = (
    # (generator, coset, target, shift) with shift = c_target g c_coset^-1
    # in the (h_x, h_y) basis; _planar_group adds the inverse rows
    (A, 0, 3, (0, 0)),
    (A, 1, 0, (0, 0)),
    (A, 2, 1, (0, 0)),
    (A, 3, 2, (0, 0)),
    (B, 0, 3, (1, 0)),
    (B, 1, 0, (0, 1)),
    (B, 2, 1, (-1, 0)),
    (B, 3, 2, (0, -1)),
)


def _planar_group(relators, rep_words, table) -> tuple[GroupPresentation, TilingData]:
    """A built-in group: generators (a, b), dimension 2, one coset per representative word, and
    the rows (g, j) -> (t, h) of ``table`` with their inverses (g^-1, t) -> (j, -h), listed by
    (letter, coset) in alphabet order, as a walk file lists them."""
    presentation = GroupPresentation((A, B), relators)
    rows = [TilingRule(*row) for row in table]
    rows += [TilingRule(_INVERSE[g], t, j, tuple(-x for x in h)) for g, j, t, h in table]
    rows.sort(key=lambda rule: (presentation.alphabet.index(rule.generator), rule.coset))
    return presentation, TilingData(2, len(rep_words), rep_words, tuple(rows))


_G1_GROUP = _planar_group(((A,) * 4, (B,) * 4, (A, B, A, B)), ((), (A,), (A, A), (A, A, A)), _G1_TABLE)


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
    z = params.n * IDENTITY2 + 1j * params.sign * params.m * PAULI_X  # the mixing unitary Z
    matrices = {g: z @ m for g, m in g1_base_matrices(params.walk_class, params.sign).items()}
    return WalkSpec(*_G1_GROUP, matrices)


def g1_effective_weight(params: G1Params) -> float:
    """The mixing weight that drives the g1 dispersion: m for class I, n for II."""
    return params.m if params.walk_class == "I" else params.n


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
    if walk_class not in ("I", "II"):
        raise ValueError(f"walk_class must be 'I' or 'II', got {walk_class!r}")
    k = _wave_vectors(k)
    kx, ky = k[..., 0], k[..., 1]
    alpha = nu * np.sqrt(0.5 * (np.cos(kx / 2.0) ** 2 + np.cos(ky / 2.0) ** 2))
    if np.any(alpha > 1.0 + 1e-12):
        raise ValueError(f"alpha = {np.max(alpha)} left the arccos domain")
    arc = np.arccos(np.clip(alpha, -1.0, 1.0))
    offset = np.pi / 2.0 if walk_class == "I" else 0.0
    branch = np.stack([arc + offset, -arc + offset], axis=-1)
    phases = np.concatenate([branch, branch - np.pi], axis=-1)
    return np.sort(wrap_phase(np.repeat(phases, 2, axis=-1)), axis=-1)


# ---------------------------------------------------------------------------
# g2: the massless pair
# ---------------------------------------------------------------------------

ANTIUNITARY_Y = ((IDENTITY2 + 1j * PAULI_Y) / np.sqrt(2.0)).copy()


_G2_TABLE: tuple[tuple[GeneratorLabel, int, int, tuple[int, int]], ...] = (
    # shift in the (h_2, h_3) basis; representatives e, a^-1
    (A, 0, 1, (0, 0)),
    (A, 1, 0, (1, 0)),
    (B, 0, 1, (0, 1)),
    (B, 1, 0, (1, -1)),
)


_G2_GROUP = _planar_group(((A, A, B_INV, B_INV),), ((), (A_INV,)), _G2_TABLE)


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
    return WalkSpec(*_G2_GROUP, g2_solution_matrices(variant))


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


def swap_isotropy(coin: str) -> IsotropySpec:
    """The a<->b swap represented by the coin unitary "sigma_x" or "sigma_z"."""
    return IsotropySpec(permutation=SWAP_AB, coin_unitary={"sigma_x": PAULI_X, "sigma_z": PAULI_Z}[coin])


def g2_isotropy(variant: str = "I") -> IsotropySpec:
    """The a<->b swap coin: sigma_z for variant I, sigma_x for variant II.

    The anti-unitary map between the variants conjugates the swap coin,
    Y sigma_z Y^dag = -sigma_x, so the representing unitary changes with the
    variant.
    """
    if variant not in ("I", "II"):
        raise ValueError(f"variant must be 'I' or 'II', got {variant!r}")
    return swap_isotropy("sigma_z" if variant == "I" else "sigma_x")


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

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


_SAMPLE_BLOCK = 4096
_SCALAR_THRESHOLD = 1e-3
_SCALAR_MODULI = (0.1, 1.0)


def scalar_rejection_rate(
    template: WalkSpec,
    samples: int,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """(rejections, worst-case minimum residual) over random scalar families.

    Every letter gets a nonzero scalar with modulus drawn uniformly from
    ``_SCALAR_MODULI`` and a uniform phase; a family is rejected when its
    unitarity residual reaches ``_SCALAR_THRESHOLD``.  The draws are
    ``rng.random((samples, L, 2))`` in C order, one modulus
    lo + (hi - lo) u then one phase exp(2 pi i u) per letter per sample,
    letters in alphabet order: the stream ``rng.uniform`` calls in that
    order would consume.  Up to ``_SAMPLE_BLOCK`` families are drawn and
    scored by one ``unitarity_residuals`` call, so memory stays bounded
    for any sample count.
    """
    alphabet = template.presentation.alphabet
    lo, hi = _SCALAR_MODULI
    rejected = 0
    min_residual = np.inf
    for start in range(0, samples, _SAMPLE_BLOCK):
        u = rng.random((min(_SAMPLE_BLOCK, samples - start), len(alphabet), 2))
        scalars = (lo + (hi - lo) * u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
        residuals, _ = unitarity_residuals(template.tiling, alphabet, scalars[..., None, None])
        rejected += int(np.count_nonzero(residuals >= _SCALAR_THRESHOLD))
        min_residual = min(min_residual, float(residuals.min()))
    return rejected, float(min_residual)


_G1_SWEEP_WEIGHTS = (0.0, 0.3, 1.0 / np.sqrt(2.0), 0.8, 1.0)


def verification_suite(*, seed: int = 0, scalar_samples: int = 1000) -> tuple[SuiteItem, ...]:
    """Structural checks on the built-in solution families.

    Items: (i) every g1 family member satisfies the unitarity constraints
    and swap/sigma_x covariance; (ii) extra left multiplications by mixing
    unitaries keep the constraints; (iii) both g2 variants satisfy the
    constraints and variant II equals Y A^T Y^dag entrywise; (iv) random
    all-nonzero scalar families are rejected on both graphs; (v) the two g1
    classes differ structurally in how inverse letters pair.  The families
    of (i) and (ii) are one (B, L, 2, 2) stack and those of (iii) another,
    each scored by one ``unitarity_residuals`` and one
    ``isotropy_deviations`` call.
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
    # three extra mixing unitaries cos t I + i sin t sigma_x on every third member
    theta = rng.uniform(0.0, 2.0 * np.pi, (len(members[::3]), 3))[..., None, None]
    extra = np.cos(theta) * IDENTITY2 + 1j * np.sin(theta) * PAULI_X
    # non-finite entries score NaN in the kernels below; building them must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        multiplied = (extra[:, :, None] @ members[::3, None]).reshape(-1, *members.shape[1:])
    # members and closure families share the tiling and the swap, so one pass scores both
    families = np.concatenate([members, multiplied])
    unitarity = unitarity_residuals(tiling, alphabet, families)[0]
    isotropy = isotropy_deviations(alphabet, families, swap_isotropy("sigma_x"))
    worst_unitarity = float(unitarity[:len(members)].max())
    worst_isotropy = float(isotropy[:len(members)].max())
    items.append(
        SuiteItem(
            "g1_family_constraints",
            worst_unitarity < 1e-12 and worst_isotropy < 1e-12,
            f"{len(members)} members, worst unitarity {worst_unitarity:.2e}, "
            f"worst swap/sigma_x covariance {worst_isotropy:.2e}",
        )
    )
    worst = float(np.maximum(unitarity[len(members):], isotropy[len(members):]).max())
    items.append(
        SuiteItem(
            "g1_left_multiplication_closure",
            worst < 1e-12,
            f"{len(multiplied)} extra mixing unitaries, worst residual {worst:.2e}",
        )
    )

    walk_one = g2_walk("I")
    alphabet = walk_one.presentation.alphabet
    pair = np.stack([walk_one.matrix_stack(), g2_walk("II").matrix_stack()])
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

    g1_rejected, g1_min = scalar_rejection_rate(g1_members[0], scalar_samples, rng)
    g2_rejected, g2_min = scalar_rejection_rate(walk_one, scalar_samples, rng)
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

    return tuple(items)


_PARAMS = {"g1": ("n", "m", "class", "sign"), "g2": ("class",)}  # the --params fields of each walk


def builtin_walk(
    name: str, params: str | None = None
) -> tuple[WalkSpec, Callable[[np.ndarray], np.ndarray]]:
    """A built-in walk by CLI name and ``--params`` text, and its closed-form phases.

    ``params`` is ``key=value,...``; an absent field takes its default.  Any
    bad input raises ValueError: a malformed or repeated entry is found
    first, then an unknown name, an unknown field and a bad value.  The
    closed form maps (nk, 2) wave-vectors to the (nk, n) exact phases.
    """
    fields: dict[str, str] = {}
    for chunk in params.split(",") if params else ():
        key, equals, value = (part.strip() for part in chunk.partition("="))
        if not equals:
            raise ValueError(f"malformed --params entry {chunk!r}; expected key=value")
        if key in fields:
            raise ValueError(f"--params gives {key!r} twice")
        fields[key] = value
    if name not in _PARAMS:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(_PARAMS)}")
    unknown = [key for key in fields if key not in _PARAMS[name]]
    if unknown:
        raise ValueError(f"--example {name} takes {', '.join(_PARAMS[name])}, not {unknown[0]!r}")
    if name == "g2":
        return g2_walk(fields.get("class", "I")), g2_closed_form
    sign = fields.get("sign", "+")
    if sign not in ("+", "-", "+1", "-1"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    n, m = float(fields.get("n", "1")), float(fields.get("m", "0"))
    g1 = G1Params(fields.get("class", "I"), n, m, -1 if sign.startswith("-") else 1)
    nu = g1_effective_weight(g1)
    return g1_walk(g1), lambda k: g1_closed_form(k, nu, g1.walk_class)
