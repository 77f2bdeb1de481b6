"""Output checks, run outside the timed region.

The force oracle is a brute-force O(N^2) minimum-image Lennard-Jones sum
written here; it shares no code with ``repro.md.neighbors`` or
``repro.md.kernels``. The sweep checks hold each repetition to the paper's
Fig. 10 claims: the balancer's effective range ends (the force-time spread
diverges), and the boundary point lies at or below ``f(m, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.theory.boundary import boundary_point
from repro.theory.bounds import upper_bound

#: Largest force error accepted, relative to the sampled forces' scale.
FORCE_RTOL = 1e-9
FORCE_SAMPLE = 64


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _minimum_image(delta: np.ndarray, box: float) -> np.ndarray:
    return delta - box * np.round(delta / box)


def oracle_forces(
    positions: np.ndarray,
    sample: np.ndarray,
    box: float,
    potential,
    attraction: float,
    attractors: np.ndarray | None,
) -> np.ndarray:
    """LJ + nucleation-attraction forces on ``sample``, by direct summation."""
    eps, sigma, rc2 = potential.epsilon, potential.sigma, potential.cutoff**2
    sites = attractors if attractors is not None else np.full((1, 3), box / 2.0)
    out = np.zeros((len(sample), 3))
    for k, i in enumerate(sample):
        d = _minimum_image(positions[i] - positions, box)
        r2 = np.einsum("ij,ij->i", d, d)
        r2[i] = np.inf
        near = r2 < rc2
        s2 = sigma * sigma / r2[near]
        s6 = s2 * s2 * s2
        f_over_r = 24.0 * eps * (2.0 * s6 * s6 - s6) / r2[near]
        out[k] = (f_over_r[:, None] * d[near]).sum(axis=0)
        if attraction > 0.0:
            pull = _minimum_image(positions[i] - sites, box)
            nearest = np.argmin(np.einsum("ij,ij->i", pull, pull))
            out[k] -= attraction * pull[nearest]
    return out


def force_error(forces: np.ndarray, expected: np.ndarray) -> float:
    """Largest deviation relative to the sampled force scale."""
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(forces - expected).max()) / scale


def force_check(runner, seed: int) -> tuple[Check, Check]:
    """The final forces against the oracle, plus a self-test that the check
    rejects a deliberately perturbed force array."""
    system = runner.system
    field = runner.force_field
    sample = np.random.default_rng(seed).choice(
        system.n, size=min(FORCE_SAMPLE, system.n), replace=False
    )
    expected = oracle_forces(
        system.positions, sample, system.box_length, runner.potential,
        field.attraction, field.attractors,
    )
    got = system.forces[sample]
    error = force_error(got, expected)
    perturbed = got.copy()
    perturbed[0, 0] += 1e-6 * max(1.0, float(np.abs(expected).max()))
    caught = force_error(perturbed, expected) > FORCE_RTOL
    return (
        Check("forces.oracle", error <= FORCE_RTOL, f"max rel error {error:.3e}"),
        Check("selftest.perturbed_forces", caught, "perturbed force array rejected"),
    )


def within_bound(m: int, n: float, c0_ratio: float) -> bool:
    return c0_ratio <= float(upper_bound(m, n)) + 1e-12


def sweep_checks(m: int, result, detector: dict) -> tuple[list[Check], float | None]:
    """Divergence and bound checks of one sweep; returns (checks, C0/C over f)."""
    try:
        point = boundary_point(
            result.spread, result.trajectory, steps=result.steps, **detector
        )
    except AnalysisError as exc:
        return [Check(f"sweep.m{m}.diverges", False, str(exc))], None
    ratio = point.c0_ratio / float(upper_bound(m, point.n))
    return [
        Check(f"sweep.m{m}.diverges", True, f"boundary at step {point.step}"),
        Check(
            f"sweep.m{m}.below_bound",
            within_bound(m, point.n, point.c0_ratio),
            f"C0/C={point.c0_ratio:.4f} n={point.n:.4f} ratio={ratio:.4f}",
        ),
    ], ratio


def bound_selftest() -> Check:
    """A point 1% above f(m, n) must be rejected."""
    n = 1.5
    over = 1.01 * float(upper_bound(3, n))
    return Check("selftest.over_bound_point", not within_bound(3, n, over),
                 "over-bound point rejected")


def digest_check(digests: dict[object, list[str]]) -> Check:
    """Repeated calls with one seed must reproduce one run digest.

    ``digests`` maps a run label to the digests of its calls; labels called
    once (the sweep's larger m outside the traced run) cannot be compared,
    but at least one label must repeat.
    """
    repeated = {label: d for label, d in digests.items() if len(d) > 1}
    split = sorted(str(label) for label, d in repeated.items() if len(set(d)) != 1)
    return Check("digest.repeatable", bool(repeated) and not split,
                 f"repeated runs {sorted(map(str, repeated))}; split: {split or 'none'}")
