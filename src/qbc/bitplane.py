"""Bit-plane expansion of real vectors for inner products via repeated
binary-vector estimation.

A column of values in [0, 1] is decomposed into K binary planes,
value_i = sum_k 2^(u-k) plane_k[i] + truncation, and the inner product
with a binary label vector is assembled from one protocol execution per
nonzero plane. Truncation contributes at most N * 2^(u-K+1) and each
plane's counting error is damped by its weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import CorrelationMode, as_bits
from .protocol import run_blind_client, run_qbc_baseline
from .statevector import GateError

REGRESSION_VARIANTS = ("baseline", "blind-client")


@dataclass(frozen=True)
class BitPlaneDecomposition:
    value: float
    u: int
    planes: tuple[int, ...]

    @property
    def num_planes(self) -> int:
        return len(self.planes)

    def reconstruction(self) -> float:
        return float(sum(b * 2.0 ** (self.u - k) for k, b in enumerate(self.planes)))


def decompose_bitplanes(value: float, u: int, num_planes: int) -> BitPlaneDecomposition:
    """Greedy binary expansion of `value` from exponent u downward."""
    if num_planes < 1:
        raise GateError("need at least one plane")
    if not math.isfinite(value):
        raise GateError(f"value {value} is not finite")
    if value < 0:
        raise GateError("negative values are out of scope")
    if value >= 2.0 ** (u + 1):
        raise GateError(f"value {value} needs a digit above exponent {u}")
    remainder = float(value)
    planes = []
    for k in range(num_planes):
        weight = 2.0 ** (u - k)
        bit = 1 if remainder >= weight else 0
        remainder -= bit * weight
        planes.append(bit)
    return BitPlaneDecomposition(float(value), u, tuple(planes))


@dataclass
class RegressionResult:
    value: float
    truth: float
    error_bound: float
    num_executions: int
    plane_estimates: list[float]
    u: int
    num_planes: int
    t: int

    @property
    def within_bound(self) -> bool:
        return abs(self.value - self.truth) <= self.error_bound


def regression_error_bound(num_values: int, num_planes: int, t: int) -> float:
    return num_values * (2.0 ** (-num_planes + 1) + num_planes * np.pi * 2.0 ** (-t))


def regression_demo(
    x_column,
    y,
    t: int,
    num_planes: int,
    variant: str = "baseline",
    rng: np.random.Generator | None = None,
    u: int | None = None,
) -> RegressionResult:
    """Estimate sum_i x_i y_i for a real column x in [0, 1] and binary y
    by running one estimation per nonzero bit-plane of x.

    All-zero planes contribute 0 without an execution. The default
    exponent is -1 for columns below 1 and 0 when a 1.0 entry is
    present.
    """
    x_column = np.asarray(x_column, dtype=float)
    y = as_bits(y)
    if x_column.ndim != 1 or len(x_column) != len(y):
        raise GateError("x column and y must be equal-length vectors")
    if not np.all((x_column >= 0) & (x_column <= 1)):  # nan fails both
        raise GateError("column entries must be finite and lie in [0, 1]")
    if variant not in REGRESSION_VARIANTS:
        raise GateError(f"regression supports the variants {REGRESSION_VARIANTS}")
    if u is None:
        u = 0 if np.any(x_column >= 1.0) else -1
    decomps = [decompose_bitplanes(v, u, num_planes) for v in x_column]
    num = len(y)
    value = 0.0
    executions = 0
    plane_estimates: list[float] = []
    for k in range(num_planes):
        plane = np.array([d.planes[k] for d in decomps], dtype=np.uint8)
        if not plane.any():
            plane_estimates.append(0.0)
            continue
        if variant == "baseline":
            run = run_qbc_baseline(plane, y, t, CorrelationMode.AND, rng)
        else:
            run = run_blind_client(plane, y, t, rng)
        executions += 1
        plane_estimates.append(run.estimate)
        value += 2.0 ** (u - k) * num * run.estimate
    truth = float(np.dot(x_column, y))
    return RegressionResult(
        value=value,
        truth=truth,
        error_bound=regression_error_bound(num, num_planes, t),
        num_executions=executions,
        plane_estimates=plane_estimates,
        u=u,
        num_planes=num_planes,
        t=t,
    )
