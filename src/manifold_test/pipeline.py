"""End-to-end manifold hypothesis test at desk scale.

Given a weighted sample in the unit ball and target manifold parameters
(dimension d, volume V, reach tau) with tolerances (eps, delta), the test
searches a budget of cylinder packets, extracts a putative manifold from
each, fits patched graph sections, and compares the best empirical loss
against the decision threshold C * eps.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .asdf_bundle import (
    CylinderPacket,
    _ideal_packet,
    _validate_packet,
    extract_putative_manifold,
    ideal_packet,   # kept bound here: bench/tracer.py wraps pipeline.ideal_packet
    validate_packet,
)
from .complexity_bounds import BoundParams, sample_complexity
from .core_geometry import (
    AffineSubspace,
    PointCloud,
    _ball_grid,
    _tangent_ladder,
    estimate_tangent,   # kept bound here: bench/tracer.py wraps pipeline.estimate_tangent
    federer_reach,
    greedy_merge,
    greedy_net,
)
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    ManifoldTestError,
    NoValidPacketError,
    OutOfTubeError,
)
from .whitney_sections import (SectionModel, _coefficient_bound, _shepard_blend, fit_sections,
                               mfin_distance)

TANGENT_RADIUS_LADDER = (2.0, 4.0, 8.0, 16.0)
RANK_TOL = 1e-10   # reduce_dimension's singular-value cut, relative to the largest
OUT_OF_TUBE_FACTOR = 1.5   # point_residuals' charge per unit of distance to the mesh
C_REC = 0.5   # verify_output's reach floor, as a fraction of tau


@dataclass(frozen=True)
class TestConfig:
    """All knobs of the manifold test in one place.

    d, V, tau describe the manifold class; eps and delta the loss tolerance
    and failure probability; C scales the decision threshold. cbar12 sets
    the cylinder scale tau_bar = cbar12 * tau.
    """

    d: int
    V: float
    tau: float
    eps: float
    delta: float
    C: float = 4.0
    cbar12: float = 0.1
    packet_budget: int = 4
    seed: int = 0
    eps_bar: float = 0.5
    extra_dim: int = 5
    max_cylinders: int | None = None
    solver_budget: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParameterError("d must be at least 1")
        if not (0 < self.tau < 1):
            raise InvalidParameterError("tau must lie in (0, 1)")
        if not (self.V > 0 and self.eps > 0 and self.C > 0):
            raise InvalidParameterError("V, eps and C must be positive")
        if not (0 < self.delta < 1):
            raise InvalidParameterError("delta must lie in (0, 1)")
        if not (0 < self.cbar12 < 1):
            raise InvalidParameterError("cbar12 must lie in (0, 1)")
        if self.packet_budget < 1:
            raise InvalidParameterError("packet budget must be at least 1")
        if not (self.eps_bar > 0):
            raise InvalidParameterError("eps_bar must be positive")

    @property
    def tau_bar(self) -> float:
        return self.cbar12 * self.tau

    @property
    def threshold(self) -> float:
        return self.C * self.eps

    @property
    def cylinder_cap(self) -> int:
        if self.max_cylinders is not None:
            return self.max_cylinders
        return int(math.ceil((4.0 / self.cbar12) * self.V / self.tau ** self.d))


# ---- synthetic data ----

def _unit_ball_clip(points: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(points, axis=1)
    over = norms > 1.0
    if np.any(over):
        points = points.copy()
        points[over] /= norms[over, None] * (1.0 + 1e-12)
    return points


def generate_synthetic(kind: str, n: int, size: int, seed: int = 0,
                       noise: float = 0.0, **params) -> tuple[PointCloud, dict]:
    """Synthetic samples in the unit ball of R^n with known structure.

    Kinds: "sphere" (intrinsic dim `dim`, radius `radius`, optional `even`
    spacing when dim is 1), "torus" (radii `R` and `r` with R + r <= 1),
    "kplanes" (`k` random `dim`-planes), "uniform_ball". Gaussian ambient
    noise of the given scale is added, then points are clipped to the ball.
    """
    if size < 1:
        raise InvalidParameterError("size must be at least 1")
    rng = np.random.default_rng(seed)
    meta: dict = {"kind": kind, "n": n, "size": size, "seed": seed, "noise": noise}
    if kind == "sphere":
        dim = int(params.get("dim", 1))
        radius = float(params.get("radius", 0.9))
        even = bool(params.get("even", False))
        if not (1 <= dim < n):
            raise InvalidParameterError(f"sphere dim {dim} invalid for ambient {n}")
        if not (0 < radius <= 1):
            raise InvalidParameterError("sphere radius must lie in (0, 1]")
        if even and dim == 1:
            ang = 2.0 * math.pi * np.arange(size) / size
            core = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            g = rng.normal(size=(size, dim + 1))
            core = radius * g / np.linalg.norm(g, axis=1, keepdims=True)
        points = np.zeros((size, n))
        points[:, :dim + 1] = core
        meta.update(dim=dim, radius=radius, even=even)
    elif kind == "torus":
        R = float(params.get("R", 0.6))
        r = float(params.get("r", 0.25))
        if R + r > 1.0 or r <= 0 or R <= r:
            raise InvalidParameterError("torus radii need 0 < r < R and R + r <= 1")
        if n < 3:
            raise InvalidParameterError("a torus needs ambient dimension >= 3")
        theta = rng.uniform(0.0, 2.0 * math.pi, size)
        phi = rng.uniform(0.0, 2.0 * math.pi, size)
        points = np.zeros((size, n))
        points[:, 0] = (R + r * np.cos(phi)) * np.cos(theta)
        points[:, 1] = (R + r * np.cos(phi)) * np.sin(theta)
        points[:, 2] = r * np.sin(phi)
        meta.update(R=R, r=r)
    elif kind == "kplanes":
        k = int(params.get("k", 2))
        dim = int(params.get("dim", 1))
        if not (1 <= dim <= n) or k < 1:
            raise InvalidParameterError("kplanes needs 1 <= dim <= n and k >= 1")
        points = np.zeros((size, n))
        bases = []
        for _ in range(k):
            g = rng.normal(size=(n, dim))
            q, _r = np.linalg.qr(g)
            center = rng.normal(size=n)
            center = 0.4 * center / np.linalg.norm(center) * rng.uniform(0.2, 1.0)
            bases.append((center, q[:, :dim]))
        which = rng.integers(0, k, size)
        coeff = rng.uniform(-0.5, 0.5, (size, dim))
        for i in range(size):
            c, b = bases[which[i]]
            points[i] = c + b @ coeff[i]
        meta.update(k=k, dim=dim)
    elif kind == "uniform_ball":
        g = rng.normal(size=(size, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size) ** (1.0 / n)
        points = g * radii[:, None]
    else:
        raise InvalidParameterError(f"unknown synthetic kind {kind!r}")
    if noise > 0:
        points = points + rng.normal(0.0, noise, points.shape)
    points = _unit_ball_clip(points)
    return PointCloud.from_points(points), meta


# ---- dimension reduction ----

@dataclass(frozen=True, eq=False)
class ReducedCloud:
    """Sample expressed in an orthonormal basis of a low-dimensional span.

    The span is linear (through the origin), so norms survive and the
    reduced cloud stays in the unit ball. perp_sq holds each point's
    squared distance to the span; ambient squared distances decompose as
    reduced squared distance plus perp_sq.
    """

    cloud: PointCloud        # (N, g) coordinates in the span
    basis: np.ndarray        # (g, n) orthonormal rows
    perp_sq: np.ndarray      # (N,)
    span_rank: int           # rank of the net-point span before extras

    @property
    def reduced_dim(self) -> int:
        return self.basis.shape[0]

    def to_ambient(self, reduced_points: np.ndarray) -> np.ndarray:
        return np.asarray(reduced_points, dtype=np.float64) @ self.basis


def reduce_dimension(cloud: PointCloud, net_indices, extra_dim: int = 5) -> ReducedCloud:
    """Project onto the linear span of the net points plus residual modes.

    The basis starts with the span of the net points (rank determined by
    singular values above RANK_TOL relative to the largest) and is extended
    by up to extra_dim principal directions of the remaining residuals.
    """
    if cloud.size == 0:
        raise EmptyInputError("cannot reduce an empty cloud")
    net_indices = np.asarray(net_indices, dtype=np.int64)
    if net_indices.size == 0:
        raise EmptyInputError("need at least one net index")
    n = cloud.ambient_dim
    net_pts = cloud.points[net_indices]
    _u, sv, vt = np.linalg.svd(net_pts, full_matrices=False)
    if sv.size and sv[0] > 0:
        rank = int(np.sum(sv > RANK_TOL * sv[0]))
    else:
        rank = 0
    rows = [vt[:rank]] if rank else []
    basis = vt[:rank] if rank else np.zeros((0, n))
    if extra_dim > 0 and rank < n:
        resid = cloud.points - (cloud.points @ basis.T) @ basis
        _u2, sv2, vt2 = np.linalg.svd(resid, full_matrices=False)
        keep = int(np.sum(sv2 > max(RANK_TOL * (sv[0] if sv.size else 1.0), 1e-14)))
        rows.append(vt2[:min(extra_dim, keep)])
        basis = np.vstack([b for b in rows if b.size]) if rows else basis
        # re-orthonormalize to wash out roundoff between the two blocks
        q, _r = np.linalg.qr(basis.T)
        basis = q.T[:basis.shape[0]]
    if basis.shape[0] == 0:
        basis = np.eye(1, n)
    reduced = cloud.points @ basis.T
    perp = np.sum(cloud.points * cloud.points, axis=1) - np.sum(reduced * reduced, axis=1)
    np.maximum(perp, 0.0, out=perp)
    reduced_cloud = PointCloud(points=reduced, weights=cloud.weights)
    return ReducedCloud(cloud=reduced_cloud, basis=basis, perp_sq=perp,
                        span_rank=rank)


# ---- packet candidates ----

def _packet_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"packet:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _perturb_packet(packet: CylinderPacket, rng: np.random.Generator) -> CylinderPacket:
    """Jittered centers and near-identity twists, drawn at the scales of the
    packet conditions (shifts up to 0.1 C tau_bar^2 / tau, Cayley twists of
    2-norm 0.3 c12 tau_bar) but not checked against them: a pair of
    perturbed neighbours can exceed its bounds. Each cylinder draws in turn
    its shift direction, its shift length (only when the direction is not
    zero) and its twist generator; the shifts are scaled and the twists
    solved as one stack."""
    tb, n, m = packet.tau_bar, packet.n, packet.size
    center_scale = min(0.1 * packet.C_align * tb * tb / packet.tau, 0.25 * tb)
    shifts, gens = np.empty((m, n)), np.empty((m, n, n))
    sq, lengths = np.empty(m), np.empty(m)
    for k in range(m):
        shifts[k] = rng.normal(size=n)
        sq[k] = shifts[k].dot(shifts[k])   # as np.linalg.norm takes it
        if sq[k] > 0:
            lengths[k] = rng.uniform(0.0, 1.0)
        gens[k] = rng.normal(size=(n, n))
    moved = sq > 0
    shifts[moved] = (shifts[moved] / np.sqrt(sq[moved])[:, None] * center_scale
                     * lengths[moved, None])
    s = gens - gens.transpose(0, 2, 1)
    norms = np.linalg.norm(s, 2, axis=(1, 2))   # a vanishing generator: no twist
    s *= (0.3 * packet.c12 * tb / np.where(norms < 1e-300, np.inf, norms))[:, None, None]
    eye = np.eye(n)
    rotations = np.linalg.solve(eye - 0.5 * s, eye + 0.5 * s) @ packet.rotations
    return CylinderPacket(packet.centers + shifts, rotations, tb, packet.d, tau=packet.tau,
                          c12=packet.c12, C_align=packet.C_align)


def _net_tangents(cloud: PointCloud, net, d: int,
                  tau_bar: float) -> dict[int, AffineSubspace]:
    """Tangent estimates at net points, one pass: each takes the first radius
    of TANGENT_RADIUS_LADDER (times tau_bar) that serves it (see
    core_geometry._tangent_ladder), and np.eye(d, n) when none does."""
    net = np.asarray(net, dtype=np.int64)
    bases, found, _ = _tangent_ladder(cloud.points, net,
                                      [f * tau_bar for f in TANGENT_RADIUS_LADDER], d)
    bases[found < 0] = np.eye(d, cloud.ambient_dim)
    return dict(zip(net.tolist(), AffineSubspace._checked_stack(cloud.points[net], bases)))


@dataclass(frozen=True, eq=False)
class PacketCandidate:
    """One packet tried by the search, with its outcome."""

    index: int
    kind: str                 # "ideal" or "perturbed"
    loss: float               # +inf when the packet failed
    reason: str | None
    packet_failures: dict[str, int] | None   # failures by condition, once validated
    mesh_size: int = 0
    empty_sections: int = 0
    out_of_tube: int = 0
    out_of_tube_causes: dict[str, int] = field(default_factory=dict)   # by cause, TUBE_CAUSES
    seed_failures: dict[str, int] = field(default_factory=dict)   # failed seeds by error kind
    section_paths: dict[str, int] = field(default_factory=dict)   # section fits by solver path
    # seeds, distinct rows solved, field rows evaluated, slowest row's steps, capped rows
    mesh_newton: dict[str, int] = field(default_factory=dict)
    projection_stops: dict[str, int] = field(default_factory=dict)   # projections by stop
    loss_newton: dict[str, int] = field(default_factory=dict)   # points, rounds, rows, field rows


@dataclass(frozen=True, eq=False)
class TestVerdict:
    """Outcome of the manifold test.

    case is "one" when some packet produced a patched manifold with loss at
    most C * eps, otherwise "two". The winning model (if any) is attached
    for verification; the certificate is JSON-serializable.
    """

    case: str
    best_loss: float
    threshold: float
    samples_used: int
    candidates: tuple[PacketCandidate, ...]
    certificate: dict
    model: SectionModel | None
    reduction: ReducedCloud | None
    config: TestConfig


# why a point is out of the tube: its alternation ran ALTERNATIONS rounds, its
# fiber offset passed cbar10 * tau_bar / 2, a base-point solve failed, or no
# section covers its base point; read from the start of the error text
TUBE_CAUSES = ("cap", "offset", "base_point", "uncovered")
_CAUSE_TEXTS = {"DecompositionFailedError: no convergence": "cap",
                "DecompositionFailedError: fiber offset": "offset",
                "UncoveredPointError": "uncovered"}


def _tube_cause(error: OutOfTubeError) -> str:
    return next((cause for head, cause in _CAUSE_TEXTS.items()
                 if str(error).startswith(head)), "base_point")


def point_residuals(model: SectionModel, reduced: ReducedCloud) -> tuple[np.ndarray, list, dict]:
    """Squared ambient distance of every sample point to the patched manifold.

    Within the reduced span the distance is mfin_distance, one stacked pass
    over the sample; a point outside the bundle's tube is charged
    OUT_OF_TUBE_FACTOR times its distance to the nearest mesh point instead.
    The squared distance off the span is added. Returns the squared
    distances, each point's out-of-tube cause (a TUBE_CAUSES entry, None in
    the tube) and the pass's Newton counts.
    """
    points = reduced.cloud.points
    found = mfin_distance(model, points)
    causes = [_tube_cause(r) if isinstance(r, OutOfTubeError) else None for r in found]
    out = np.array([c is not None for c in causes], dtype=bool)
    dist = np.array([0.0 if o else r for r, o in zip(found, out)])
    if out.any():
        gaps = np.linalg.norm(points[out][:, None, :] - model.mesh.base_points, axis=2)
        dist[out] = OUT_OF_TUBE_FACTOR * gaps.min(axis=1)
    return dist * dist + reduced.perp_sq, causes, dict(found.counts)


def _packet_loss(model: SectionModel, reduced: ReducedCloud) -> tuple[float, dict, dict]:
    """Weighted squared-distance loss of the data to the patched manifold,
    the out-of-tube points by cause and the loss pass's Newton counts."""
    sq, causes, newton = point_residuals(model, reduced)
    tube = {cause: causes.count(cause) for cause in TUBE_CAUSES}
    total = 0.0
    # a sequential sum in sample order; np.sum's pairwise order would move
    # the last bits of every reported loss
    for w, r in zip(reduced.cloud.weights, sq):
        total += w * r
    return total, tube, newton


def _sample_complexity(config: TestConfig) -> float | None:
    """complexity_bounds.sample_complexity of the config's class and
    tolerances; None when eps >= 1, outside the bound's range."""
    if config.eps >= 1:
        return None
    return sample_complexity(BoundParams(d=config.d, V=config.V, tau=config.tau,
                                         eps=config.eps, delta=config.delta, C=config.C))


def run_test(cloud: PointCloud, config: TestConfig) -> TestVerdict:
    """Decide between the two cases for the given sample.

    Case one: some admissible packet yields a patched manifold whose
    empirical loss is at most C * eps. Case two: every packet in the budget
    fails or exceeds the threshold. The certificate records the sample size
    N next to sample_complexity(BoundParams(d, V, tau, eps, delta, C)), the
    size the loss guarantee asks for; neither changes the verdict.

    Stages: build and validate every packet; one stacked extraction of the
    meshes of the packets that got through; sections and loss per packet.
    """
    if cloud.size == 0:
        raise EmptyInputError("cannot test an empty sample")
    tb = config.tau_bar
    net = greedy_net(cloud, tb / 2.0)
    reduced = reduce_dimension(cloud, net, config.extra_dim)
    if reduced.reduced_dim <= config.d:   # no closed d-manifold fits in d dimensions
        raise InsufficientDataError(
            f"the sample spans {reduced.reduced_dim} dimension(s); testing "
            f"for d = {config.d} needs at least {config.d + 1}")
    rcloud = reduced.cloud
    full_net = greedy_net(rcloud, tb / 2.0)
    rnet = full_net[:config.cylinder_cap]
    tangents = _net_tangents(rcloud, rnet, config.d, tb)

    # build and validate every packet; a packet that raised keeps its error
    staged = []   # (index, packet or error, packet failures once validated)
    base_packet: CylinderPacket | None = None
    for index in range(config.packet_budget):
        packet_failures = None
        try:
            if index == 0:   # its pairs serve its constants and its validation
                packet, pairs = _ideal_packet(rcloud, tangents, config.tau, config.cbar12,
                                              net=rnet)
                base_packet = packet
                validation = _validate_packet(packet, pairs)
            else:
                if base_packet is None:
                    raise NoValidPacketError("no base packet to perturb")
                rng = np.random.default_rng(_packet_seed(config.seed, index))
                packet = _perturb_packet(base_packet, rng)
                validation = validate_packet(packet)
            packet_failures = validation.failure_counts
        except ManifoldTestError as exc:
            packet = exc.with_traceback(None)   # a kept error holds no frame
        staged.append((index, packet, packet_failures))
    # one stacked mesh extraction for every packet that got through
    ready = {index: p for index, p, _ in staged if isinstance(p, CylinderPacket)}
    meshes: dict = {}
    if ready:
        try:
            found = extract_putative_manifold(
                list(ready.values()), [np.vstack([p.centers, rcloud.points])
                                       for p in ready.values()])
        except ManifoldTestError as exc:   # an error of the whole stack is every packet's
            found = [exc.with_traceback(None)] * len(ready)
        meshes = dict(zip(ready, found))
    # then the sections and the loss, packet by packet
    candidates: list[PacketCandidate] = []
    best: tuple[float, int] | None = None
    best_model: SectionModel | None = None
    for index, packet, packet_failures in staged:
        kind = "ideal" if index == 0 else "perturbed"
        seed_failures, mesh_newton = {}, {}   # set once the mesh exists
        try:
            mesh = meshes.get(index, packet)   # the packet's error when it has no mesh
            if isinstance(mesh, ManifoldTestError):   # raised fresh: no cycle through this frame
                raise type(mesh)(*mesh.args)
            kinds = Counter(text.split(":", 1)[0] for _, text in mesh.failures)
            seed_failures = dict(sorted(kinds.items()))
            mesh_newton = dict(mesh.newton)
            model = fit_sections(packet, mesh, config.eps_bar,
                                 budget=config.solver_budget)
            loss, tube, loss_newton = _packet_loss(model, reduced)
            table = model.section_table
            paths = Counter(p for labels in table.solver_paths for p in labels)
            stops = Counter(p for labels in table.projection_stops for p in labels)
            candidates.append(PacketCandidate(
                index=index, kind=kind, loss=loss, reason=None,
                packet_failures=packet_failures, mesh_size=mesh.size,
                empty_sections=int(table.empty.sum()),
                out_of_tube=sum(tube.values()), out_of_tube_causes=tube,
                seed_failures=seed_failures,
                section_paths=dict(sorted(paths.items())), mesh_newton=mesh_newton,
                projection_stops=dict(sorted(stops.items())), loss_newton=loss_newton))
            if best is None or (loss, index) < best:
                best = (loss, index)
                best_model = model
        except ManifoldTestError as exc:
            candidates.append(PacketCandidate(
                index=index, kind=kind, loss=math.inf,
                reason=f"{type(exc).__name__}: {exc}", packet_failures=packet_failures,
                seed_failures=seed_failures, mesh_newton=mesh_newton))
    best_loss = best[0] if best is not None else math.inf
    case = "one" if best_loss <= config.threshold else "two"
    estimate = budget_estimate(config, cloud.ambient_dim)
    certificate = {
        "case": case,
        "best_loss": best_loss if math.isfinite(best_loss) else None,
        "threshold": config.threshold,
        "best_candidate": best[1] if best is not None else None,
        "candidates": [
            {
                "index": c.index,
                "kind": c.kind,
                "loss": c.loss if math.isfinite(c.loss) else None,
                "reason": c.reason,
                "packet_conditions_ok": (None if c.packet_failures is None
                                         else not any(c.packet_failures.values())),
                "packet_failures": c.packet_failures,
                "mesh_size": c.mesh_size,
                "empty_sections": c.empty_sections,
                "out_of_tube": c.out_of_tube,
                "out_of_tube_causes": c.out_of_tube_causes,
                "seed_failures": c.seed_failures,
                "section_paths": c.section_paths,
                "mesh_newton": c.mesh_newton,
                "projection_stops": c.projection_stops,
                "loss_newton": c.loss_newton,
            }
            for c in candidates
        ],
        "reduced_dim": reduced.reduced_dim,
        "span_rank": reduced.span_rank,
        "net_size": len(rnet),
        "net_size_before_cap": len(full_net),
        "tau_bar": tb,
        "search": estimate.describe(config.packet_budget),
        "samples": cloud.size,
        "sample_complexity": _sample_complexity(config),
    }
    if best_model is not None and case == "one":
        certificate["cylinders"] = best_model.packet.size
        certificate["mesh_points"] = best_model.mesh.size
    return TestVerdict(case=case, best_loss=best_loss, threshold=config.threshold,
                       samples_used=cloud.size, candidates=tuple(candidates),
                       certificate=certificate, model=best_model,
                       reduction=reduced, config=config)


def best_section_model(verdict: TestVerdict) -> SectionModel:
    """The winning model of a verdict; raises when every packet failed."""
    if verdict.model is None:
        failures = tuple((c.index, c.reason or "loss above threshold")
                         for c in verdict.candidates)
        raise NoValidPacketError("no packet produced a model", failures=failures)
    return verdict.model


# ---- verification ----

@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Independent checks of a case-one verdict."""

    reach_ok: bool
    reach_value: float
    loss_ok: bool
    recomputed_loss: float
    reported_loss: float
    coefficients_ok: bool
    dense_points: int
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.reach_ok and self.loss_ok and self.coefficients_ok


def _dense_manifold_sample(model: SectionModel, per_axis: int = 5,
                           extent: float = 0.8, merge_fraction: float = 0.25
                           ) -> tuple[np.ndarray, list[AffineSubspace]]:
    """Graph points and analytic tangents sampled from every fitted section.

    Overlapping cylinders trace the same stretch of manifold with slightly
    different graphs; points closer than merge_fraction * tau_bar are
    dropped so near-duplicates cannot dominate a reach estimate. The merge
    visits points in generation order (section, then grid point), so a
    rigid motion of the model keeps the same points. Every non-empty
    section is evaluated at the grid in one Shepard blend over the model's
    section table, and the tangent frames are one stacked QR.
    """
    packet, table = model.packet, model.section_table
    d = packet.d
    tb = packet.tau_bar
    grid = _ball_grid(np.linspace(-extent, extent, per_axis), d, extent)
    g = grid.shape[0]
    ks = np.repeat(np.flatnonzero(~table.empty), g)   # (section, grid point) order
    u = np.tile(grid, (ks.size // g, 1))
    vals, jac = _shepard_blend(u[:, None, :] - table.sites[ks], table.coefficients[ks],
                               table.radius[ks], table.valid[ks])
    rotation = packet.rotations[ks]
    local = np.concatenate([tb * u, tb * vals], axis=1)
    pts = np.matmul(rotation, local[:, :, None])[:, :, 0] + packet.centers[ks]
    eye = np.broadcast_to(np.eye(d), (ks.size, d, d))
    frames = np.linalg.qr(np.matmul(rotation, np.concatenate([eye, jac], axis=1)))[0]
    kept = greedy_merge(pts, merge_fraction * tb)
    return pts[kept], AffineSubspace._checked_stack(pts[kept], frames[kept].transpose(0, 2, 1))


def verify_output(verdict: TestVerdict, cloud: PointCloud) -> VerificationReport:
    """Re-derive the case-one evidence from the verdict's model and config.

    Checks: the dense sample of the patched manifold has Federer reach at
    least C_REC * tau; the loss recomputes to within 10 percent (or eps) of
    the reported value; every jet block respects its coefficient bound.
    """
    if verdict.model is None:
        raise InvalidParameterError("the verdict carries no manifold model")
    config = verdict.config
    model = verdict.model
    flags: list[str] = []

    # Reach is certified at the resolution the construction controls: samples
    # closer than ~2 tau_bar probe sub-mesh blending wiggle, not the manifold.
    dense, tangents = _dense_manifold_sample(model, merge_fraction=2.0)
    dense_cloud = PointCloud.from_points(dense, require_unit_ball=False)
    reach = federer_reach(dense_cloud, dict(enumerate(tangents)))
    reach_floor = C_REC * config.tau
    reach_ok = reach.value >= reach_floor
    if not reach_ok:
        flags.append(f"reach {reach.value:.4g} below {reach_floor:.4g}")

    reduced = verdict.reduction
    loss = _packet_loss(model, reduced)[0]
    reported = verdict.best_loss
    loss_ok = abs(loss - reported) <= 0.1 * max(reported, config.eps)
    if not loss_ok:
        flags.append(f"loss recheck {loss:.4g} vs reported {reported:.4g}")

    bound = _coefficient_bound(model.packet)
    # one reduction over the padded table: its padding entries are zero
    coeff_ok = bool(np.all(np.linalg.norm(model.section_table.coefficients, axis=3)
                           <= bound + 1e-9))
    if not coeff_ok:
        flags.append("a jet block exceeds its coefficient bound")

    return VerificationReport(reach_ok=reach_ok, reach_value=reach.value,
                              loss_ok=loss_ok, recomputed_loss=loss,
                              reported_loss=reported, coefficients_ok=coeff_ok,
                              dense_points=dense.shape[0], flags=tuple(flags))


# ---- search budget ----

@dataclass(frozen=True)
class BudgetEstimate:
    """Size of the admissible packet search space, as a power of two."""

    log2_count: float

    def describe(self, searched: int) -> str:
        return f"searched {searched} of ~2^{self.log2_count:.1f} admissible packets"


def budget_estimate(config: TestConfig, n: int) -> BudgetEstimate:
    """Exponential packet-count estimate exp((V / tau^d) n ln(1/tau))."""
    if n < 1:
        raise InvalidParameterError("ambient dimension must be at least 1")
    exponent = (config.V / config.tau ** config.d) * n * math.log(1.0 / config.tau)
    return BudgetEstimate(log2_count=exponent / math.log(2.0))
