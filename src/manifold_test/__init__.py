"""Desk-scale manifold hypothesis testing.

Decide whether a weighted sample in the unit ball lies near a manifold of
bounded dimension, volume and reach: build cylinder packets over a greedy
net, extract a putative manifold from an approximate squared-distance field,
fit jet-constrained graph sections, and compare the patched manifold's
empirical loss against the decision threshold.
"""

import importlib

from .errors import (
    BudgetExceededError,
    DecompositionFailedError,
    DegenerateCoverError,
    DegenerateNeighborhoodError,
    DuplicateSiteError,
    EmptyInputError,
    EmptyMeshError,
    EscapedDomainError,
    InfeasibleModelError,
    InfeasibleSectionError,
    InsufficientDataError,
    InsufficientGapError,
    InvalidParameterError,
    ManifoldTestError,
    NoConvergenceError,
    NoValidPacketError,
    OutOfDomainError,
    OutOfTubeError,
    PlaneOutsideBallError,
    SiteMismatchError,
    UncoveredPointError,
    UnderdeterminedTangentError,
)
from .core_geometry import (
    AffineSubspace,
    PointCloud,
    ReachEstimate,
    dist_to_affine,
    estimate_tangent,
    federer_reach,
    frame_from_tangent,
    greedy_net,
    hausdorff_distance,
    load_csv,
    load_mnfd,
    orthonormal_completion,
    save_csv,
    save_mnfd,
)
from .complexity_bounds import (
    BoundParams,
    FatProfile,
    chaining_bound,
    covering_bound,
    empirical_rademacher,
    fat_bound_maxmin,
    jl_project,
    lift_identity_check,
    lift_plane,
    lift_point,
    rademacher_exact,
    sample_complexity,
    sauer_shelah,
)
from .asdf_bundle import (
    BundleChart,
    Cylinder,
    CylinderPacket,
    FiberDecomposition,
    PacketValidation,
    PutativeMesh,
    asdf_eval,
    asdf_grad_hess,
    bump_profile,
    bundle_coordinates,
    check_asdf_conditions,
    extract_putative_manifold,
    ideal_packet,
    load_mesh,
    packet_from_json,
    packet_to_json,
    pi_hi,
    save_mesh,
    solve_base_point,
    validate_packet,
)
from .whitney_sections import (
    ConstraintSet,
    LocalSection,
    SectionModel,
    SketchedData,
    build_constraints,
    fit_local_section,
    fit_sections,
    global_section,
    mfin_distance,
    minimize_section,
    partition_weights,
    section_objective,
    separation_oracle,
    sketch,
)
from .pipeline import (
    BudgetEstimate,
    PacketCandidate,
    ReducedCloud,
    TestConfig,
    TestVerdict,
    VerificationReport,
    best_section_model,
    budget_estimate,
    generate_synthetic,
    reduce_dimension,
    run_test,
    verify_output,
)

__version__ = "0.1.0"

# kplanes' exports, loaded on first use: a decision never needs them
_KPLANES = ("DeviationReport", "KPlanesModel", "deviation_experiment", "fit_kplanes",
            "kplanes_loss", "model_from_json", "model_to_json")


def __getattr__(name: str):
    if name == "kplanes" or name in _KPLANES:
        kplanes = importlib.import_module(".kplanes", __name__)
        return kplanes if name == "kplanes" else getattr(kplanes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:   # as if kplanes were imported with the rest
    return sorted(set(globals()) - {"importlib", "_KPLANES", "__getattr__", "__dir__"}
                  | {"kplanes", *_KPLANES})
