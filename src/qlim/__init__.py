"""Seamless parameterization validation and quad layout extraction."""

from .cutgraph import (
    CompletionMesh,
    CutGraph,
    build_cutting_graph,
    cut_mesh,
    validate_cutting_graph,
)
from .errors import QlimError
from .immersion import (
    ConeRecord,
    SeamlessParam,
    SeamTransition,
    ValidationReport,
    apply_global_motion,
    check_gauss_bonnet,
    detect_cones,
    validate_immersion,
)
from .layout import (
    Layout,
    extract_layout,
    layout_oracle_bruteforce,
    verify_coarsening,
)
from .mesh import (
    SurfacePoint,
    TopologyInfo,
    TriMesh,
    build_halfedge,
    topology_info,
)
from .qlimio import read_obj, read_qlim, write_qlim
from .svg import export_svg
from .synth import fixture, fixture_complex, perturb
from .tracer import (
    QuotientCurve,
    cone_rays,
    trace_cone_separatrix,
    trace_coordinate_line,
    trace_quotient_curve,
    validate_q5,
)

__all__ = [
    "CompletionMesh",
    "ConeRecord",
    "CutGraph",
    "Layout",
    "QlimError",
    "QuotientCurve",
    "SeamTransition",
    "SeamlessParam",
    "SurfacePoint",
    "TopologyInfo",
    "TriMesh",
    "ValidationReport",
    "apply_global_motion",
    "build_cutting_graph",
    "build_halfedge",
    "check_gauss_bonnet",
    "cone_rays",
    "cut_mesh",
    "detect_cones",
    "export_svg",
    "extract_layout",
    "fixture",
    "fixture_complex",
    "layout_oracle_bruteforce",
    "perturb",
    "read_obj",
    "read_qlim",
    "topology_info",
    "trace_cone_separatrix",
    "trace_coordinate_line",
    "trace_quotient_curve",
    "validate_cutting_graph",
    "validate_immersion",
    "validate_q5",
    "verify_coarsening",
    "write_qlim",
]

__version__ = "0.1.0"
