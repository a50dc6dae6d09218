"""Two-scale simulation toolkit for glued woven textiles.

The package homogenizes a periodic plain-woven plate of square-section
elastic yarns into an effective orthotropic von Karman plate and then
drives that plate: linear response, pre-strain loading, and buckling under
uniaxial compression with analytically bracketed critical strains.
"""

from .buckling import (
    CompressionCase,
    analytic_thresholds,
    find_critical_1d,
    lift_displacement,
    reduced_1d_solve,
    sweep_buckling_2d,
    test_mode_energy,
)
from .elasticity import (
    BodyForceLoad,
    ConstraintMap,
    EigenstrainLoad,
    ElasticTensor,
    assemble,
    quadratic_form,
    solve,
    strain_and_stress,
)
from .errors import (
    ConfigError,
    GeometryError,
    ParameterError,
    RefinementError,
    SolverError,
)
from .geometry import (
    CellMesh,
    WeaveParams,
    build_cell_mesh,
    build_solid_cell_mesh,
    build_textile_mesh,
    check_cell_mesh,
    middle_line,
    profile,
    yarn_map,
)
from .homogenize import (
    CorrectorSet,
    PlateTensors,
    check_orthotropy,
    compute_plate_tensors,
    corrector_symmetry_report,
    prestress_corrector,
    solve_cell_problems,
    solve_prestress,
)
from .plate import (
    Compression,
    Free,
    GammaClamped,
    LoadSpec,
    PlateMesh,
    PlateState,
    assemble_linear,
    minimize_vk,
    solve_linear,
    vk_energy,
    vk_gradient,
    vk_hessian,
)
from .vtk_io import export_vtk, read_vtk

__version__ = "0.1.0"
