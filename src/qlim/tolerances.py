"""Every numeric threshold of `immersion`, `tracer`, `layout` and `mesh`.

Scaling a whole map changes none of the conditions of a quad layout
immersion, so no verdict or layout may change with it either.  A UV
length is therefore a fraction of the map's `SeamlessParam.uv_scale()`
(its UV bounding-box diagonal): each call site multiplies by it, with no
floor.  Angles, edge and barycentric parameters and distances from the
integer grid carry no length and are used as they are.
"""

# -- UV lengths: multiply by param.uv_scale() --------------------------------
REL_TOL = 1e-7  # Q2 chart mismatch, Q3 seam fit and Q4 boundary spread
WELD_TOL = 1e-9  # layout points (or a point and a mesh edge) this close coincide
SEGMENT_MIN = 1e-12  # a traced piece shorter than this carries no layout arc
PERIOD_QUANT = 1e-9  # quantum of the held value in a periodicity signature
VERTEX_SNAP = 1e-12  # a face exit this close to a corner is at that vertex
PARALLEL_TOL = 1e-12  # an edge spanning less of the held axis is parallel to the ray
TRAVEL_MIN = 1e-14  # a face exit no further along the ray is where it entered
ZERO_AREA = 1e-16  # per uv_scale()**2: a corner cross product no larger has no area

# -- angles, in radians ------------------------------------------------------
ANGLE_TOL = 1e-6  # Q1 copy angles against 2*pi
CONE_DETECT_TOL = 1e-2  # a vertex angle this close to regular is no cone
GB_TOL = 1e-9  # Gauss-Bonnet residual
ANGLE_EPS = 1e-3  # straight pass-through versus patch corner
DIRECTION_TOL = 1e-9  # arc ends this close in angle at a node coincide

# -- dimensionless: edge and barycentric parameters, sines ---------------------
PARAM_TOL = 1e-12  # slack of an edge or barycentric parameter at 0 and 1
BARY_SUM_TOL = 1e-9  # barycentric coordinates must sum to 1 within this
COLLINEAR_TOL = 1e-12  # sine of the angle below which two directions are parallel
KEY_DECIMALS = 9  # decimals of an edge parameter or UV / uv_scale() in a quotient key

# -- distances from the integer grid, in grid steps ----------------------------
GRID_TOL = 1e-6  # a cone image or seam translation this close is on the grid
ISOLINE_SLACK = 1e-9  # an isoline this close past a face's UV extent still cuts it

# -- 3D ----------------------------------------------------------------------
DEGENERACY_FACTOR = 1e-12  # a face under this times bbox diagonal**2 is degenerate
