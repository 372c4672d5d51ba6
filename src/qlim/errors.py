"""Exception types shared across the package."""


class QlimError(Exception):
    """Base class for all library errors."""


# --- mesh construction ---

class NonManifoldEdge(QlimError):
    pass


class InconsistentOrientation(QlimError):
    pass


class DegenerateFace(QlimError):
    pass


class DisconnectedMesh(QlimError):
    pass


class OddGenusResidue(QlimError):
    pass


# --- cut graphs ---

class SingularityOnBoundary(QlimError):
    pass


# --- immersion validation ---

class ZeroAreaFace(QlimError):
    pass


class NonQuantizedCone(QlimError):
    pass


# --- tracing ---

class StartOnSingularity(QlimError):
    pass


class PropertyViolation(QlimError):
    pass


# --- layout extraction ---

class NonQuadPatch(QlimError):
    pass


class ArrangementDegeneracy(QlimError):
    pass


class NotGridAligned(QlimError):
    pass


# --- file formats ---

class ParseError(QlimError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class SeamTwinMismatch(QlimError):
    pass


class VersionUnsupported(QlimError):
    pass
