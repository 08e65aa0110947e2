"""Exception types shared across the package."""


class GestureRecError(Exception):
    """Base class for all gestrec-specific errors."""


class DataError(GestureRecError):
    """Raised for ingestion problems: missing files, malformed rows,
    too-short samples, duplicate identities, non-finite values.

    Messages carry ``path:line:`` context where applicable.
    """

    def __init__(self, message: str, path=None, line=None):
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
            message = prefix + message
        super().__init__(message)
        self.path = path
        self.line = line


class ModelFileError(GestureRecError):
    """Raised when a model file is missing, truncated or not in the
    expected format."""


class VersionMismatchError(GestureRecError):
    """Raised when a model's feature-order version does not match the
    version expected by the caller."""


class SingularSystemError(GestureRecError):
    """Raised when the ridge normal equations are singular (alpha = 0 on
    rank-deficient data)."""


class NumericError(GestureRecError):
    """Raised when a numeric sanity check fails during fitting or
    evaluation (e.g. a non-decreasing training loss)."""


class NonFiniteFeatureError(GestureRecError):
    """Raised when a feature vector given to ``predict`` holds nan or inf.

    ``row`` is the index of the first bad vector in a batch (0 for a
    single vector) and ``feature`` the index of its first bad value.
    """

    def __init__(self, row: int, feature: int, value: float, single: bool):
        where = f"feature {feature}" if single else f"row {row}, feature {feature}"
        super().__init__(f"non-finite feature value at {where}: {value!r}")
        self.row = row
        self.feature = feature
