"""Exception types shared across the package."""


class FedmimError(Exception):
    """Base class for all package errors."""


class NonDivisible(FedmimError):
    """Patch dimensions do not tile the image."""


class MalformedFile(FedmimError):
    """A file on disk is not in the expected format."""


class InvalidGeometry(FedmimError):
    """Scan geometry violates its invariants."""


class InvalidKernel(FedmimError):
    """Kernel parameters are out of range."""


class InvalidRatio(FedmimError):
    """Mask ratio outside (0, 1)."""


class EmptyVisibleSet(FedmimError):
    """The forward pass needs at least one visible patch."""


class ShapeMismatch(FedmimError):
    """Vector or matrix shapes do not line up."""


class BadLabel(FedmimError):
    """Class label outside the configured range."""


class OneClassOnly(FedmimError):
    """AUROC needs at least one positive and one negative."""


class EmptySet(FedmimError):
    """Point set is empty where a non-empty one is required."""


class LengthMismatch(FedmimError):
    """Paired sequences differ in length."""


class DegenerateMask(FedmimError):
    """Mask too small to define the requested geometry."""


class TooFewSamples(FedmimError):
    """Not enough samples for the requested statistic or split."""


class DegenerateVariance(FedmimError):
    """Both samples have zero variance."""


class ChecksumMismatch(FedmimError):
    """Checkpoint payload does not match its manifest checksum."""


class NonFiniteLoss(FedmimError):
    """The global loss of a training run became NaN or infinite."""


class ConfigMismatch(FedmimError):
    """Checkpoint payload is inconsistent with its manifest config."""


class LesionOutOfBounds(FedmimError):
    """Lesion does not fit inside the phantom image."""
