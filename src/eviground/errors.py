"""Exception types shared across the package."""


class EvigroundError(Exception):
    """Base class for all package errors."""


class ValidationError(EvigroundError):
    """A config or argument failed validation."""


class DimMismatchError(ValidationError):
    """Operands have incompatible shapes."""


class ZeroNormError(ValidationError):
    """A pooled text vector has (near-)zero norm, so it has no direction."""


class IndexOutOfRangeError(ValidationError):
    """A target index is outside its step's vocabulary."""


class EmptyTextError(ValidationError):
    """No tokens survived tokenization."""


class EmptyEvidenceError(ValidationError):
    """A grounding query was given zero candidate evidences."""


class NoPositiveError(ValidationError):
    """A contrastive anchor has an empty positive set."""


class EmptyDatasetError(ValidationError):
    """A training routine received no samples."""


class UntrainedTeacherError(ValidationError):
    """Distillation was started before the teacher was trained."""


class InsufficientLabelsError(ValidationError):
    """A label fraction leaves too few labeled samples to train on."""


class EmptyGoldError(ValidationError):
    """A retrieval metric was queried with an empty gold set."""


class MissingCheckpointError(EvigroundError):
    """A referenced checkpoint directory or file does not exist."""
