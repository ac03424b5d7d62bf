"""Exception types shared across the package.

Everything raised on bad user input or bad data derives from TtrnnError,
so the CLI can map the whole family to exit code 2.
"""


class TtrnnError(Exception):
    pass


class ShapeMismatch(TtrnnError):
    pass


class InvalidRank(TtrnnError):
    pass


class NotScalar(TtrnnError):
    pass


class NotRecorded(TtrnnError):
    """backward was given a loss that no record on its tape produced."""


class LabelOutOfRange(TtrnnError):
    pass


class UnknownEmotion(TtrnnError):
    pass


class MissingPrediction(TtrnnError):
    def __init__(self, ids):
        self.ids = list(ids)
        super().__init__("no sentiment prediction for ids: %s" % ", ".join(self.ids))


class EmptyAfterEncoding(TtrnnError):
    pass


class ParseError(TtrnnError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class DuplicateId(TtrnnError):
    pass


class ClassTooSmall(TtrnnError):
    pass


class EmptyTestSet(TtrnnError):
    pass


class EmptySequence(TtrnnError):
    pass


class CorpusMismatch(TtrnnError):
    """The examples given are not the corpus a model was trained on."""


class NonFiniteTraining(TtrnnError):
    """A batch's loss, gradient or an intermediate value left the finite range."""


class FormatVersionMismatch(TtrnnError):
    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            "model file has format version %s, this build supports version %s"
            % (found, supported)
        )


class ChecksumMismatch(TtrnnError):
    pass
