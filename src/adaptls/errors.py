"""Exception hierarchy shared by all adaptls modules."""


class AdaptlsError(Exception):
    """Base class for all errors raised by this package."""


class NotFound(AdaptlsError):
    """A required dataset file or directory does not exist."""


class ParseError(AdaptlsError):
    """An input file is malformed; the message names the file (and the line)."""


class DateError(AdaptlsError):
    """A date string is not a valid ISO-8601 calendar date."""


class EmptyCorpus(AdaptlsError):
    """A topic has no sentences (or no articles) where some are required."""


class EmptyDataset(AdaptlsError):
    """A dataset has no usable topics."""


class EmptyInput(AdaptlsError):
    """An operation received an empty sequence it cannot work on."""


class EmptyTimeline(AdaptlsError):
    """A timeline has no entries where at least one is required."""


class EmptyReference(AdaptlsError):
    """A reference timeline is empty."""


class SingularSystem(AdaptlsError):
    """The (regularized) normal-equation matrix is not invertible."""


class InsufficientTopics(AdaptlsError):
    """Leave-one-topic-out training needs at least two topics."""


class MissingPrediction(AdaptlsError):
    """A (topic, reference) pair has no generated timeline to evaluate."""


class UnknownTopic(AdaptlsError):
    """A topic name is not present in the dataset."""


class NameClash(AdaptlsError):
    """Two topics, or two outputs, of a dataset would be written to one file name."""


class NonFiniteScore(AdaptlsError):
    """A regressor gives a date an infinite or NaN score."""
