"""Exception hierarchy shared across the toolkit."""


class VH2KGError(Exception):
    """Base class for all domain errors."""


# --- script parsing ---

class MalformedStep(VH2KGError):
    def __init__(self, line_no, text, detail=""):
        self.line_no = line_no
        self.text = text
        super().__init__(f"line {line_no}: malformed step {text!r}" + (f" ({detail})" if detail else ""))


class MissingHeader(VH2KGError):
    pass


# --- environment loading ---

class DuplicateId(VH2KGError):
    pass


class DanglingEdge(VH2KGError):
    pass


class MalformedEnvironment(VH2KGError):
    """An environment node without an integer id or a class name, a bbox
    that is not 3 finite numbers per vector, or an edge with a missing id
    or an unknown relation."""


class NoAgent(VH2KGError):
    pass


class Orphan(VH2KGError):
    pass


class ScoreOutOfRange(VH2KGError):
    pass


class MalformedAffordances(VH2KGError):
    """An affordance CSV row without a verb, or with a non-numeric score."""


class InvalidName(VH2KGError):
    """A name that would be spliced into an IRI has characters outside
    [A-Za-z0-9_]."""


# --- simulation ---

class Unexecutable(VH2KGError):
    def __init__(self, report):
        self.report = report
        super().__init__(
            f"script not executable at step {report.failing_step_index}: {report.reason}"
        )


# --- kg synthesis ---

class InvalidTrace(VH2KGError):
    pass


class NTriplesSyntaxError(VH2KGError):
    pass


# --- risk rules ---

class MissingGeometry(VH2KGError):
    pass


# --- pipeline ---

class MissingSetting(VH2KGError):
    """A pipeline input that is neither passed in nor named by the config."""


class BadConfig(VH2KGError, ValueError):
    """A setting out of its range, or a pipeline config file that is not
    JSON, names an unknown key, or holds a value its section rejects."""


# --- embeddings / clustering ---

class NoRoots(VH2KGError):
    pass


class EmptyCorpus(VH2KGError):
    pass


class IndexOutOfRange(VH2KGError):
    pass


class TooFewPoints(VH2KGError):
    pass


class UnknownToken(VH2KGError):
    pass


class MalformedVectors(VH2KGError):
    pass


class MalformedWalks(VH2KGError):
    """A walks.txt token with an unknown escape."""


# --- analytics ---

class MissingDurations(VH2KGError):
    pass


class EventNotInCorpus(VH2KGError):
    pass
