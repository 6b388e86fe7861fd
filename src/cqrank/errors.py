"""Exception types shared across the library."""


class CqError(Exception):
    """Base class for all cqrank errors."""


# --- query / order / data loading ---

class QuerySyntaxError(CqError):
    """Malformed query or order text."""

    def __init__(self, message, pos, expected=None):
        detail = f"{message} at position {pos}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.pos = pos
        self.expected = expected


class UnboundHeadVariable(CqError):
    def __init__(self, var):
        super().__init__(f"head variable {var!r} does not appear in any atom")
        self.var = var


class DuplicateHeadVariable(CqError):
    def __init__(self, var):
        super().__init__(f"head variable {var!r} repeated")
        self.var = var


class UnknownVariable(CqError):
    def __init__(self, var):
        super().__init__(f"variable {var!r} does not appear in the query")
        self.var = var


class NonFreeVariable(CqError):
    def __init__(self, var):
        super().__init__(f"variable {var!r} is not a head variable")
        self.var = var


class DuplicateVariable(CqError):
    def __init__(self, var):
        super().__init__(f"variable {var!r} repeated in order")
        self.var = var


class RaggedRow(CqError):
    def __init__(self, line, got, want):
        super().__init__(f"line {line}: row has {got} cells, header has {want}")
        self.line = line


class InvalidCell(CqError):
    def __init__(self, relation, cell):
        super().__init__(f"relation {relation!r}: {type(cell).__name__} cell {cell!r} is not int/str")
        self.relation, self.cell = relation, cell


class IntegerTooLong(CqError):
    def __init__(self, path, line):
        super().__init__(f"{path}: line {line}: integer has more digits than int() converts")
        self.path, self.line = path, line


class EmptyHeader(CqError):
    def __init__(self, path):
        super().__init__(f"{path}: empty or blank header row")


class MissingRelation(CqError):
    def __init__(self, name):
        super().__init__(f"relation {name!r} not present in the instance")
        self.name = name


class ArityMismatch(CqError):
    def __init__(self, name, got, expected):
        super().__init__(f"arity mismatch for {name!r}: got {got}, expected {expected}")
        self.name = name


class NonNumericWeightColumn(CqError):
    def __init__(self, var, relation):
        super().__init__(
            f"weight variable {var!r} is bound to non-integer values in relation {relation!r}"
        )
        self.var = var
        self.relation = relation


# --- engines ---

class NotRouted(CqError):
    """The analyzer did not route this (query, order) pair to the requested engine."""

    def __init__(self, mode, reasons=()):
        super().__init__(f"{mode} not available: {', '.join(reasons) or 'see analyzer report'}")
        self.mode = mode
        self.reasons = tuple(reasons)


class OutOfRange(CqError):
    def __init__(self, k, count):
        super().__init__(f"position {k} outside [0, {count})")
        self.k = k
        self.count = count


# --- baselines ---

class ResultTooLarge(CqError):
    def __init__(self, cap):
        super().__init__(f"answer count exceeds the configured cap ({cap})")
        self.cap = cap


class NotApplicable(CqError):
    """Strategy preconditions (query shape / order shape) not met."""


class MultiplePositionsWithOffsetDialect(CqError):
    def __init__(self):
        super().__init__("OFFSET/LIMIT emits exactly one position; use the CTE dialect")


# --- command line ---

class InvalidPositions(CqError):
    def __init__(self, text, want="comma-separated integers"):
        super().__init__(f"positions must be {want}, got {text!r}")
        self.text = text


# --- bench ---

class ConfigError(CqError):
    """Malformed benchmark configuration."""
