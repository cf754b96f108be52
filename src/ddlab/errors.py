"""Exception types shared across the package."""


class DdlabError(Exception):
    """Base class for all package errors."""


class DomainOverlapError(DdlabError):
    """Product of assignment sets with intersecting universes."""


class UniformityError(DdlabError):
    """Operation requires a uniform assignment set."""


class ScopeError(DdlabError):
    """A variable lies outside the universe an operation requires."""


class ScaleError(DdlabError):
    """A brute-force cap was exceeded."""


class PreconditionError(DdlabError):
    """A documented operation precondition does not hold."""


class EssentialityError(PreconditionError):
    """A restricted function has an inessential variable."""

    def __init__(self, variable):
        super().__init__(f"variable {variable!r} is not essential in the restricted function")
        self.variable = variable


class SoundnessError(DdlabError):
    """An assertion that is a theorem for valid inputs failed; the input is invalid."""


class FormatError(DdlabError):
    """Malformed file or serialized object."""


class DiagramInvariantError(DdlabError):
    """A diagram violates a structural invariant.

    ``rule`` names the invariant; ``where`` cites the offending node id or path.
    """

    def __init__(self, rule, where, message):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.where = where


class DecompositionError(DdlabError):
    """A tree decomposition violates containment or connectivity.

    ``rule`` is ``containment`` or ``connectivity`` (or ``tree`` for a broken
    tree); ``where`` is the offending edge, vertex, or bag.
    """

    def __init__(self, rule, where, message):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.where = where


# What a command or a bundle step exits 2 on, as malformed input; a missing
# argument is a FormatError, a wrongly typed one (``"n": null``) a TypeError
MALFORMED = (FormatError, ScopeError, ValueError, OSError, TypeError)
