"""Exception hierarchy for the whole package.

Every error raised on purpose derives from :class:`SteinerEccError`, so
callers (notably the CLI) can map failure classes to exit codes without
enumerating individual exceptions. A bare ``ValueError`` or any other
built-in exception is a bug, never bad input. The errors for an argument
outside a function's domain also derive from ``ValueError``, so callers
that catch ``ValueError`` for them keep working.
"""

from __future__ import annotations


class SteinerEccError(Exception):
    """Base class for all package errors."""


# -- tree construction and codecs -------------------------------------------

class TreeBuildError(SteinerEccError):
    """Input does not describe a valid tree."""


class NotConnected(TreeBuildError):
    """Edge set does not connect all vertices."""


class HasCycle(TreeBuildError):
    """Edge set contains a cycle (or a self-loop / duplicate edge)."""


class BadVertexIds(TreeBuildError):
    """Vertex ids are not dense nonnegative integers 0..n-1."""


class BadCode(TreeBuildError):
    """Pruefer code entry out of range."""


class BadAdjacency(TreeBuildError, ValueError):
    """Adjacency lists are unsorted or not symmetric."""


class InvalidPath(SteinerEccError, ValueError):
    """A vertex sequence is not a simple path of the tree."""


class ParseError(SteinerEccError):
    """A text input file could not be parsed.

    Carries the 1-based line number and the offending line.
    """

    def __init__(self, line_no: int, line: str, reason: str):
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}: {line!r}")


# -- metric preconditions ----------------------------------------------------

class TooSmall(SteinerEccError):
    """Tree order below the operation's minimum."""


class BadK(SteinerEccError):
    """Subset size k outside 2..n."""


class EmptySet(SteinerEccError):
    """Steiner distance of an empty vertex set is undefined."""


class CapExceeded(SteinerEccError):
    """Requested order exceeds the configured enumeration / brute-force cap."""


class BadCensusArgument(SteinerEccError, ValueError):
    """Census order below 1, or an unknown check id or group key."""


# -- transformations ---------------------------------------------------------

class InvalidSite(SteinerEccError):
    """A transformation site does not satisfy its preconditions on this tree."""


class NotGeneralizedStar(SteinerEccError):
    """Operation requires a tree with at most one branch vertex."""


class AlreadyBalanced(SteinerEccError):
    """Leg lengths already differ by at most one."""


# -- extremal constructions and sequence comparisons -------------------------

class InfeasibleSequence(SteinerEccError):
    """Sequence is not the degree sequence of any tree (or lacks an internal vertex)."""


class Infeasible(SteinerEccError):
    """Family parameters violate the feasibility constraints."""


class LengthMismatch(SteinerEccError):
    """Majorization compares sequences of equal length only."""


class SumMismatch(SteinerEccError):
    """Majorization compares sequences of equal total only."""


class Incomparable(SteinerEccError):
    """Neither sequence majorizes the other."""


class UnsortedSequence(SteinerEccError, ValueError):
    """A sequence that must be non-increasing is not."""
