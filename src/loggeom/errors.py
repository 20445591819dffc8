"""The two ways a computation declines to answer (CLI exit status 2).

Every module may raise these, so they live below all of them.
"""


class IncompleteComputation(Exception):
    """A computation reached a stated bound before it could certify its output."""


class Undetermined(Exception):
    """The question is not decided by the implemented procedures."""
