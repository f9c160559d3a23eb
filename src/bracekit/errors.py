"""Exception types.

InputError covers malformed or inconsistent user input (bad shapes, degree
mismatches, unknown names).  ResourceLimitError covers the enumeration
limit: the request was well formed, but it would enumerate permutations or
unshuffles of more than graded.ENUMERATION_CAP elements.  WorkspaceError is
an InputError raised while reading a workspace file, carrying enough context
to name the offending entry.
"""


class BracekitError(Exception):
    pass


class InputError(BracekitError, ValueError):
    pass


class ResourceLimitError(BracekitError, RuntimeError):
    pass


class WorkspaceError(InputError):
    pass
