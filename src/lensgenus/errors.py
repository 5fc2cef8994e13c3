"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Verdicts report two routes that disagree at a point on their fields;
    this is raised where no verdict carries the failure (assembled surface
    data vs its known total, a single CLI command whose routes disagreed).
    It always indicates a bug in the library, never bad user input.
    """


class DomainError(ValueError):
    """Parameters lie outside the family a constructor or piece admits.

    Raised by the constructors and piece builders whose hypotheses define
    which grid points a sweep evaluates, so a sweep skips exactly these
    points.  Any other ``ValueError`` is a failed check, never a skip.
    """
