"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Verdicts report two routes that disagree at a point on their fields;
    this is raised where no verdict carries the failure (assembled surface
    data vs its known total, a single CLI command whose routes disagreed).
    It always indicates a bug in the library, never bad user input.  Like
    every exception other than ``DomainError``, the CLI exits 3 on it; it is
    the one whose message is printed without its type name.
    """


class DomainError(ValueError):
    """The input is refused: parameters outside the family a constructor
    admits, or a CLI argument that cannot be used.

    It is the one exception that means bad input, and it has two readers.
    ``cli.main`` reports it as invalid input (exit 1).  A sweep skips a grid
    point on it, since the constructors that raise it define which points a
    sweep evaluates.  Any other exception, a plain ``ValueError`` included,
    is a failed check: ``main`` exits 3 on it and a sweep stops.
    """
