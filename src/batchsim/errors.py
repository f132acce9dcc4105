"""The errors a command reports: one class per CLI exit code, and how to name a bad key.

ValidationError is exit code 2 (bad input, nothing mutated) and SimulationError exit
code 3 (the run itself failed). The message is all the CLI prints, after `error: ` or
`simulation error: `, so callers and tests tell failures apart by their text.
"""


class ValidationError(Exception):
    pass


class SimulationError(Exception):
    pass


class SchemaError(ValidationError):
    """A bad key of a configuration or state document: `<path>: key '<key>': <message>`."""

    def __init__(self, path, key, message=""):
        detail = f"{path}: key {key!r}"
        if message:
            detail += f": {message}"
        super().__init__(detail)
        self.path = path
        self.key = key
