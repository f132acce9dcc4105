"""The errors a command reports: one class per CLI exit code.

ValidationError is exit code 2 (bad input, nothing mutated) and SimulationError exit
code 3 (the run itself failed). The message is all the CLI prints, after `error: ` or
`simulation error: `, so callers and tests tell failures apart by their text.
"""


class ValidationError(Exception):
    pass


class SimulationError(Exception):
    pass
