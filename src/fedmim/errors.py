"""Exception types shared across the package. An error's class is its CLI
outcome (cli.main): NonFiniteLoss exits 4, any other FedmimError exits 2."""


class FedmimError(Exception):
    """Invalid input, configuration or file contents; the message says which."""


class NonFiniteLoss(FedmimError):
    """The global loss of a training run became NaN or infinite."""
