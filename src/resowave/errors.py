"""Exception types shared across the package."""


class ResowaveError(Exception):
    pass


class ResonanceError(ResowaveError):
    """A spectral denominator omega^2 l^2 - j^2 (or l^2 - j^2) is too close to zero.

    Names the mode (l, j) and its denominator value.  Without a mode, the
    frequency context at omega is resonant as a whole (gamma = 0), and l, j
    and value are None.
    """

    def __init__(self, l=None, j=None, value=None, omega=None):
        if l is None:
            self.l = self.j = self.value = None
            super().__init__(
                f"the frequency context at omega = {omega} is resonant (gamma = 0)"
            )
            return
        self.l = int(l)
        self.j = int(j)
        self.value = float(value)
        super().__init__(
            f"near-resonant denominator at mode (l={self.l}, j={self.j}): {self.value:.3e}"
        )


class ConvergenceError(ResowaveError):
    """An iteration failed to converge; carries whatever trace the caller attached."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class ClassificationError(ResowaveError):
    """The nonlinearity cannot be classified (e.g. no nonzero Taylor coefficient)."""


class ConfigError(ResowaveError):
    """Invalid or unknown configuration input (CLI exit code 2)."""
