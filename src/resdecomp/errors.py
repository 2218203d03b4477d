"""Exception types shared across the package."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph and the input is not."""


class InfiniteResistanceError(ValueError):
    """Raised when a resistance is requested between vertices in different components."""


class DegeneratePotentialError(ValueError):
    """Raised when a potential vector is constant, so no nontrivial level set exists."""


class ConvergenceError(RuntimeError):
    """Iterative solve exhausted its iteration budget before reaching tolerance.

    Carries the last residual 2-norm in ``residual`` and, in
    ``attained_zeta``, the energy-norm tolerance that residual certifies:
    sqrt(E·λmax)/‖b‖, with E the residual's spanning-tree flow energy and
    λmax = 2·max deg.
    """

    def __init__(self, message: str, residual: float, attained_zeta: float):
        super().__init__(message)
        self.residual = residual
        self.attained_zeta = attained_zeta
