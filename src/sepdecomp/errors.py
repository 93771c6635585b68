"""Exception types shared across the package."""


class SepDecompError(Exception):
    """Base class for all package errors."""


class SelfLoopError(SepDecompError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"self-loop edge {edge}")


class DuplicateEdgeError(SepDecompError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"duplicate edge {edge}")


class VertexOutOfRangeError(SepDecompError):
    def __init__(self, vertex, n):
        self.vertex = vertex
        self.n = n
        super().__init__(f"vertex {vertex} out of range for n={n}")


class InvalidSeparationError(SepDecompError):
    pass


class NotSeparatedError(SepDecompError):
    pass


class SizeLimitExceededError(SepDecompError):
    def __init__(self, n, limit, what):
        self.n = n
        self.limit = limit
        super().__init__(f"{what}: n={n} exceeds exact limit {limit}")


class EmptyWError(SepDecompError):
    pass


class WidthOutOfRangeError(SepDecompError):
    pass


class InvalidInputError(SepDecompError):
    pass


class InvalidDecompositionError(SepDecompError):
    pass


class OracleFailureError(SepDecompError):
    """The balanced-separation oracle could not supply a qualifying separation.

    ``witness`` is the vertex set of the subgraph the oracle was handed, in
    the ids of the graph passed to the public function that raised the error
    (``construct``'s G, or ``separation_tree``'s G).  ``certified`` is the
    oracle's own flag when it returned no separation: with an exact oracle
    it certifies that the subgraph has no balanced separation of the
    requested order.  An answer that is not a balanced separation of that
    order is never certified.
    """

    def __init__(self, witness, certified):
        self.witness = frozenset(witness)
        self.certified = certified
        kind = "certified" if certified else "not certified"
        super().__init__(
            f"no balanced separation of requested order on {len(self.witness)} "
            f"vertices ({kind})"
        )


class RecursionGuardError(SepDecompError):
    pass


class WBalancedUnavailableError(SepDecompError):
    def __init__(self, w_set, order_bound):
        self.w_set = frozenset(w_set)
        self.order_bound = order_bound
        super().__init__(
            f"no W-balanced separation of order <= {order_bound} for "
            f"W={sorted(self.w_set)}"
        )


class ParseError(SepDecompError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionFailedError(SepDecompError):
    pass


class PostconditionFailedError(SepDecompError):
    """An internal guarantee did not hold; the message names the function."""
