"""Steady-state solvers.

The steady-state distribution satisfies ``pi Q = 0`` with ``sum(pi) = 1``.
Four methods are provided:

``direct``
    Replace one balance equation by the normalisation condition and solve
    the sparse linear system.  Fast and accurate for irreducible chains.
``gth``
    The Grassmann-Taksar-Heyman elimination: division-free of subtractions,
    numerically exact up to rounding even for stiff chains; O(n^3) dense,
    used for small or ill-conditioned models and for cross-checking.
``iterative``
    BiCGStab (GMRES fallback) on the same augmented system with a
    diagonal preconditioner: the large-n path — sparse LU fill-in makes
    ``direct`` quadratic-ish in practice, while the Krylov solve stays
    near-linear in the number of non-zeros.
``power``
    Uniformised power iteration; a derivative-free fallback.

``steady_state`` picks ``gth`` for small chains, ``iterative`` above
:data:`_ITERATIVE_CUTOFF` states (env ``REPRO_ITERATIVE_THRESHOLD``)
and ``direct`` otherwise, falling back across methods on numerical
failure.

Each method is split into a matrix-level core (operating on the generator
directly) and a thin :class:`~repro.ctmc.chain.Ctmc` wrapper, so that
:class:`BatchSteadySolver` can solve whole families of chains that share
one transition structure without rebuilding per-chain ``Ctmc`` objects:
the sparsity pattern, index arrays and dense scaffolding are assembled
once and only the rate values change between solves.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc.chain import Ctmc
from repro.errors import SolverError
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.resilience.breaker import CircuitBreaker, breaker
from repro.resilience.faults import fault_point

__all__ = [
    "steady_state",
    "steady_state_direct",
    "steady_state_gth",
    "steady_state_iterative",
    "steady_state_power",
    "steady_state_batch",
    "BatchSteadySolver",
]

_logger = logging.getLogger(__name__)

_STEADY_SOLVES = _metrics.counter(
    "repro_steady_solves_total",
    "Steady-state solves by elimination path (core invocations).",
)

_GTH_CUTOFF = 200

#: Above this state count ``method="auto"`` tries the preconditioned
#: Krylov solve before the sparse direct factorisation (whose LU
#: fill-in dominates runtime from a few thousand states up).  Kept
#: above the 2401-state paper model so paper-scale solves stay on the
#: exact direct path.  Overridable via ``REPRO_ITERATIVE_THRESHOLD``.
_ITERATIVE_CUTOFF = 5000
_ITERATIVE_CUTOFF_ENV = "REPRO_ITERATIVE_THRESHOLD"


def _iterative_cutoff() -> int:
    raw = os.environ.get(_ITERATIVE_CUTOFF_ENV)
    if raw is None:
        return _ITERATIVE_CUTOFF
    try:
        value = int(raw)
    except ValueError:
        raise SolverError(
            f"{_ITERATIVE_CUTOFF_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise SolverError(f"{_ITERATIVE_CUTOFF_ENV} must be >= 1, got {value}")
    return value


#: Consecutive iterative failures before ``auto`` stops attempting the
#: Krylov path and routes straight to the direct factorisation for
#: ``REPRO_BREAKER_RECOVERY`` seconds.  The fallback is always correct
#: (just slower at large n), so an open breaker degrades latency, never
#: results.  Overridable via ``REPRO_BREAKER_THRESHOLD``.
_BREAKER_THRESHOLD = 3
_BREAKER_THRESHOLD_ENV = "REPRO_BREAKER_THRESHOLD"
_BREAKER_RECOVERY = 60.0
_BREAKER_RECOVERY_ENV = "REPRO_BREAKER_RECOVERY"


def _env_number(env: str, default: float, kind=float) -> float:
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = kind(raw)
    except ValueError:
        raise SolverError(f"{env} must be a number, got {raw!r}") from None
    if value < (1 if kind is int else 0.0):
        raise SolverError(f"{env} is out of range: {value}")
    return value


def _iterative_breaker() -> CircuitBreaker:
    # The registry caches the first construction, so the env knobs are
    # read once per process (consistent with the cutoff envs, which
    # workers inherit on fork).
    return breaker(
        "solver.iterative",
        failure_threshold=int(_env_number(_BREAKER_THRESHOLD_ENV, _BREAKER_THRESHOLD, int)),
        recovery_time=_env_number(_BREAKER_RECOVERY_ENV, _BREAKER_RECOVERY),
    )


def _try_iterative(solve, n: int, label: str):
    """One breaker-guarded iterative attempt; ``None`` means "go direct"."""
    brk = _iterative_breaker()
    if not brk.allow():
        _logger.debug(
            "%s: n=%d iterative breaker open, routing direct", label, n
        )
        return None
    try:
        result = solve()
    except SolverError:
        brk.record_failure()
        _logger.debug("%s: n=%d iterative failed, trying direct", label, n)
        return None
    brk.record_success()
    return result


def steady_state(chain: Ctmc, method: str = "auto") -> np.ndarray:
    """Steady-state probability vector of *chain* (indexed like states).

    Parameters
    ----------
    chain:
        The CTMC to solve.  It must have a single recurrent class for the
        result to be meaningful.
    method:
        ``"auto"``, ``"direct"``, ``"gth"``, ``"iterative"`` or
        ``"power"``.
    """
    with _tracing.span(
        "ctmc:steady", states=chain.number_of_states(), method=method
    ):
        return _steady_state(chain, method)


def _steady_state(chain: Ctmc, method: str) -> np.ndarray:
    if method == "auto":
        n = chain.number_of_states()
        if n <= _GTH_CUTOFF:
            _logger.debug("steady state: n=%d auto -> gth", n)
            return steady_state_gth(chain)
        if n > _iterative_cutoff():
            _logger.debug("steady state: n=%d auto -> iterative", n)
            result = _try_iterative(
                lambda: steady_state_iterative(chain), n, "steady state"
            )
            if result is not None:
                return result
        try:
            _logger.debug("steady state: n=%d auto -> direct", n)
            return steady_state_direct(chain)
        except SolverError:
            _logger.debug("steady state: n=%d direct failed -> power", n)
            return steady_state_power(chain)
    if method == "direct":
        return steady_state_direct(chain)
    if method == "gth":
        return steady_state_gth(chain)
    if method == "iterative":
        return steady_state_iterative(chain)
    if method == "power":
        return steady_state_power(chain)
    raise SolverError(f"unknown steady-state method {method!r}")


def steady_state_direct(chain: Ctmc) -> np.ndarray:
    """Sparse direct solve of ``pi Q = 0`` with normalisation."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _direct_core(chain.generator().astype(float))


def steady_state_gth(chain: Ctmc) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination (dense, subtraction-free)."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _gth_core(chain.dense_generator())


def steady_state_iterative(chain: Ctmc, rtol: float = 1e-10) -> np.ndarray:
    """Preconditioned Krylov solve of the augmented steady-state system."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _iterative_core(chain.generator().astype(float), rtol=rtol)


def steady_state_power(
    chain: Ctmc,
    tolerance: float = 1e-12,
    max_iterations: int = 2_000_000,
) -> np.ndarray:
    """Uniformised power iteration.

    Builds ``P = I + Q / Lambda`` with ``Lambda`` slightly above the
    largest exit rate and iterates ``pi P`` until the L1 change falls
    below *tolerance*.
    """
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _power_core(
        chain.generator().tocsr().astype(float),
        tolerance=tolerance,
        max_iterations=max_iterations,
    )


# -- matrix-level cores -------------------------------------------------------


def _direct_core(q: sparse.spmatrix) -> np.ndarray:
    """Direct solve given the sparse generator ``Q`` (n >= 2)."""
    _STEADY_SOLVES.inc(path="direct")
    n = q.shape[0]
    a = q.transpose().tolil()
    # Replace the last equation with sum(pi) = 1.
    a[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = sparse_linalg.spsolve(a.tocsr(), b)
    except Exception as exc:  # scipy raises several distinct types
        raise SolverError(f"sparse steady-state solve failed: {exc}") from exc
    return _finalise_pi(pi, "sparse steady-state solve")


def _iterative_core(
    q: sparse.spmatrix, rtol: float = 1e-10, maxiter: int = 5000
) -> np.ndarray:
    """Krylov solve of the augmented system (n >= 2).

    Same system as :func:`_direct_core` — ``Q^T`` with the last balance
    equation replaced by normalisation — solved by BiCGStab (GMRES on
    failure) with a diagonal (Jacobi) preconditioner and a uniform
    starting vector, avoiding the LU fill-in that makes the direct
    factorisation super-linear at large ``n``.
    """
    fault_point(
        "solver.iterative",
        error=SolverError("injected iterative steady-state failure"),
    )
    _STEADY_SOLVES.inc(path="iterative")
    n = q.shape[0]
    a = q.transpose().tocsr().astype(float)
    a = sparse.vstack([a[: n - 1, :], np.ones((1, n))], format="csr")
    b = np.zeros(n)
    b[n - 1] = 1.0
    diagonal = a.diagonal()
    safe = np.where(diagonal != 0.0, diagonal, 1.0)
    scale = 1.0 / safe
    preconditioner = sparse_linalg.LinearOperator(
        (n, n), matvec=lambda x: x * scale
    )
    x0 = np.full(n, 1.0 / n)
    errors: list[str] = []
    for name, solve in (
        ("bicgstab", sparse_linalg.bicgstab),
        ("gmres", sparse_linalg.gmres),
    ):
        try:
            pi, info = solve(
                a, b, x0=x0, rtol=rtol, atol=0.0,
                M=preconditioner, maxiter=maxiter,
            )
        except Exception as exc:  # pragma: no cover - scipy internals
            errors.append(f"{name}: {exc}")
            continue
        if info == 0 and np.all(np.isfinite(pi)):
            residual = float(np.max(np.abs(a @ pi - b)))
            if residual <= max(rtol * 100.0, 1e-8):
                _logger.debug(
                    "iterative steady state: n=%d solver=%s residual=%.3e",
                    n, name, residual,
                )
                return _finalise_pi(pi, "iterative steady-state solve")
            errors.append(f"{name}: residual {residual:.3e} too large")
        else:
            errors.append(f"{name}: info={info}")
    raise SolverError(
        "iterative steady-state solve did not converge ("
        + "; ".join(errors) + ")"
    )


def _finalise_pi(pi: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(pi)):
        raise SolverError(f"{label} produced non-finite values")
    pi = np.where(np.abs(pi) < 1e-300, 0.0, pi)
    if np.any(pi < -1e-8):
        raise SolverError(f"{label} produced negative probabilities")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(f"{label} produced a zero vector")
    return pi / total


def _gth_core(q: np.ndarray) -> np.ndarray:
    """GTH elimination given the dense generator ``Q`` (n >= 2).

    Each elimination step is one rank-1 update over the non-zero columns
    of the pivot row; it is bit-identical to the scalar column loop
    because every touched element still gets exactly one product
    ``a[i, k] * a[k, j]`` and one addition (the columns are independent:
    none reads a column another writes), and zero columns are skipped
    just as before, so an ``inf * 0`` never enters the matrix.
    """
    _STEADY_SOLVES.inc(path="gth")
    n = q.shape[0]
    # Work on the off-diagonal rate matrix.
    a = q.copy()
    np.fill_diagonal(a, 0.0)
    a = np.abs(a)
    # Forward elimination.
    for k in range(n - 1, 0, -1):
        total = a[k, :k].sum()
        if total <= 0.0:
            # State k unreachable-from/isolated in the reduced chain; give it
            # an infinitesimal self-consistency to avoid division by zero.
            raise SolverError(
                "GTH elimination hit a state with no outflow to lower indices; "
                "the chain is reducible"
            )
        a[:k, k] /= total
        nz = np.flatnonzero(a[k, :k])
        a[:k, nz] += np.multiply.outer(a[:k, k], a[k, nz])
    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("GTH produced a non-normalisable vector")
    return pi / total


def _power_core(
    q: sparse.csr_matrix,
    tolerance: float = 1e-12,
    max_iterations: int = 2_000_000,
) -> np.ndarray:
    """Uniformised power iteration given the sparse generator (n >= 2)."""
    _STEADY_SOLVES.inc(path="power")
    n = q.shape[0]
    max_exit = float(np.max(-q.diagonal())) if n else 0.0
    if max_exit <= 0.0:
        # No transitions at all: every state is absorbing.
        raise SolverError("chain has no transitions; steady state undefined")
    lam = max_exit * 1.02
    p = sparse.identity(n, format="csr") + q / lam
    pi = np.full(n, 1.0 / n)
    delta = float("inf")
    for _ in range(max_iterations):
        nxt = pi @ p
        nxt = np.asarray(nxt).ravel()
        delta = np.abs(nxt - pi).sum()
        pi = nxt
        if delta < tolerance:
            total = pi.sum()
            return np.clip(pi, 0.0, None) / total
    raise SolverError(
        f"power iteration did not converge within {max_iterations} "
        f"iterations (achieved residual {delta:.3e}, tolerance {tolerance:.3e})"
    )


# -- batched solves over a shared structure -----------------------------------


class BatchSteadySolver:
    """Solve many CTMCs that share one transition structure.

    The solver is built once from the state count and the off-diagonal
    transition pattern (``(src, dst)`` index pairs); each solve then only
    supplies the rate *values* aligned with that pattern.  Generator
    assembly is fully vectorised (index arrays + ``bincount`` for the
    diagonal), so sweeping a parameter space costs one numpy assembly and
    one linear solve per point instead of a Python dict walk per point.

    Examples
    --------
    >>> solver = BatchSteadySolver(2, [(0, 1), (1, 0)])
    >>> solver.solve([2.0, 8.0]).round(3).tolist()
    [0.8, 0.2]
    """

    def __init__(self, n: int, transitions: Sequence[tuple[int, int]]) -> None:
        if n < 1:
            raise SolverError("a chain needs at least one state")
        self.n = int(n)
        pattern = list(transitions)
        if len(set(pattern)) != len(pattern):
            raise SolverError("transition pattern contains duplicate pairs")
        for src, dst in pattern:
            if src == dst:
                raise SolverError(f"self-loop ({src}, {dst}) in transition pattern")
            if not (0 <= src < n and 0 <= dst < n):
                raise SolverError(f"transition ({src}, {dst}) outside 0..{n - 1}")
        self._pattern: tuple[tuple[int, int], ...] = tuple(pattern)
        self._src = np.array([s for s, _ in pattern], dtype=np.intp)
        self._dst = np.array([d for _, d in pattern], dtype=np.intp)
        diag = np.arange(n, dtype=np.intp)
        self._rows = np.concatenate([self._src, diag])
        self._cols = np.concatenate([self._dst, diag])

    @classmethod
    def from_chain(cls, chain: Ctmc) -> "BatchSteadySolver":
        """A solver over *chain*'s transition pattern."""
        pattern = [(i, j) for i, j, _ in chain.transitions()]
        return cls(chain.number_of_states(), pattern)

    @property
    def pattern(self) -> tuple[tuple[int, int], ...]:
        """The off-diagonal ``(src, dst)`` pairs, in rate-vector order."""
        return self._pattern

    def rates_of(self, chain: Ctmc) -> np.ndarray:
        """*chain*'s rates aligned with :attr:`pattern` (0 where absent).

        Raises
        ------
        SolverError
            If the chain has a transition outside this solver's pattern.
        """
        lookup = {(i, j): rate for i, j, rate in chain.transitions()}
        rates = np.array([lookup.pop(pair, 0.0) for pair in self._pattern])
        if lookup:
            extra = next(iter(lookup))
            raise SolverError(f"chain transition {extra} not in solver pattern")
        return rates

    def generator(self, rates: Sequence[float]) -> sparse.csr_matrix:
        """Assemble the sparse generator for one rate vector."""
        values = self._values(rates)
        outflow = np.bincount(self._src, weights=values, minlength=self.n)
        data = np.concatenate([values, -outflow])
        return sparse.csr_matrix(
            (data, (self._rows, self._cols)), shape=(self.n, self.n)
        )

    def dense_generator(self, rates: Sequence[float]) -> np.ndarray:
        """Assemble the dense generator for one rate vector."""
        values = self._values(rates)
        q = np.zeros((self.n, self.n))
        q[self._src, self._dst] = values
        q[np.arange(self.n), np.arange(self.n)] = -np.bincount(
            self._src, weights=values, minlength=self.n
        )
        return q

    def solve(self, rates: Sequence[float], method: str = "auto") -> np.ndarray:
        """Steady-state vector for the chain with the given rate values."""
        with _tracing.span("ctmc:steady", states=self.n, method=method):
            return self._solve(rates, method)

    def _solve(self, rates: Sequence[float], method: str) -> np.ndarray:
        if self.n == 1:
            return np.array([1.0])
        if method == "auto":
            if self.n <= _GTH_CUTOFF:
                return _gth_core(self.dense_generator(rates))
            q = self.generator(rates)
            if self.n > _iterative_cutoff():
                result = _try_iterative(
                    lambda: _iterative_core(q), self.n, "batch steady state"
                )
                if result is not None:
                    return result
            try:
                return _direct_core(q)
            except SolverError:
                return _power_core(q)
        if method == "gth":
            return _gth_core(self.dense_generator(rates))
        if method == "direct":
            return _direct_core(self.generator(rates))
        if method == "iterative":
            return _iterative_core(self.generator(rates))
        if method == "power":
            return _power_core(self.generator(rates))
        raise SolverError(f"unknown steady-state method {method!r}")

    def solve_batch(
        self, rate_rows: Iterable[Sequence[float]], method: str = "auto"
    ) -> np.ndarray:
        """Solve one chain per row of *rate_rows*; rows align with input."""
        rows = [self.solve(rates, method=method) for rates in rate_rows]
        if not rows:
            return np.zeros((0, self.n))
        return np.vstack(rows)

    def _values(self, rates: Sequence[float]) -> np.ndarray:
        values = np.asarray(rates, dtype=float)
        if values.shape != (len(self._pattern),):
            raise SolverError(
                f"expected {len(self._pattern)} rates, got shape {values.shape}"
            )
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise SolverError("rates must be finite and non-negative")
        return values


def steady_state_batch(
    chains: Sequence[Ctmc], method: str = "auto"
) -> list[np.ndarray]:
    """Steady states of many chains, reusing structure where shared.

    Chains are grouped by (state count, transition pattern); each group
    shares one :class:`BatchSteadySolver` so pattern index arrays and
    dense scaffolding are built once per distinct structure.  Results are
    returned in input order.
    """
    groups: dict[tuple[int, tuple[tuple[int, int], ...]], BatchSteadySolver] = {}
    results: list[np.ndarray] = []
    for chain in chains:
        key = (
            chain.number_of_states(),
            tuple(sorted((i, j) for i, j, _ in chain.transitions())),
        )
        solver = groups.get(key)
        if solver is None:
            solver = BatchSteadySolver(key[0], key[1])
            groups[key] = solver
        results.append(solver.solve(solver.rates_of(chain), method=method))
    return results
