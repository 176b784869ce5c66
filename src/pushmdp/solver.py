"""Exact average-cost solvers for the sleep/unicast/push decision process.

Policy iteration is the workhorse.  Each evaluation solves the gain/bias
equations on the policy's pre-request chain over (E, C): the request ring is
drawn after the battery and content moves, from the next pushed count alone,
so one unknown per battery level and pushed count suffices, (E+1)(N+1) for
every policy.  The pushed count moves by at most one per period, so that
chain is block tridiagonal in the kernel's N+1 levels, and it is solved
level by level, by dense eliminations onto a middle level, then refined by
one residual correction.  A chain with several closed classes that share
one gain is solved the same way, with one reference state pinned per class
as a row of the level layout.  When the classes differ in gain the policy
has no single gain and MultichainError is raised.  Q-values, for the
improvement step, the Bellman residual and value iteration, come from the
same factors: P h for every pair is U (D h) read back through the labels, so
no solver forms the product U D.  Improvement keeps the incumbent action on
ties within round-off.  A brute-force policy enumerator serves as an
independent oracle on tiny instances.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
# after csgraph, which loads it; imported first, it slowed start-up by ~0.05 s
from scipy.linalg.lapack import dgetrf, dgetri

from .model import NUM_ACTIONS, Action
from .transition import TransitionKernel

__all__ = [
    "ValueSolution",
    "PolicyTable",
    "SingularPolicyError",
    "ConvergenceError",
    "MultichainError",
    "policy_evaluation",
    "policy_improvement",
    "policy_iteration",
    "PolicyIterationResult",
    "IterationRecord",
    "relative_value_iteration",
    "bellman_residual",
    "brute_force_oracle",
    "OracleResult",
]


class SingularPolicyError(np.linalg.LinAlgError):
    """The evaluation system is singular, non-finite or inconsistent."""


class ConvergenceError(RuntimeError):
    """Iteration cap reached before the stopping rule fired."""


class MultichainError(ConvergenceError):
    """A policy's closed classes differ in gain, so it has no single gain.

    ``class_gains`` holds the gain of each closed class.
    """

    def __init__(self, message: str, class_gains: tuple[float, ...]):
        super().__init__(message)
        self.class_gains = class_gains


@dataclass(frozen=True)
class ValueSolution:
    """Gain (long-run average cost per period) and differential values."""

    gain: float
    h: np.ndarray
    ref_state: int

    def __post_init__(self):
        if not 0 <= self.ref_state < len(self.h):
            raise ValueError("ref_state outside the state space")
        if self.h[self.ref_state] != 0.0:
            raise ValueError("h must vanish at the reference state")


class PolicyTable:
    """Immutable per-state action assignment."""

    __slots__ = ("actions",)

    def __init__(self, actions):
        arr = np.asarray(actions, dtype=np.int64).copy()
        if arr.ndim != 1:
            raise ValueError("policy must be one action per state")
        if arr.size and (arr.min() < 0 or arr.max() >= NUM_ACTIONS):
            raise ValueError("policy contains an unknown action code")
        arr.setflags(write=False)
        object.__setattr__(self, "actions", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PolicyTable is immutable")

    def __reduce__(self):
        # unpickling __slots__ would go through the blocking __setattr__
        return PolicyTable, (self.actions,)

    def __eq__(self, other):
        if not isinstance(other, PolicyTable):
            return NotImplemented
        return np.array_equal(self.actions, other.actions)

    def __hash__(self):
        return hash(self.actions.tobytes())

    def __repr__(self):
        return f"PolicyTable({self.actions.tolist()!r})"

    @classmethod
    def all_sleep(cls, num_states: int) -> "PolicyTable":
        return cls(np.zeros(num_states, dtype=np.int64))

    def validate(self, feasible: np.ndarray) -> None:
        """Raise if the table does not fit ``feasible`` or any entry is infeasible.

        ``feasible`` is a kernel's ``feasible_mask()`` or ``model.feasible_table``.
        """
        num_states = feasible.shape[1]
        if len(self.actions) != num_states:
            raise ValueError(
                f"policy has {len(self.actions)} entries for {num_states} states"
            )
        bad = np.flatnonzero(~feasible[self.actions, np.arange(num_states)])
        if bad.size:
            s = int(bad[0])
            action = Action(self.actions[s]).name
            raise ValueError(f"policy assigns infeasible action {action} to state {s}")


def policy_evaluation(
    policy: PolicyTable,
    kernel: TransitionKernel,
    costs: np.ndarray,
    ref_state: int = 0,
) -> ValueSolution:
    """Solve the gain/differential-value equations of a fixed policy.

    The equations are gain + h(s) = g(s, u(s)) + sum_y p(y|s, u(s)) h(y) for
    every state, with h(ref_state) = 0.  The policy's transition matrix
    factors as P_u = S U D: S maps each state s to its row t(s) of U, U
    moves the battery and pushed count to the pre-request state x = (E, C),
    and D draws the request ring.  So w = D h solves the m-state bordered
    system gain*1 + (I - R) w = D g_u, w = 0 at one pinned state, with
    R = (D S) U, and h(s) = g(s, u(s)) - gain + (U w)(t(s)), shifted to vanish
    at ref_state.  R is solved level by level in the pushed count (see
    _solve_levels).

    With one closed class of R (D S U has as many as S U D) the system is
    nonsingular.  With several, w is free by one constant per class, and
    each class's gain is pi D g_u for its stationary distribution pi, solved
    on the class's own levels with every other state there pinned.  When the
    gains agree to 1e-10, one reference state is pinned per class (Puterman
    1994, sections 8.6 and 9.2): ref_state's pre-request state for its own
    class, or the first class's first state when that state is transient,
    and each other class's first state, whose equation then reads w = 0.
    When they differ the policy has no single gain, and MultichainError is
    raised with the class gains; so it is when they differ by less and the
    full equations then fail.  Otherwise an exactly singular system,
    non-finite values or a residual of the full equations above tolerance
    raise SingularPolicyError.
    """
    policy.validate(kernel.feasible_mask())
    n = kernel.num_states
    states = np.arange(n)
    u, pre, weight = kernel.rows, kernel.pre, kernel.weight
    labels = kernel.labels[policy.actions, states]
    chain = csr_matrix((weight, (pre, labels)), shape=u.shape[::-1]) @ u
    g_pi = costs[policy.actions, states]
    cost = np.bincount(pre, weight * g_pi, minlength=chain.shape[0])
    ref = pre[ref_state]
    label, closed = _class_labels(chain)
    if closed.size == 1:
        x = _solve_levels(chain, cost, kernel.levels, np.flatnonzero(label == closed[0]))
    else:
        level = np.arange(chain.shape[0]) % kernel.levels
        gains, classes = [], []
        for c in closed:
            members = np.flatnonzero(label == c)
            # solved on the class's own levels, not on the whole chain once
            # per class, which would take time quadratic in the levels
            lo, hi = level[members].min(), level[members].max()
            span = np.flatnonzero((level >= lo) & (level <= hi))
            inside = np.isin(span, members)
            x = _solve_levels(
                chain[span][:, span], cost[span], hi - lo + 1,
                np.flatnonzero(inside), np.flatnonzero(~inside),
            )
            gains.append(x[0])
            classes.append(members)
        message = (
            f"policy chain has {closed.size} closed classes with gains "
            f"{min(gains):.6g} to {max(gains):.6g}"
        )
        if max(gains) - min(gains) > 1e-10:
            raise MultichainError(message, tuple(gains))
        # ref's own class, or the first when ref is transient
        own = int(np.argmax(closed == label[ref]))
        members = classes.pop(own)
        if closed[own] == label[ref]:
            members = np.append(ref, members[members != ref])
        try:
            x = _solve_levels(chain, cost, kernel.levels, members, [m[0] for m in classes])
            route = f"levels route, {chain.shape[0]}-state chain"
            _check_residual(x, x[0] + x[1:] - chain @ x[1:] - cost, route)
        except SingularPolicyError as exc:
            # gains apart by less than 1e-10 can still leave the full
            # equations unsolved
            if max(gains) > min(gains):
                raise MultichainError(message, tuple(gains)) from exc
            raise
    h = g_pi - x[0] + (u @ x[1:])[labels]
    h = h - h[ref_state]
    return ValueSolution(gain=float(x[0]), h=h, ref_state=ref_state)


def _solve_levels(
    chain: csr_matrix,
    cost: np.ndarray,
    levels: int,
    closed: np.ndarray,
    pinned: np.ndarray | list | None = None,
) -> np.ndarray:
    """(gain, y) solving gain*1 + (I - chain) y = cost by level reduction.

    The states x = e*levels + c fall into levels c of b = size/levels states
    each, and chain moves c by at most one, so it is block tridiagonal with
    blocks down[c], same[c] and up[c] from level c to c-1, c and c+1: a
    level-dependent quasi-birth-death chain (Latouche & Ramaswami 1999,
    linear level reduction; Gaver, Jacobs & Latouche 1984).  Levels
    levels-1..p+1 are eliminated downward and 0..p-1 upward onto level p,
    each by inverting its reduced diagonal block, which writes its y as a
    linear map of the next level's y and the gain.  At p the (b+1)-unknown
    system for the gain and y_p is solved with y = 0 at a state of
    ``closed``, a closed class, and the maps are applied back outward.  The
    solution is refined by one residual correction: where a level is left
    toward p only rarely its reduced block is ill-conditioned, and the first
    solve can lose digits of y.

    The equation of each ``pinned`` state reads y = 0 instead: its chain
    row, cost and gain coefficient are zeroed, which keeps the block
    layout.  y is then free by a multiple of the probabilities of absorption
    into ``closed``, the solution with zero right-hand side and y = 1 at the
    state pinned at p, and that multiple is taken out so that y vanishes at
    closed[0] too.  Every other closed class must hold a pinned state.

    p lies in the closed class's level span, which is an interval because c
    moves by one.  From every state above p the chain then reaches the levels
    below, or a pinned state, and from every state below p those above, so
    each reduced block is nonsingular.  p is the midpoint of the span: an
    end level far from the class's mass loses digits of y to the hitting
    costs of rarely visited levels.  A level whose class states all leave it
    toward p only with a probability below sqrt(eps) (1e-16 when
    p_u = 1 - 1e-16) would make its reduced block singular in floating point
    (sqrt(eps) is also where one residual correction stops repairing it), so
    p moves past it, to the side where the chain stays.  The residual is
    checked on the equations solved, pinned rows included.
    """
    k = chain.shape[0]
    route = f"levels route, {k}-state chain"
    b = k // levels
    free = np.ones(k)
    if pinned is not None:
        free[np.asarray(pinned)] = 0.0
        # zeroed in a copy: the caller checks the full equations with chain
        data = chain.data * np.repeat(free, np.diff(chain.indptr))
        chain = csr_matrix((data, chain.indices, chain.indptr), shape=chain.shape)
    cost = free * cost
    # blocks[c, c' - c + 1, e, e'] holds chain[x, x'] for x = e*levels + c and
    # x' = e'*levels + c'; the flat index splits into a row and a column part,
    # and a CSR product stores each entry once, so one scatter fills them
    e, c = np.divmod(np.arange(k), levels)
    row_part = ((2 * c + 1) * b + e) * b
    col_part = c * b * b + e
    flat = np.zeros(levels * 3 * b * b)
    flat[np.repeat(row_part, np.diff(chain.indptr)) + col_part[chain.indices]] = chain.data
    down, same, up = np.moveaxis(flat.reshape(levels, 3, b, b), 1, 0)

    # each level's largest probability, over its class states, of moving
    # up and of moving down
    level, state = closed % levels, closed // levels
    member = np.zeros((levels, b), dtype=bool)
    member[level, state] = True
    rise = np.where(member, up.sum(axis=2), 0.0).max(axis=1)
    fall = np.where(member, down.sum(axis=2), 0.0).max(axis=1)
    lo, hi = int(level.min()), int(level.max())
    stuck = np.sqrt(np.finfo(float).eps)
    p = (lo + hi) // 2
    p = min([p, *(lv for lv in range(lo, p) if rise[lv] < stuck)])
    p = max([p, *(lv for lv in range(p + 1, hi + 1) if fall[lv] < stuck)])
    pin = int(state[level == p][0])
    # (levels in elimination order, block from the next level back, step)
    sweeps = ((range(levels - 1, p, -1), up, -1), (range(p), down, 1))
    # Eliminating level c leaves y_c = X_c y_next + v_c - gain z_c, where
    # maps[c] = [X_c | z_c] and v_c = inverse[c] (rhs_c + the part the
    # eliminated neighbour passes on) is the only term that depends on rhs.
    eye = np.eye(b)
    inverse = np.empty((levels, b, b))
    maps = np.empty((levels, b, b + 1))
    maps[p + 1:, :, :b] = down[p + 1:]
    maps[:p, :, :b] = up[:p]
    maps[:, :, b] = free.reshape(b, levels).T
    bordered = np.zeros((b + 1, b + 1))
    bordered[:b, 0] = maps[p, :, b]
    bordered[:b, 1:] = eye - same[p]
    bordered[b, 1 + pin] = 1.0

    def substitute(rhs: np.ndarray, border: float = 0.0) -> np.ndarray:
        rhs = rhs.reshape(b, levels).T
        v = np.empty((levels, b))
        top = np.append(rhs[p], border)
        for order, back, step in sweeps:
            into = np.zeros(b)
            for c in order:
                v[c] = inverse[c] @ (rhs[c] + into)
                into = back[c + step] @ v[c]
            top[:b] += into
        top = bordered @ top
        y = np.empty((levels, b))
        y[p] = top[1:]
        for order, _, step in sweeps:
            for c in reversed(order):
                y[c] = maps[c, :, :b] @ y[c + step] + v[c] - top[0] * maps[c, :, b]
        return np.concatenate((top[:1], y.T.ravel()))

    # A block that is singular in floating point, though not in the chain's
    # graph, shows as a LAPACK error or as an overflow or NaN downstream.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for order, back, step in sweeps:
                into = np.zeros((b, b + 1))
                for c in order:
                    maps[c, :, b] += into[:, b]
                    inverse[c] = _inverse(eye - same[c] - into[:, :b])
                    maps[c] = inverse[c] @ maps[c]
                    into = back[c + step] @ maps[c]
                bordered[:b, 0] += into[:, b]
                bordered[:b, 1:] -= into[:, :b]
            bordered = _inverse(bordered)
            x = substitute(cost)
            x += substitute(cost - free * x[0] - x[1:] + chain @ x[1:])
            if pinned is not None:
                x[1:] -= x[1 + closed[0]] * substitute(np.zeros(k), 1.0)[1:]
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise SingularPolicyError(f"{route}: {exc}") from exc
    _check_residual(x, free * x[0] + x[1:] - chain @ x[1:] - cost, route)
    return x


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a by LAPACK's LU routines, without np.linalg.inv's overhead."""
    lu, piv, info = dgetrf(a)
    if info == 0:
        inv, info = dgetri(lu, piv)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return inv


def _check_residual(x: np.ndarray, residual: np.ndarray, route: str) -> None:
    """Raise SingularPolicyError, naming route, if x is not finite or residual large."""
    if not np.all(np.isfinite(x)):
        raise SingularPolicyError(f"{route}: evaluation produced non-finite values")
    worst = np.max(np.abs(residual))
    if worst > 1e-8 * max(1.0, np.max(np.abs(x))):
        raise SingularPolicyError(
            f"{route}: evaluation residual {worst:.3g} indicates a singular system"
        )


def _class_labels(p: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Strong-component label per state of the chain p, and the closed ones.

    A closed class is a component that no positive entry leaves.  p holds
    no stored zero: scipy's sparse product keeps no zero sum.
    """
    n_comp, label = connected_components(p, connection="strong")
    source = np.repeat(label, np.diff(p.indptr))
    leaving = np.zeros(n_comp, dtype=bool)
    leaving[source[source != label[p.indices]]] = True
    return label, np.flatnonzero(~leaving)


def _q_values(kernel, costs, h):
    """Action-value table g + P h with +inf at infeasible pairs.

    A pair's row is its post-decision row of U D, so P h is U (D h): the
    request ring is averaged out first, then one product of the factor rows
    with that, read back through the labels.  The sums round in another
    order than the products of U D's rows with h, so the two can differ in
    their last bits.
    """
    u = kernel.rows
    y = u @ np.bincount(kernel.pre, kernel.weight * h, minlength=u.shape[1])
    return np.where(kernel.feasible_mask(), costs + y[kernel.labels], np.inf)


def policy_improvement(
    values: ValueSolution,
    kernel: TransitionKernel,
    costs: np.ndarray,
    incumbent: PolicyTable | None = None,
) -> PolicyTable:
    """Per-state minimizer of g + P h; ties go to the lowest action code.

    With an ``incumbent`` policy a state keeps its incumbent action unless
    another beats it by more than 64 eps max(1, max|h|) (Puterman 1994,
    section 8.6.1, "set d_{n+1}(s) = d_n(s) if possible").  Where the gain is
    round-off, actions whose Q-values tie to the last bits would otherwise
    flip on every iteration, and the policy would never repeat.
    """
    q = _q_values(kernel, costs, values.h)
    best = np.argmin(q, axis=0)
    if incumbent is not None:
        states = np.arange(kernel.num_states)
        scale = max(1.0, float(np.max(np.abs(values.h), initial=0.0)))
        tol = 64 * np.finfo(float).eps * scale
        tied = q[incumbent.actions, states] <= q[best, states] + tol
        best = np.where(tied, incumbent.actions, best)
    return PolicyTable(best)


class IterationRecord(NamedTuple):
    """What one policy-iteration step did.

    ``changed`` counts the states whose action the improvement step changed
    (0 at a fixed point); ``post_decision_states`` counts the distinct
    post-decision states the policy visits.  ``evaluation_s`` and
    ``improvement_s`` are the wall seconds of the two steps.
    """

    gain: float
    changed: int
    post_decision_states: int
    evaluation_s: float
    improvement_s: float


@dataclass(frozen=True)
class PolicyIterationResult:
    """Final policy and values, and one record per iteration."""

    policy: PolicyTable
    values: ValueSolution
    iterations: tuple[IterationRecord, ...]

    @property
    def trace(self) -> tuple[float, ...]:
        """The evaluated gain of each iteration, in order."""
        return tuple(r.gain for r in self.iterations)


def policy_iteration(
    kernel: TransitionKernel,
    costs: np.ndarray,
    init_policy: PolicyTable | None = None,
    max_iter: int = 1000,
) -> PolicyIterationResult:
    """Howard policy iteration from the all-sleep policy.

    Alternates evaluation (h pinned at state 0) and improvement until the
    policy repeats, and raises ConvergenceError if it has not after
    ``max_iter`` steps.  A policy whose closed classes differ in gain stops
    the iteration with MultichainError from its evaluation.
    """
    if init_policy is None:
        init_policy = PolicyTable.all_sleep(kernel.num_states)
    policy = init_policy
    states = np.arange(kernel.num_states)
    records: list[IterationRecord] = []
    for _ in range(max_iter):
        start = time.perf_counter()
        sol = policy_evaluation(policy, kernel, costs)
        evaluated = time.perf_counter()
        improved = policy_improvement(sol, kernel, costs, incumbent=policy)
        records.append(
            IterationRecord(
                sol.gain,
                int(np.count_nonzero(improved.actions != policy.actions)),
                np.count_nonzero(np.bincount(kernel.labels[policy.actions, states])),
                evaluated - start,
                time.perf_counter() - evaluated,
            )
        )
        if improved == policy:
            return PolicyIterationResult(policy, sol, tuple(records))
        policy = improved
    raise ConvergenceError(f"no fixed point within {max_iter} iterations")


def relative_value_iteration(
    kernel: TransitionKernel,
    costs: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 500_000,
) -> ValueSolution:
    """Damped successive approximation of the average-cost optimality equations.

    Each sweep minimizes over feasible actions.  Stops when the span of the
    one-step differences w - h drops below ``tol``; the gain estimate is the
    midpoint of the span bounds, so the Bellman residual at return is at most
    tol/2.  Damping by one half keeps the iteration convergent on periodic
    chains.  h vanishes at state 0, the reference of every other solve.
    """
    h = np.zeros(kernel.num_states)
    for _ in range(max_iter):
        w = _q_values(kernel, costs, h).min(axis=0)
        delta = w - h
        lo, hi = float(delta.min()), float(delta.max())
        if hi - lo < tol:
            return ValueSolution(gain=0.5 * (lo + hi), h=w - w[0], ref_state=0)
        h = 0.5 * h + 0.5 * w
        h = h - h[0]
    raise ConvergenceError(f"span above {tol} after {max_iter} iterations")


def bellman_residual(
    values: ValueSolution,
    kernel: TransitionKernel,
    costs: np.ndarray,
    policy: PolicyTable | None = None,
) -> float:
    """max_x |gain + h(x) - min_u [g(x,u) + sum_y p(y|x,u) h(y)]|.

    With ``policy`` given the inner minimization is replaced by that policy's
    action, measuring evaluation (not optimality) error.
    """
    q = _q_values(kernel, costs, values.h)
    if policy is not None:
        w = q[policy.actions, np.arange(kernel.num_states)]
    else:
        w = q.min(axis=0)
    return float(np.max(np.abs(values.gain + values.h - w)))


class OracleResult(NamedTuple):
    policy: PolicyTable
    gain: float
    num_policies: int


def _stationary_batch(p_sel: np.ndarray) -> np.ndarray:
    """Stationary distributions of a batch of row-stochastic matrices.

    Direct solve of pi (P - I) = 0 with a normalization row.  A member whose
    system is singular (a reducible chain makes it so), or whose solution is
    negative, non-finite or not stationary, gets a row of NaN.
    """
    b, n, _ = p_sel.shape
    a = np.swapaxes(p_sel, 1, 2) - np.eye(n)
    a[:, n - 1, :] = 1.0
    rhs = np.zeros((b, n, 1))
    rhs[:, n - 1, 0] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError:
        pi = np.full((b, n), np.nan)
        for i in range(b):
            with contextlib.suppress(np.linalg.LinAlgError):
                pi[i] = np.linalg.solve(a[i], rhs[i])[:, 0]
    check = np.einsum("bi,bij->bj", pi, p_sel) - pi
    bad = (
        (np.min(pi, axis=1) < -1e-9)
        | (np.max(np.abs(check), axis=1) > 1e-10)
        | ~np.all(np.isfinite(pi), axis=1)
    )
    pi[bad] = np.nan
    return pi


def brute_force_oracle(
    kernel: TransitionKernel, costs: np.ndarray, max_policies: int = 1_000_000
) -> OracleResult:
    """Minimum gain over every feasible deterministic stationary policy.

    Enumerates policies in mixed-radix order over per-state feasible action
    lists, computes each policy's stationary distribution and takes the
    expected stage cost under it.  Every policy's chain must have a unique
    stationary distribution: the first policy whose does not, in enumeration
    order, raises SingularPolicyError.  Guarded to tiny instances: more than
    64 states or ``max_policies`` policies raise ValueError before any solve.
    """
    n = kernel.num_states
    if n > 64:
        raise ValueError(f"{n} states exceed the oracle guard of 64")
    mask = kernel.feasible_mask()
    feas = [np.flatnonzero(mask[:, s]) for s in range(n)]
    radix = np.array([len(f) for f in feas])
    total = int(np.prod(radix.astype(object)))
    if total > max_policies:
        raise ValueError(f"{total} policies exceed the oracle guard of {max_policies}")

    # every dense row U[r] D holds the single products U[r, x(s')] w(s')
    d = np.zeros((kernel.rows.shape[1], n))
    d[kernel.pre, np.arange(n)] = kernel.weight
    p_all = (kernel.rows @ d)[kernel.labels]
    chunk = max(16, int(5_000_000 // (n * n)))
    best_gain = np.inf
    best_actions = None
    state_idx = np.arange(n)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rem = codes.copy()
        policy_mat = np.empty((len(codes), n), dtype=np.int64)
        for s in range(n):
            policy_mat[:, s] = feas[s][rem % radix[s]]
            rem //= radix[s]
        p_sel = p_all[policy_mat, state_idx[None, :], :]
        g_sel = costs[policy_mat, state_idx[None, :]]
        gains = np.einsum("bs,bs->b", _stationary_batch(p_sel), g_sel)
        singular = np.flatnonzero(np.isnan(gains))
        if singular.size:
            k = int(singular[0])
            raise SingularPolicyError(
                f"policy {codes[k]} of {total} (actions {policy_mat[k].tolist()}) "
                "has no unique stationary distribution"
            )
        k = int(np.argmin(gains))
        if gains[k] < best_gain:
            best_gain = float(gains[k])
            best_actions = policy_mat[k]
    return OracleResult(
        policy=PolicyTable(best_actions), gain=best_gain, num_policies=total
    )
