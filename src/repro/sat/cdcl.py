"""Conflict-driven clause learning SAT solver.

A compact MiniSat-style engine: two-literal watching, VSIDS branching with
exponential decay, first-UIP conflict analysis, non-chronological
backjumping, phase saving, Luby restarts and activity-based learned-clause
deletion.  It stands in for the native bit-blasting solvers the paper uses
(``docs/reproduction.md``, substitutions) and is the default backend of
:func:`repro.verify.verify_circuit`.

The engine is **incremental** in the MiniSat sense: a solver outlives a
single query.  :meth:`CdclSolver.add_clause` grows the instance between
calls, and :meth:`CdclSolver.solve` takes *assumption literals* —
decisions forced at the first decision levels, undone when the call
returns — so one long-lived solver over a shared Tseitin instance can
discharge many per-qubit obligations while keeping its learned clauses,
variable activities and saved phases across calls.  Learned clauses are
consequences of the clause database alone (assumptions only ever enter
as decisions), so retaining them across differently-assumed calls is
sound.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfn.cnf import Cnf
from repro.errors import SolverError
from repro.sat.result import SatResult, SatStats

_RESTART_BASE = 128


def _luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 ... (0-indexed)."""
    size, exponent = 1, 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        exponent -= 1
        index %= size
    return 1 << exponent


class _Clause:
    """A clause with an activity score; literals[0:2] are watched.

    ``focus_stamp``/``focus_hit`` memoise, per focused solve, whether
    the clause mentions any focus variable (see :meth:`CdclSolver.solve`).
    """

    __slots__ = ("literals", "learned", "activity", "focus_stamp", "focus_hit")

    def __init__(self, literals: List[int], learned: bool):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0
        self.focus_stamp = 0
        self.focus_hit = True


class CdclSolver:
    """Solve a CNF instance, incrementally growable between calls.

    Parameters
    ----------
    cnf:
        The initial instance (from :mod:`repro.boolfn.cnf` or
        hand-built); ``None`` starts an empty solver that is grown with
        :meth:`add_clause` — the incremental-service pattern.
    max_conflicts:
        Optional conflict budget (lifetime total across calls);
        exceeding it raises :class:`SolverError` so benchmark sweeps
        fail loudly rather than silently hang.
    """

    def __init__(
        self,
        cnf: Optional[Cnf] = None,
        max_conflicts: Optional[int] = None,
    ):
        self.num_vars = 0
        self.max_conflicts = max_conflicts
        self.stats = SatStats()

        self._assign: List[int] = [0]  # 0 / +1 / -1, 1-indexed
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._heap: List[tuple] = []  # (-activity, var), lazy deletion
        self._saved_phase: List[bool] = [False]

        self._cla_inc = 1.0
        self._cla_decay = 0.999

        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._watches: Dict[int, List[_Clause]] = {}

        self._focus_set: Optional[frozenset] = None
        self._focus_stamp = 0
        #: Watchers set aside for the duration of one focused solve,
        #: keyed by the falsified literal they watch.  Parking means an
        #: out-of-cone clause is skipped once per probe instead of once
        #: per re-propagation of its watched literal.
        self._parked: Dict[int, List[_Clause]] = {}
        self._seen: List[bool] = [False]
        self._seen_touched: List[int] = []

        self._ok = True
        if cnf is not None:
            self.ensure_vars(cnf.num_vars)
            for raw in cnf.clauses:
                self.add_clause(raw)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe to at least ``num_vars``."""
        for var in range(self.num_vars + 1, num_vars + 1):
            self._assign.append(0)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._saved_phase.append(False)
            self._seen.append(False)
            heapq.heappush(self._heap, (0.0, var))
        self.num_vars = max(self.num_vars, num_vars)

    def add_clause(self, literals: List[int]) -> bool:
        """Add a problem clause between calls (variables auto-grown).

        Returns False when the clause makes the instance unsatisfiable
        outright (the solver then answers UNSAT forever).  Must not be
        called mid-:meth:`solve`; the solver is at decision level 0
        between calls, where level-0 simplification stays sound.
        """
        if literals:
            self.ensure_vars(max(abs(lit) for lit in literals))
        if not self._ok:
            return False
        if self._decision_level() != 0:  # pragma: no cover - API misuse
            raise SolverError("add_clause requires decision level 0")
        if not self._add_clause(sorted(set(literals), key=abs), learned=False):
            self._ok = False
        return self._ok

    @property
    def clause_count(self) -> int:
        """Problem clauses currently attached (units excluded)."""
        return len(self._clauses)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        focus: Optional[Sequence[int]] = None,
    ) -> SatResult:
        """Run the CDCL loop to completion under optional assumptions.

        Assumptions are literals decided (in order) at the first
        decision levels and undone on return: UNSAT means *unsat under
        these assumptions*, not necessarily globally.  State learned
        during the call — clauses, activities, phases — persists, so
        successive assumption probes against one instance get steadily
        cheaper.

        ``focus`` restricts the search to the given variables: branching
        picks only focus variables, propagation at decision levels
        above zero skips clauses that mention none of them, and the
        call answers SAT as soon as propagation leaves every focus
        variable assigned without conflict.  All three are only sound
        when the clause database is *definitional* outside the focus
        cone — every non-focus variable is a Tseitin-defined function
        of others, so any consistent focus assignment extends to a full
        model and out-of-cone clauses can neither conflict nor prune.
        The caller owns that invariant.  Level-0 propagation always
        scans every clause, so watch invariants persist intact across
        differently-focused probes.  A focused SAT model covers only
        the assigned variables; absent entries are unconstrained.
        """
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(f"assumption literal {lit} out of range")
        if focus is not None:
            for var in focus:
                if var <= 0 or var > self.num_vars:
                    raise SolverError(f"focus variable {var} out of range")
        try:
            if focus is not None:
                self._focus_set = frozenset(focus)
                self._focus_stamp += 1
            return self._search(
                tuple(assumptions),
                None if focus is None else tuple(focus),
            )
        finally:
            self._focus_set = None
            if self._parked:
                for lit, clauses in self._parked.items():
                    existing = self._watches.get(lit)
                    if existing is None:
                        self._watches[lit] = clauses
                    else:
                        existing.extend(clauses)
                self._parked = {}
            self._backtrack(0)

    def probe(
        self,
        literal: int,
        focus: Optional[Sequence[int]] = None,
    ) -> SatResult:
        """Decide satisfiability with ``literal`` *temporarily asserted*.

        Same answer as ``solve(assumptions=[literal])``, different
        mechanics: the literal is enqueued as a true level-0 unit for
        the duration of the call, so the search runs with fresh-solver
        economics — learned clauses do not drag the assumption literal
        along and no assumption prefix is re-extended after every
        backjump to level 0.  The price is that clauses learned under
        the assertion are entailed only by ``instance ∧ literal``, so
        the probe rolls back its level-0 trail extension and detaches
        everything it learned before returning.  Variable activities
        and saved phases persist — the cheap, sound-to-share part of
        the probe's work — which is what makes a probe over a warm
        solver beat a cold fresh instance.

        Requires decision level 0 (i.e. between ``solve`` calls).  A
        ``False`` result means unsat *under the literal*; the instance
        itself stays usable, and ``add_clause([-literal])`` is then an
        equivalence-preserving follow-up.
        """
        if literal == 0 or abs(literal) > self.num_vars:
            raise SolverError(f"probe literal {literal} out of range")
        if not self._ok:
            return SatResult(False, stats=self.stats)
        if self._trail_lim:  # pragma: no cover - API misuse
            raise SolverError("probe requires decision level 0")
        if self._value(literal) == -1:
            # Entailed false at level 0 — refuted without searching.
            return SatResult(False, stats=self.stats)
        trail_mark = len(self._trail)
        qhead_mark = self._qhead
        before_ids = set(map(id, self._learned))
        try:
            if self._value(literal) == 0:
                self._enqueue(literal, None)
            return self.solve(focus=focus)
        finally:
            for lit in self._trail[trail_mark:]:
                var = lit if lit > 0 else -lit
                self._assign[var] = 0
                self._reason[var] = None
                heapq.heappush(self._heap, (-self._activity[var], var))
            del self._trail[trail_mark:]
            # Rewind the propagation head to where it was *before* the
            # probe, not to the trail mark: units enqueued but not yet
            # propagated pre-probe (fresh construction, an asserted
            # ¬root) may hide a level-0 conflict of the instance
            # itself, and resetting ``_ok`` below discards its
            # discovery — the next solve must re-propagate them.
            self._qhead = qhead_mark
            new_ids = {
                id(c) for c in self._learned if id(c) not in before_ids
            }
            if new_ids:
                if focus is not None:
                    # Clauses learned under a focused probe mention
                    # cone variables only, so only those watch slots
                    # can hold them.
                    keys = [
                        key
                        for var in focus
                        for key in (var, -var)
                        if key in self._watches
                    ]
                else:
                    keys = list(self._watches)
                for key in keys:
                    lst = self._watches[key]
                    for c in lst:
                        if id(c) in new_ids:
                            self._watches[key] = [
                                c for c in lst if id(c) not in new_ids
                            ]
                            break
                self._learned = [
                    c for c in self._learned if id(c) not in new_ids
                ]
            self._ok = True

    def _pick_focus_var(self, focus: Tuple[int, ...]) -> Optional[int]:
        """Highest-activity unassigned focus variable, if any."""
        best = None
        best_activity = -1.0
        for var in focus:
            if self._assign[var] == 0 and self._activity[var] > best_activity:
                best = var
                best_activity = self._activity[var]
        return best

    def _search(
        self,
        assumptions: Tuple[int, ...],
        focus: Optional[Tuple[int, ...]] = None,
    ) -> SatResult:
        if not self._ok:
            return SatResult(False, stats=self.stats)
        if self._propagate() is not None:
            self._ok = False
            return SatResult(False, stats=self.stats)

        restart_index = 0
        conflicts_until_restart = _RESTART_BASE * _luby(restart_index)
        conflicts_since_restart = 0
        max_learned = max(2000, 2 * len(self._clauses))

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self.max_conflicts and self.stats.conflicts > self.max_conflicts:
                    raise SolverError(
                        f"conflict budget {self.max_conflicts} exhausted"
                    )
                if self._decision_level() == 0:
                    self._ok = False
                    return SatResult(False, stats=self.stats)
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self._attach_learned(learnt)
                self._decay_activities()
            else:
                # Focused probes search a cone-sized space where the
                # heavy-tail runtimes restarts hedge against do not
                # arise; restarting would only throw away the probe's
                # assumption prefix work.
                if focus is None and conflicts_since_restart >= conflicts_until_restart:
                    restart_index += 1
                    conflicts_until_restart = _RESTART_BASE * _luby(restart_index)
                    conflicts_since_restart = 0
                    self.stats.restarts += 1
                    self._backtrack(0)
                    continue
                if len(self._learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                # Re-extend the assumption prefix (restarts and
                # backjumps may have unwound part of it).
                lit = None
                failed = False
                while self._decision_level() < len(assumptions):
                    candidate = assumptions[self._decision_level()]
                    value = self._value(candidate)
                    if value == 1:
                        # Already holds: open a vacuous level so the
                        # prefix position / decision level map stays
                        # aligned (the MiniSat convention).
                        self._trail_lim.append(len(self._trail))
                    elif value == -1:
                        failed = True
                        break
                    else:
                        lit = candidate
                        break
                if failed:
                    # An assumption contradicts the forced assignment:
                    # unsat under assumptions (the database itself may
                    # well stay satisfiable).
                    return SatResult(False, stats=self.stats)
                if lit is not None:
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(lit, None)
                    continue
                var = (
                    self._pick_focus_var(focus)
                    if focus is not None
                    else self._pick_branch_var()
                )
                if var is None:
                    if focus is not None:
                        model = {
                            v: self._assign[v] > 0
                            for v in range(1, self.num_vars + 1)
                            if self._assign[v] != 0
                        }
                    else:
                        model = {
                            v: self._assign[v] > 0
                            for v in range(1, self.num_vars + 1)
                        }
                    return SatResult(True, model=model, stats=self.stats)
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                lit = var if self._saved_phase[var] else -var
                self._enqueue(lit, None)

    # ------------------------------------------------------------------ #
    # Clause management
    # ------------------------------------------------------------------ #

    def _add_clause(self, literals: List[int], learned: bool) -> bool:
        """Attach a clause at level 0. Returns False on immediate conflict."""
        literals = [l for l in literals if self._value(l) != -1 or learned]
        if not learned:
            if any(self._value(l) == 1 for l in literals):
                return True
            if any(-l in literals for l in literals):
                return True  # tautology
            if not literals:
                return False
            if len(literals) == 1:
                return self._enqueue(literals[0], None)
        clause = _Clause(literals, learned)
        if len(literals) >= 2:
            (self._clauses if not learned else self._learned).append(clause)
            self._watch(clause.literals[0], clause)
            self._watch(clause.literals[1], clause)
        return True

    def _watch(self, lit: int, clause: _Clause) -> None:
        self._watches.setdefault(-lit, []).append(clause)

    def _attach_learned(self, learnt: List[int]) -> None:
        """Install a learned clause; learnt[0] is the asserting literal."""
        self.stats.learned_clauses += 1
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learned=True)
        clause.activity = self._cla_inc
        self._learned.append(clause)
        self._watch(learnt[0], clause)
        self._watch(learnt[1], clause)
        self._enqueue(learnt[0], clause)

    def _reduce_learned(self) -> None:
        """Drop the less active half of the learned clauses."""
        self._learned.sort(key=lambda c: c.activity)
        half = len(self._learned) // 2
        locked = {
            id(self._reason[abs(l)])
            for l in self._trail
            if self._reason[abs(l)] is not None
        }
        dropped_ids = {
            id(c)
            for c in self._learned[:half]
            if id(c) not in locked and len(c.literals) > 2
        }
        self._learned = [c for c in self._learned if id(c) not in dropped_ids]
        for key in self._watches:
            self._watches[key] = [
                c for c in self._watches[key] if id(c) not in dropped_ids
            ]
        for key in self._parked:
            self._parked[key] = [
                c for c in self._parked[key] if id(c) not in dropped_ids
            ]

    # ------------------------------------------------------------------ #
    # Assignment and propagation
    # ------------------------------------------------------------------ #

    def _value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        return v if lit > 0 else -v

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        if self._value(lit) != 0:
            return self._value(lit) == 1
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._saved_phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Boolean constraint propagation; returns a conflict clause or None.

        Under a focused solve, clauses outside the focus cone are
        definitional noise: they can neither conflict nor prune the
        cone search, so above level 0 they are parked (watches unmoved
        — sound, because every skipped falsification is unwound before
        the probe returns).  The body inlines value lookups and the
        enqueue: this loop is the solver's entire inner loop and the
        attribute/call overhead would otherwise dominate it.
        """
        assign = self._assign
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        phase = self._saved_phase
        restrict = self._focus_set is not None and len(self._trail_lim) > 0
        parked = self._parked
        focus = self._focus_set
        stamp = self._focus_stamp
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            watchers = watches.get(lit)
            if not restrict and parked:
                # Level-0 propagation inside a focused solve must scan
                # everything — wake whatever was parked for this literal.
                stashed = parked.pop(lit, None)
                if stashed is not None:
                    if watchers is None:
                        watchers = watches[lit] = stashed
                    else:
                        watchers.extend(stashed)
            if not watchers:
                continue
            kept: List[_Clause] = []
            kept_append = kept.append
            false_lit = -lit
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.literals
                if restrict:
                    # A clause is awake only when *wholly* inside the
                    # cone: a defining clause of a cone node mentions
                    # cone variables exclusively, so this keeps exactly
                    # the cone sub-instance (plus cone-local learned
                    # clauses), while boundary clauses of foreign cones
                    # sharing a subterm stay parked instead of rippling
                    # every assignment one layer outward.  Parking runs
                    # before the satisfied-clause fast path on purpose:
                    # foreign clauses satisfied at level 0 (e.g. by an
                    # asserted refuted root) would otherwise be kept and
                    # rescanned on every propagation of this literal.
                    if clause.focus_stamp != stamp:
                        clause.focus_stamp = stamp
                        hit = True
                        for l in lits:
                            if (l if l > 0 else -l) not in focus:
                                hit = False
                                break
                        clause.focus_hit = hit
                    if not clause.focus_hit:
                        if lit in parked:
                            parked[lit].append(clause)
                        else:
                            parked[lit] = [clause]
                        continue
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                l0 = lits[0]
                v0 = assign[l0] if l0 > 0 else -assign[-l0]
                if v0 == 1:
                    kept_append(clause)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        other = -lits[1]
                        if other in watches:
                            watches[other].append(clause)
                        else:
                            watches[other] = [clause]
                        moved = True
                        break
                if moved:
                    continue
                kept_append(clause)
                if v0 == -1:
                    kept.extend(watchers[i:])
                    watches[lit] = kept
                    self._qhead = len(trail)
                    return clause
                var = l0 if l0 > 0 else -l0
                assign[var] = 1 if l0 > 0 else -1
                level[var] = len(self._trail_lim)
                reason[var] = clause
                phase[var] = l0 > 0
                trail.append(l0)
            watches[lit] = kept
        return None

    def _backtrack(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        boundary = self._trail_lim[target_level]
        refill = self._focus_set is None
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            self._assign[var] = 0
            self._reason[var] = None
            if refill:
                heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #

    def _analyze(self, conflict: _Clause):
        learnt: List[int] = []
        # One persistent buffer instead of an O(num_vars) allocation per
        # conflict — on a large shared instance the allocation dwarfs
        # the handful of entries a cone-local conflict actually touches.
        seen = self._seen
        touched = self._seen_touched
        counter = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        current_level = self._decision_level()
        reason_lits = conflict.literals

        while True:
            if conflict is not None and conflict.learned:
                conflict.activity += self._cla_inc
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    touched.append(var)
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            p_lit = self._trail[index]
            index -= 1
            counter -= 1
            seen[abs(p_lit)] = False
            if counter == 0:
                p = -p_lit
                break
            p = p_lit
            conflict = self._reason[abs(p_lit)]
            reason_lits = conflict.literals

        learnt = [p] + self._minimize_learnt(learnt, seen)
        for var in touched:
            seen[var] = False
        touched.clear()
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the learned clause.
        levels = sorted((self._level[abs(l)] for l in learnt[1:]), reverse=True)
        backjump = levels[0]
        # Put a literal of the backjump level in watch position 1.
        for k in range(1, len(learnt)):
            if self._level[abs(learnt[k])] == backjump:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, backjump

    def _minimize_learnt(self, literals: List[int], seen: List[bool]) -> List[int]:
        """Drop learnt literals implied by the rest (self-subsumption).

        A literal whose reason chain bottoms out entirely in other
        clause literals (or level-0 facts) adds nothing to the clause.
        This matters most under assumption probes: cascade literals
        propagated from the assumption all reduce to the assumption
        literal itself and vanish, keeping learnt clauses as short as
        a fresh cone-local run would produce.
        """
        return [lit for lit in literals if not self._lit_redundant(lit, seen)]

    def _lit_redundant(self, lit: int, seen: List[bool]) -> bool:
        if self._reason[abs(lit)] is None:
            return False
        stack = [abs(lit)]
        marked: List[int] = []
        while stack:
            var = stack.pop()
            for q in self._reason[var].literals:
                qvar = abs(q)
                if qvar == var or seen[qvar] or self._level[qvar] == 0:
                    continue
                if self._reason[qvar] is None:
                    # Reached a decision outside the clause: not
                    # redundant; undo the speculative marks.
                    for m in marked:
                        seen[m] = False
                    return False
                seen[qvar] = True
                marked.append(qvar)
                stack.append(qvar)
        # Proven redundant: the speculative marks stand (each visited
        # variable is itself implied by the clause), so record them for
        # the end-of-analysis wipe.
        self._seen_touched.extend(marked)
        return True

    # ------------------------------------------------------------------ #
    # Heuristics
    # ------------------------------------------------------------------ #

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        # Focused solves pick branch variables by scanning the focus
        # activity array, never the heap — skip the dead heap traffic.
        # (_pick_branch_var's linear-scan fallback keeps unfocused
        # solves correct even with entries missing from the heap.)
        if self._focus_set is None:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay
        if self._cla_inc > 1e100:
            for clause in self._learned:
                clause.activity *= 1e-100
            self._cla_inc *= 1e-100

    def _pick_branch_var(self) -> Optional[int]:
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._assign[var] == 0:
                return var
        for var in range(1, self.num_vars + 1):
            if self._assign[var] == 0:
                return var
        return None
