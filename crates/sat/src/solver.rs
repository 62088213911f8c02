//! A CDCL SAT solver — the MiniSat substitute used by the configuration
//! engine (the paper uses MiniSat, §6).
//!
//! Features: two-watched-literal propagation over one flat clause arena;
//! first-UIP conflict analysis with local learnt-clause minimisation;
//! VSIDS variable activities with exponential decay, on a binary heap
//! with lazily dropped stale entries; phase saving (false first);
//! chronological backtracking past a long backjump; Luby restarts,
//! postponed while the trail is still growing; activity-based
//! learnt-clause database reduction; and MiniSat-style assumptions with
//! final-conflict analysis ([`Solver::failed_assumptions`]).

use crate::cnf::Cnf;
use crate::types::{Clause, LBool, Lit, Model, Var};
use engage_util::obs::{Counter, Obs};

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Search statistics, for the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Restarts that fell due while the trail was longer than at every
    /// earlier due point of the same search, and were skipped.
    pub restarts_postponed: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Conflicts resolved by a chronological (one-level) backtrack
    /// instead of a full backjump.
    pub chrono_backtracks: u64,
    /// Learnt clauses dropped by clause-DB reductions (cumulative).
    pub db_reduced: u64,
    /// Learnt clauses surviving clause-DB reductions (cumulative over
    /// reductions; 0 until the first reduction fires).
    pub db_kept: u64,
}

/// One clause: `len` literals of the solver's arena from `start`. The
/// first two literals are the watched ones.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    start: usize,
    len: u32,
    learnt: bool,
    activity: f64,
}

/// A clause's index in `Solver::clauses`.
type ClauseRef = u32;

/// Pre-resolved live counters mirroring [`SolverStats`] into an
/// [`Obs`]. Handles are resolved once in [`Solver::set_obs`], so the
/// hot loops pay one relaxed atomic add per increment (or a no-op
/// branch when observability is disabled).
#[derive(Debug, Clone, Default)]
struct LiveCounters {
    decisions: Counter,
    propagations: Counter,
    conflicts: Counter,
    restarts: Counter,
    restarts_postponed: Counter,
    learnt_clauses: Counter,
    chrono_backtracks: Counter,
    db_reduced: Counter,
    db_kept: Counter,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use engage_sat::{Solver, Var};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![a.positive(), b.positive()]);
/// s.add_clause(vec![a.negative()]);
/// let result = s.solve();
/// let m = result.model().expect("satisfiable");
/// assert!(!m.value(a));
/// assert!(m.value(b));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<ClauseHeader>,
    /// Every clause's literals back to back, in clause order: original
    /// clauses as loaded, learnt ones appended, compacted in place by
    /// `reduce_db`.
    arena: Vec<Lit>,
    /// watches[l.index()] = clauses in which literal `l` is watched.
    watches: Vec<Vec<ClauseRef>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: std::collections::BinaryHeap<(u64, Var)>,
    phase: Vec<bool>,
    cla_inc: f64,
    unsat: bool,
    stats: SolverStats,
    live: LiveCounters,
    seen: Vec<bool>,
    /// Number of learnt clauses currently in `clauses`, maintained
    /// incrementally so the per-decision DB-size check is O(1) instead
    /// of a scan over the whole clause database.
    num_learnts: usize,
    /// The assumptions the last UNSAT-under-assumptions answer rests on
    /// (see [`Solver::failed_assumptions`]); cleared by every search.
    failed: Vec<Lit>,
    /// Backjump distance above which a conflict backtracks
    /// *chronologically*; always [`CHRONO_BACKTRACK_GAP`] outside this
    /// module's tests.
    chrono_backtrack_gap: u32,
    /// Conflict-analysis scratch, reused across conflicts: the clause
    /// `analyze` learns (asserting literal first), and which of its
    /// literals minimisation keeps.
    learnt: Vec<Lit>,
    keep: Vec<bool>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
/// Luby restart unit (conflicts before the first restart).
const RESTART_BASE: u64 = 100;
/// Backjump distance above which a conflict backtracks *chronologically*
/// (one level) instead of jumping to the asserting level, keeping the
/// long trail suffix a far backjump would discard (Nadel & Ryvchin,
/// SAT'18). Small instances never reach the gap, so their search is
/// identical to pure backjumping.
const CHRONO_BACKTRACK_GAP: u32 = 100;

impl Solver {
    /// Empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: std::collections::BinaryHeap::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            unsat: false,
            stats: SolverStats::default(),
            live: LiveCounters::default(),
            seen: Vec::new(),
            num_learnts: 0,
            failed: Vec::new(),
            chrono_backtrack_gap: CHRONO_BACKTRACK_GAP,
            learnt: Vec::new(),
            keep: Vec::new(),
        }
    }

    /// Mirrors search statistics into `obs` as live counters
    /// (`sat.decisions`, `sat.propagations`, `sat.conflicts`,
    /// `sat.restarts`, `sat.restarts_postponed`, `sat.learnt_clauses`,
    /// `sat.chrono_backtracks`, `sat.db.reduced`, `sat.db.kept`), updated
    /// at the same sites that feed [`SolverStats`].
    pub fn set_obs(&mut self, obs: &Obs) {
        self.live = LiveCounters {
            decisions: obs.counter("sat.decisions"),
            propagations: obs.counter("sat.propagations"),
            conflicts: obs.counter("sat.conflicts"),
            restarts: obs.counter("sat.restarts"),
            restarts_postponed: obs.counter("sat.restarts_postponed"),
            learnt_clauses: obs.counter("sat.learnt_clauses"),
            chrono_backtracks: obs.counter("sat.chrono_backtracks"),
            db_reduced: obs.counter("sat.db.reduced"),
            db_kept: obs.counter("sat.db.kept"),
        };
    }

    /// Builds a solver preloaded with a formula: the same solver as
    /// [`Solver::add_clause`] for every clause in order, without a
    /// per-clause allocation.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        let n = cnf.num_vars() as usize;
        s.reserve_vars(n);
        for _ in 0..n {
            s.new_var();
        }
        // Clauses go into the arena unwatched and are watched in bulk, in
        // clause order, before anything propagates (a unit clause, or the
        // end of the formula): the watch lists `add_clause` would build.
        let mut unwatched = 0;
        let mut occurs = vec![0u32; 2 * n];
        let mut buf = Vec::new();
        for c in cnf.clauses() {
            if s.unsat {
                break;
            }
            buf.clear();
            buf.extend_from_slice(c);
            if !s.normalise(&mut buf) {
                continue;
            }
            match buf[..] {
                [] => s.unsat = true,
                [unit] => {
                    s.watch_from(unwatched, &mut occurs);
                    unwatched = s.clauses.len();
                    s.add_unit(unit);
                }
                _ => {
                    s.append(&buf, false, 0.0);
                }
            }
        }
        s.watch_from(unwatched, &mut occurs);
        s
    }

    /// Watches the clauses from `first` on, appended unwatched, in clause
    /// order. A watch only ever moves to another literal of its clause,
    /// so each literal's list first makes room for the literal's
    /// occurrences in those clauses, and propagation never reallocates it
    /// for them. `occurs` is all zeros, and is left so.
    fn watch_from(&mut self, first: usize, occurs: &mut [u32]) {
        let Some(start) = self.clauses.get(first).map(|c| c.start) else {
            return;
        };
        for &l in &self.arena[start..] {
            occurs[l.index()] += 1;
        }
        for &l in &self.arena[start..] {
            let count = std::mem::take(&mut occurs[l.index()]);
            if count > 0 {
                self.watches[l.index()].reserve(count as usize);
            }
        }
        for cref in first..self.clauses.len() {
            self.watch(cref as ClauseRef);
        }
    }

    /// Room for `n` more variables, so that loading a formula allocates
    /// each per-variable array once.
    fn reserve_vars(&mut self, n: usize) {
        self.assigns.reserve_exact(n);
        self.level.reserve_exact(n);
        self.reason.reserve_exact(n);
        self.activity.reserve_exact(n);
        self.phase.reserve_exact(n);
        self.seen.reserve_exact(n);
        self.watches.reserve_exact(2 * n);
        self.heap.reserve(n);
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        // Branch false first (MiniSat's default).
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push((0, v));
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Learnt clauses currently in the database (survivors of
    /// [`reduce_db`](Self::solve) reductions) — the payload an
    /// incremental session carries between solves.
    pub fn learnt_clause_count(&self) -> usize {
        self.learnt_count()
    }

    /// Adds a clause. May be called between [`Solver::solve`] calls for
    /// incremental solving (e.g. blocking clauses during model
    /// enumeration); the solver backtracks to the root level first.
    pub fn add_clause(&mut self, mut lits: Clause) {
        if self.unsat {
            return;
        }
        self.backtrack_to(0);
        if !self.normalise(&mut lits) {
            return;
        }
        match lits[..] {
            [] => self.unsat = true,
            [unit] => self.add_unit(unit),
            _ => {
                let cref = self.append(&lits, false, 0.0);
                self.watch(cref);
            }
        }
    }

    /// Normalises a clause against the root-level assignment: sorts it,
    /// removes duplicates and literals already false. Returns `false`
    /// when the clause is a tautology or already satisfied, and so adds
    /// nothing.
    fn normalise(&self, lits: &mut Clause) -> bool {
        for l in lits.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} references an unallocated variable"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        // x ∨ ¬x sit side by side once sorted.
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return false;
        }
        lits.retain(|&l| self.value(l) != LBool::False);
        !lits.iter().any(|&l| self.value(l) == LBool::True)
    }

    /// Asserts a unit clause at the root level.
    fn add_unit(&mut self, unit: Lit) {
        self.enqueue(unit, None);
        if self.propagate().is_some() {
            self.unsat = true;
        }
    }

    /// Appends a clause of two or more literals to the arena, unwatched.
    fn append(&mut self, lits: &[Lit], learnt: bool, activity: f64) -> ClauseRef {
        let cref = ClauseRef::try_from(self.clauses.len()).expect("clause count fits in u32");
        self.clauses.push(ClauseHeader {
            start: self.arena.len(),
            len: u32::try_from(lits.len()).expect("clause length fits in u32"),
            learnt,
            activity,
        });
        self.arena.extend_from_slice(lits);
        cref
    }

    /// Watches a clause's first two literals.
    fn watch(&mut self, cref: ClauseRef) {
        let start = self.clauses[cref as usize].start;
        self.watches[self.arena[start].index()].push(cref);
        self.watches[self.arena[start + 1].index()].push(cref);
    }

    /// The arena range of a clause's literals.
    fn span(&self, cref: ClauseRef) -> std::ops::Range<usize> {
        let c = &self.clauses[cref as usize];
        c.start..c.start + c.len as usize
    }

    /// Runs the CDCL search.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Runs the CDCL search under temporary `assumptions`: literals forced
    /// true for this call only (MiniSat's incremental interface). Returns
    /// `Unsat` if the formula is unsatisfiable *under the assumptions*;
    /// the solver remains usable afterwards.
    ///
    /// # Panics
    ///
    /// Panics if an assumption references an unallocated variable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.search(assumptions)
    }

    /// The *failed assumptions* of the last search: when it answered
    /// `Unsat` because of its assumptions, a subset of them that is
    /// already unsatisfiable together with the clauses (MiniSat's final
    /// conflict, as the assumption literals themselves rather than their
    /// negations). Not minimal, but typically far smaller than the
    /// assumption list — the starting point of a core-guided MUS search.
    ///
    /// Empty when the last search was satisfiable, and when
    /// the clauses are unsatisfiable on their own. Cleared at the start
    /// of every search.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// The single entry point for every solve variant. All exits —
    /// SAT, UNSAT, assumption conflict — funnel through
    /// the cleanup below, so no search can leave assumption levels,
    /// stale queue positions, or seen-flags behind on the solver.
    fn search(&mut self, assumptions: &[Lit]) -> SatResult {
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a} references an unallocated variable"
            );
        }
        self.failed.clear();
        let result = self.search_inner(assumptions);
        // Single-exit cleanup: return to the root level regardless of
        // which exit path fired, and check the invariants a reusable
        // solver must satisfy.
        self.backtrack_to(0);
        debug_assert!(self.trail_lim.is_empty(), "assumption levels left behind");
        debug_assert!(self.qhead <= self.trail.len(), "queue head past trail");
        debug_assert!(
            self.trail.iter().all(|l| self.level[l.var().index()] == 0),
            "non-root assignment survived cleanup"
        );
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "seen flags left set by conflict analysis"
        );
        result
    }

    fn search_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_idx: u64 = 0;
        let mut restart_budget = RESTART_BASE * luby(restart_idx);
        // The longest trail seen at a due restart of this search.
        let mut longest_trail = 0;
        let mut max_learnts = (self.clauses.len() / 3).max(1000);
        loop {
            match self.propagate() {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    self.live.conflicts.incr();
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let back_level = self.analyze(confl);
                    // Chronological backtracking (Nadel & Ryvchin, SAT'18):
                    // when the non-chronological backjump would discard many
                    // levels, undo just one level instead. The learnt clause
                    // is still asserting at `cur - 1` (all but its first
                    // literal are false at or below the conflict level), so
                    // `learn` immediately propagates it there. Unit learnt
                    // clauses must still go to level 0.
                    let cur = self.decision_level();
                    let target =
                        if self.learnt.len() > 1 && cur - back_level > self.chrono_backtrack_gap {
                            self.stats.chrono_backtracks += 1;
                            self.live.chrono_backtracks.incr();
                            cur - 1
                        } else {
                            back_level
                        };
                    self.backtrack_to(target);
                    self.learn();
                    self.var_inc /= VAR_DECAY;
                    self.cla_inc /= CLA_DECAY;
                }
                None => {
                    if conflicts_since_restart >= restart_budget {
                        conflicts_since_restart = 0;
                        restart_idx += 1;
                        restart_budget = RESTART_BASE * luby(restart_idx);
                        // Restart blocking (Audemard & Simon, CP'12): a
                        // trail longer than at every earlier due point
                        // means the search is still closing in on a
                        // model, so keep it and let the next due point
                        // decide again.
                        if self.trail.len() > longest_trail {
                            longest_trail = self.trail.len();
                            self.stats.restarts_postponed += 1;
                            self.live.restarts_postponed.incr();
                        } else {
                            self.stats.restarts += 1;
                            self.live.restarts.incr();
                            self.backtrack_to(0);
                            continue;
                        }
                    }
                    if self.learnt_count() > max_learnts {
                        self.reduce_db();
                        max_learnts += max_learnts / 10;
                    }
                    // Apply pending assumptions as pseudo-decisions first.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value(a) {
                            LBool::True => {
                                // Already satisfied; open an empty level so
                                // indices stay aligned with `assumptions`.
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::False => {
                                // Conflicts with the current (level ≤ now)
                                // state: unsatisfiable under assumptions.
                                self.analyze_final(a);
                                return SatResult::Unsat;
                            }
                            LBool::Undef => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, None);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => {
                            let model = Model::new(
                                self.assigns.iter().map(|&a| a == LBool::True).collect(),
                            );
                            return SatResult::Sat(model);
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.live.decisions.incr();
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(v, self.phase[v.index()]);
                            self.enqueue(lit, None);
                        }
                    }
                }
            }
        }
    }

    fn learnt_count(&self) -> usize {
        debug_assert_eq!(
            self.num_learnts,
            self.clauses.iter().filter(|c| c.learnt).count()
        );
        self.num_learnts
    }

    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].under(l)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause reference if a
    /// conflict is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            self.live.propagations.incr();
            let false_lit = !p;
            let mut idx = 0;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            while idx < watch_list.len() {
                let cref = watch_list[idx];
                let span = self.span(cref);
                // Ensure the false literal is at position 1.
                let (w0, w1) = {
                    let lits = &mut self.arena[span.clone()];
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    (lits[0], lits[1])
                };
                debug_assert_eq!(w1, false_lit);
                if self.value(w0) == LBool::True {
                    idx += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in span.start + 2..span.end {
                    let lk = self.arena[k];
                    if self.value(lk) != LBool::False {
                        self.arena.swap(span.start + 1, k);
                        self.watches[lk.index()].push(cref);
                        watch_list.swap_remove(idx);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(w0) == LBool::False {
                    // Conflict: restore remaining watches.
                    self.watches[false_lit.index()] = watch_list;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(w0, Some(cref));
                idx += 1;
            }
            self.watches[false_lit.index()] = watch_list;
        }
        None
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first, a highest-level literal of
    /// the rest second) and returns the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        // Slot for the asserting literal, filled in once it is known.
        learnt.push(Lit::from_index(0));
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        let mut cref = confl;
        let cur_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            for k in self.span(cref) {
                let q = self.arena[k];
                // When following a reason clause, the implied literal p
                // itself is in the clause; skip it.
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[pv.index()].expect("non-decision literal has a reason");
        }
        learnt[0] = !p.unwrap();
        // Learnt-clause minimization (local self-subsumption): a literal q
        // is redundant if its reason clause's other literals are all
        // already in the clause (still `seen`) or fixed at level 0.
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        keep.push(true);
        for &q in &learnt[1..] {
            let redundant = self.reason[q.var().index()].is_some_and(|reason| {
                self.arena[self.span(reason)].iter().all(|&r| {
                    r.var() == q.var()
                        || self.seen[r.var().index()]
                        || self.level[r.var().index()] == 0
                })
            });
            keep.push(!redundant);
        }
        // Clear seen flags for the learnt literals.
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        let mut keep_iter = keep.iter();
        learnt.retain(|_| *keep_iter.next().unwrap());
        // Backtrack level: second-highest level in the clause.
        let back_level = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // A highest-of-the-rest second (watch invariant after
        // backtracking).
        if learnt.len() > 2 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
        }
        self.learnt = learnt;
        self.keep = keep;
        back_level
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `failing` is an
    /// assumption found false while the trail holds nothing but earlier
    /// assumptions and what they imply. Walks the trail back from the top,
    /// expanding reason clauses, and records in `self.failed` the
    /// assumptions `¬failing` was derived from, plus `failing` itself.
    /// Leaves every `seen` flag clear.
    fn analyze_final(&mut self, failing: Lit) {
        self.failed.push(failing);
        let Some(&first_assumption) = self.trail_lim.first() else {
            return; // false at the root level: the clauses alone refute it
        };
        self.seen[failing.var().index()] = true;
        for i in (first_assumption..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // A pseudo-decision: one of the assumptions.
                None => self.failed.push(l),
                Some(cref) => {
                    for k in self.span(cref) {
                        let q = self.arena[k].var().index();
                        if q != v && self.level[q] > 0 {
                            self.seen[q] = true;
                        }
                    }
                }
            }
        }
        // `¬failing` sat at the root level: the walk never reached it.
        self.seen[failing.var().index()] = false;
    }

    /// Adds the clause `analyze` left in `self.learnt` and asserts its
    /// first literal.
    fn learn(&mut self) {
        let clause = std::mem::take(&mut self.learnt);
        if let [unit] = clause[..] {
            debug_assert_eq!(self.decision_level(), 0);
            if self.value(unit) == LBool::Undef {
                self.enqueue(unit, None);
            }
        } else {
            let cref = self.append(&clause, true, self.cla_inc);
            self.watch(cref);
            self.num_learnts += 1;
            self.stats.learnt_clauses += 1;
            self.live.learnt_clauses.incr();
            self.enqueue(clause[0], Some(cref));
        }
        self.learnt = clause;
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var();
                self.assigns[v.index()] = LBool::Undef;
                self.reason[v.index()] = None;
                self.heap.push((self.activity[v.index()].to_bits(), v));
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some((act_bits, v)) = self.heap.pop() {
            if self.assigns[v.index()] != LBool::Undef {
                continue;
            }
            // Stale entry?
            if act_bits != self.activity[v.index()].to_bits() {
                self.heap.push((self.activity[v.index()].to_bits(), v));
                // Guard against infinite loop: the pushed entry is fresh, so
                // the next pop of `v` will match.
                continue;
            }
            return Some(v);
        }
        // `new_var` and `backtrack_to` push every variable they leave
        // unassigned, so an empty heap means every variable is assigned.
        debug_assert!(
            self.assigns.iter().all(|&a| a != LBool::Undef),
            "an unassigned variable has no heap entry"
        );
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.assigns[v.index()] == LBool::Undef {
            self.heap.push((self.activity[v.index()].to_bits(), v));
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Removes the lower-activity half of removable learnt clauses,
    /// compacts the arena in place and rebuilds the watch lists.
    fn reduce_db(&mut self) {
        self.backtrack_to(0);
        let mut learnt_refs: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt && self.clauses[i].len > 2)
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let removed = learnt_refs.len() / 2;
        if removed == 0 {
            return;
        }
        let mut remove = vec![false; self.clauses.len()];
        for &i in &learnt_refs[..removed] {
            remove[i] = true;
        }
        // Survivors keep their order, so a clause's new reference is the
        // number of survivors before it.
        let (mut kept, mut end) = (0, 0);
        for (i, &gone) in remove.iter().enumerate() {
            if gone {
                continue;
            }
            let c = self.clauses[i];
            let len = c.len as usize;
            self.arena.copy_within(c.start..c.start + len, end);
            self.clauses[kept] = ClauseHeader { start: end, ..c };
            kept += 1;
            end += len;
        }
        self.clauses.truncate(kept);
        self.arena.truncate(end);
        // Rebuild watches.
        for w in &mut self.watches {
            w.clear();
        }
        for cref in 0..kept {
            self.watch(cref as ClauseRef);
        }
        // The blindly chosen watch positions may already be false under the
        // level-0 trail; replaying propagation from the start restores the
        // two-watched-literal invariant.
        self.qhead = 0;
        self.num_learnts -= removed;
        self.stats.db_reduced += removed as u64;
        self.live.db_reduced.add(removed as u64);
        let kept_learnts = self.num_learnts as u64;
        self.stats.db_kept += kept_learnts;
        self.live.db_kept.add(kept_learnts);
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
pub fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i, then recurse.
    let mut k = 1u32;
    loop {
        let span = (1u64 << k) - 1;
        if i + 1 == span {
            return 1 << (k - 1);
        }
        if i + 1 < span {
            i -= (1 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_util::rand::{Rng, SeedableRng, StdRng};

    fn lits(pairs: &[(u32, bool)]) -> Clause {
        pairs.iter().map(|&(v, s)| Lit::new(Var(v), s)).collect()
    }

    fn solver_with(n: u32, clauses: &[Clause]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c.clone());
        }
        s
    }

    #[test]
    fn trivially_sat() {
        let mut s = solver_with(1, &[lits(&[(0, true)])]);
        let r = s.solve();
        assert!(r.model().unwrap().value(Var(0)));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = solver_with(1, &[lits(&[(0, true)]), lits(&[(0, false)])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = solver_with(1, &[vec![]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_sat() {
        let mut s = solver_with(3, &[]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn propagation_chain() {
        // a; a->b; b->c; c->d  (as clauses)
        let cs = vec![
            lits(&[(0, true)]),
            lits(&[(0, false), (1, true)]),
            lits(&[(1, false), (2, true)]),
            lits(&[(2, false), (3, true)]),
        ];
        let mut s = solver_with(4, &cs);
        let r = s.solve();
        let m = r.model().unwrap();
        for v in 0..4 {
            assert!(m.value(Var(v)));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let var = |p: u32, h: u32| Var(p * 2 + h);
        let mut clauses: Vec<Clause> = Vec::new();
        for p in 0..3 {
            clauses.push(vec![var(p, 0).positive(), var(p, 1).positive()]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in p1 + 1..3 {
                    clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut s = solver_with(6, &clauses);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        // A formula that needs some search: 3-SAT-ish random but fixed.
        let cs = vec![
            lits(&[(0, true), (1, true), (2, false)]),
            lits(&[(0, false), (3, true), (4, true)]),
            lits(&[(1, false), (2, true), (5, false)]),
            lits(&[(3, false), (4, false), (5, true)]),
            lits(&[(0, true), (4, false), (5, false)]),
            lits(&[(1, true), (3, true), (5, true)]),
        ];
        let mut s = solver_with(6, &cs);
        let r = s.solve();
        let m = r.model().unwrap();
        assert!(m.satisfies_all(&cs));
    }

    #[test]
    fn incremental_blocking() {
        // Exactly-one over 3 vars; enumerate by blocking.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..3).map(|_| cnf.fresh_var()).collect();
        cnf.add_exactly_one(
            &vars.iter().map(|v| v.positive()).collect::<Vec<_>>(),
            crate::cnf::ExactlyOneEncoding::Pairwise,
        );
        let mut s = Solver::from_cnf(&cnf);
        let mut count = 0;
        loop {
            match s.solve() {
                SatResult::Unsat => break,
                SatResult::Sat(m) => {
                    count += 1;
                    assert!(count <= 3, "too many models");
                    let block: Clause = vars.iter().map(|&v| Lit::new(v, !m.value(v))).collect();
                    s.add_clause(block);
                }
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn solve_is_repeatable() {
        let cs = vec![lits(&[(0, true), (1, true)]), lits(&[(0, false)])];
        let mut s = solver_with(2, &cs);
        assert!(s.solve().is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_accumulate() {
        let cs = vec![
            lits(&[(0, true), (1, true)]),
            lits(&[(0, false), (1, true)]),
            lits(&[(0, true), (1, false)]),
        ];
        let mut s = solver_with(2, &cs);
        assert!(s.solve().is_sat());
        assert!(s.stats().decisions >= 1);
    }

    #[test]
    fn assumptions_restrict_without_committing() {
        // (a | b) with assumption !a forces b; solver stays reusable.
        let mut s = solver_with(2, &[lits(&[(0, true), (1, true)])]);
        let r = s.solve_with_assumptions(&[Var(0).negative()]);
        let m = r.model().unwrap();
        assert!(!m.value(Var(0)));
        assert!(m.value(Var(1)));
        // Contradictory assumptions: unsat under assumptions only.
        let r = s.solve_with_assumptions(&[Var(0).positive(), Var(0).negative()]);
        assert_eq!(r, SatResult::Unsat);
        // Plain solve still succeeds afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_conflicting_with_clauses_are_unsat() {
        // a & (a -> b) & assumption !b.
        let mut s = solver_with(2, &[lits(&[(0, true)]), lits(&[(0, false), (1, true)])]);
        assert_eq!(
            s.solve_with_assumptions(&[Var(1).negative()]),
            SatResult::Unsat
        );
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_enumerate_both_branches() {
        // Exactly-one over {a, b}: assuming each in turn yields both models.
        let mut s = solver_with(
            2,
            &[
                lits(&[(0, true), (1, true)]),
                lits(&[(0, false), (1, false)]),
            ],
        );
        let ra = s.solve_with_assumptions(&[Var(0).positive()]);
        assert!(ra.model().unwrap().value(Var(0)));
        assert!(!ra.model().unwrap().value(Var(1)));
        let rb = s.solve_with_assumptions(&[Var(1).positive()]);
        assert!(rb.model().unwrap().value(Var(1)));
        assert!(!rb.model().unwrap().value(Var(0)));
    }

    /// `a → b → c → d`: the chain every core test below refutes.
    fn chain() -> Solver {
        solver_with(
            6,
            &[
                lits(&[(0, false), (1, true)]),
                lits(&[(1, false), (2, true)]),
                lits(&[(2, false), (3, true)]),
            ],
        )
    }

    #[test]
    fn failed_assumptions_are_a_subset_naming_the_conflict() {
        // Assume a, two bystanders, and ¬d: the refutation rests on a and
        // ¬d only, through the reason clauses of b, c and d.
        let mut s = chain();
        let assumptions = [
            Var(4).positive(),
            Var(0).positive(),
            Var(5).negative(),
            Var(3).negative(),
        ];
        assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat);
        let mut core = s.failed_assumptions().to_vec();
        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
        core.sort_unstable();
        assert_eq!(core, vec![Var(0).positive(), Var(3).negative()]);
        assert!(s.seen.iter().all(|&f| !f), "seen flags left set");
    }

    #[test]
    fn failed_assumptions_of_a_contradictory_pair() {
        let mut s = chain();
        let pair = [Var(4).positive(), Var(1).positive(), Var(1).negative()];
        assert_eq!(s.solve_with_assumptions(&pair), SatResult::Unsat);
        let mut core = s.failed_assumptions().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![Var(1).positive(), Var(1).negative()]);
    }

    #[test]
    fn failed_assumption_refuted_at_the_root_stands_alone() {
        let mut s = chain();
        s.add_clause(lits(&[(0, true)])); // forces a, b, c, d at level 0
        let assumptions = [Var(4).positive(), Var(3).negative()];
        assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat);
        assert_eq!(s.failed_assumptions(), [Var(3).negative()]);
        assert!(s.seen.iter().all(|&f| !f), "seen flags left set");
    }

    #[test]
    fn failed_assumptions_empty_when_the_formula_alone_is_unsat() {
        let mut s = solver_with(2, &[lits(&[(0, true)]), lits(&[(0, false)])]);
        assert_eq!(
            s.solve_with_assumptions(&[Var(1).positive()]),
            SatResult::Unsat
        );
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_are_cleared_and_the_solver_stays_usable() {
        let mut s = chain();
        let refuted = [Var(0).positive(), Var(3).negative()];
        assert_eq!(s.solve_with_assumptions(&refuted), SatResult::Unsat);
        assert_eq!(s.failed_assumptions().len(), 2);
        // A later SAT call clears the core ...
        let r = s.solve_with_assumptions(&[Var(0).positive()]);
        assert!(r.model().is_some_and(|m| m.value(Var(3))));
        assert!(s.failed_assumptions().is_empty());
        // ... and the same refutation is found again on the same solver.
        assert_eq!(s.solve_with_assumptions(&refuted), SatResult::Unsat);
        assert_eq!(s.failed_assumptions().len(), 2);
        assert!(s.seen.iter().all(|&f| !f), "seen flags left set");
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = solver_with(2, &[]);
        s.add_clause(lits(&[(0, true), (0, true)])); // dedups to unit
        s.add_clause(lits(&[(1, true), (1, false)])); // tautology: dropped
        let r = s.solve();
        assert!(r.model().unwrap().value(Var(0)));
    }

    /// Seeded random 3-CNF near the SAT/UNSAT phase transition; exercises
    /// real search (conflicts, backjumps, restarts).
    fn random_3cnf(seed: u64, num_vars: u32, num_clauses: usize) -> Vec<Clause> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_clauses)
            .map(|_| {
                let mut vars = Vec::with_capacity(3);
                while vars.len() < 3 {
                    let v = rng.gen_range(0..num_vars);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars.iter()
                    .map(|&v| Lit::new(Var(v), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn chronological_backtracking_agrees_with_backjumping() {
        // An aggressive gap of 0 chronologically backtracks on every
        // eligible conflict; verdicts must match the default solver on a
        // sweep of seeded random 3-CNFs near the phase transition, and any
        // model produced must actually satisfy the formula.
        let mut chrono_total = 0u64;
        for seed in 0..20u64 {
            let cs = random_3cnf(seed, 40, 170);
            let mut reference = solver_with(40, &cs);
            reference.chrono_backtrack_gap = u32::MAX;
            let mut chrono = solver_with(40, &cs);
            chrono.chrono_backtrack_gap = 0;
            let (rr, rc) = (reference.solve(), chrono.solve());
            assert_eq!(rr.is_sat(), rc.is_sat(), "verdict mismatch on seed {seed}");
            if let SatResult::Sat(m) = &rc {
                assert!(m.satisfies_all(&cs), "chrono model invalid on seed {seed}");
            }
            assert_eq!(reference.stats().chrono_backtracks, 0);
            chrono_total += chrono.stats().chrono_backtracks;
        }
        assert!(chrono_total > 0, "gap 0 never backtracked chronologically");
    }

    #[test]
    fn reduce_db_records_metrics() {
        // Learn enough clauses through real conflicts, then force a DB
        // reduction and check the cumulative reduced/kept counters.
        let cs = random_3cnf(3, 60, 255);
        let mut s = solver_with(60, &cs);
        let r = s.solve();
        if let SatResult::Sat(m) = &r {
            assert!(m.satisfies_all(&cs));
        }
        let learnt_before = s.learnt_clause_count();
        s.reduce_db();
        let stats = s.stats();
        if stats.db_reduced > 0 {
            assert_eq!(
                stats.db_kept + stats.db_reduced,
                learnt_before as u64,
                "kept + reduced must cover every learnt clause"
            );
            assert!(s.learnt_clause_count() < learnt_before);
        } else {
            // Nothing removable (all learnt clauses binary or DB empty):
            // the counters must stay untouched.
            assert_eq!(stats.db_kept, 0);
            assert_eq!(s.learnt_clause_count(), learnt_before);
        }
        // Solver must remain usable and consistent after reduction.
        assert_eq!(s.solve().is_sat(), r.is_sat());
    }
}
