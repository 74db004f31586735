//! The per-tile core driver: an in-order core with a write-through L1,
//! executing a trace or a reactive program against the L2 (Section 4.1).
//!
//! The AHB constraint is modelled faithfully: a single outstanding data
//! transaction — the core blocks on every L2 access (loads that miss the
//! L1, all stores, all atomics).

use std::collections::VecDeque;

use scorpio_coherence::LineAddr;
use scorpio_mem::{CoreOp, CoreReq, CoreResp, L1Cache, SnoopyL2};
use scorpio_sim::Cycle;
use scorpio_workloads::{
    arrival_schedule, ArrivalProcess, CoreProgram, Trace, TraceOp, TraceRecord,
};

/// What drives this core.
pub enum CoreKind {
    /// A fixed memory trace (the paper's trace-driven RTL methodology).
    Trace(Trace),
    /// A reactive program (locks/barriers, Section 4.3 regressions).
    Program(Box<dyn CoreProgram + Send>),
}

impl std::fmt::Debug for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Trace(t) => write!(f, "Trace({} ops)", t.len()),
            CoreKind::Program(_) => f.write_str("Program"),
        }
    }
}

/// The in-order core + L1 driver for one tile.
#[derive(Debug)]
pub struct CoreDriver {
    kind: CoreKind,
    l1: L1Cache,
    line_bytes: u64,
    /// Trace position.
    pc: usize,
    /// First cycle the charged compute gap allows the next issue. Stored
    /// as an absolute deadline rather than a countdown so an idle tile can
    /// sleep through the gap: once charged, the countdown can never pause
    /// (nothing issues mid-gap, so `outstanding` cannot grow), which makes
    /// the deadline exactly equivalent to decrementing every cycle.
    gap_until: Cycle,
    gap_charged: bool,
    /// In-flight (token, op, addr) tuples; capacity = `max_outstanding`.
    outstanding: Vec<(u64, TraceOp)>,
    max_outstanding: usize,
    last_value: Option<u64>,
    token_counter: u64,
    /// Open-loop arrival schedule (absolute cycles, one per trace record).
    /// Empty in closed-loop mode — the only mode switch.
    arrivals: Vec<u64>,
    /// Next unadmitted index into `arrivals`.
    arrival_next: usize,
    /// Bounded source queue of admitted-but-unissued `(arrival, record)`
    /// pairs. Records are pulled from the trace at admission time so a
    /// tail-drop discards exactly the op whose arrival overflowed.
    src_queue: VecDeque<(u64, TraceRecord)>,
    src_cap: usize,
    /// Arrivals tail-dropped because the source queue was full.
    pub src_dropped: u64,
    done: bool,
    /// Cycle the driver finished all its work.
    pub finished_at: Option<Cycle>,
    /// Completed operations.
    pub ops_done: u64,
    /// L1 hits that completed without touching the L2.
    pub l1_hits: u64,
}

impl CoreDriver {
    /// A driver over `kind` with a fresh L1 and one outstanding access
    /// (the AHB constraint). Use [`CoreDriver::set_max_outstanding`] for
    /// the paper's aggressive-core explorations (Figure 8d).
    pub fn new(kind: CoreKind, l1_bytes: u64, l1_ways: usize, line_bytes: u64) -> CoreDriver {
        CoreDriver {
            kind,
            l1: L1Cache::new(l1_bytes, l1_ways, line_bytes),
            line_bytes,
            pc: 0,
            gap_until: Cycle::ZERO,
            gap_charged: false,
            outstanding: Vec::new(),
            max_outstanding: 1,
            last_value: None,
            token_counter: 0,
            arrivals: Vec::new(),
            arrival_next: 0,
            src_queue: VecDeque::new(),
            src_cap: 0,
            src_dropped: 0,
            done: false,
            finished_at: None,
            ops_done: 0,
            l1_hits: 0,
        }
    }

    /// Raises the outstanding-access budget (trace cores only: reactive
    /// programs are value-dependent and stay at 1).
    pub fn set_max_outstanding(&mut self, n: usize) {
        if matches!(self.kind, CoreKind::Trace(_)) {
            self.max_outstanding = n.max(1);
        }
    }

    /// Switches a trace core to open-loop injection: record `i` is
    /// *released* at the arrival cycle the process draws for it (rather
    /// than by the completion of record `i-1`), queueing in a bounded
    /// source queue of `cap` entries while the core is busy. The compute
    /// gaps recorded in the trace become the Replay process's arrival
    /// deltas and are otherwise not charged. A zero-load schedule is
    /// empty and the driver keeps closed-loop semantics — the degenerate
    /// case *is* the closed-loop trace. No-op for program cores.
    pub fn set_open_loop(
        &mut self,
        process: ArrivalProcess,
        load_millis: u32,
        cap: usize,
        core: u64,
        seed: u64,
    ) {
        if let CoreKind::Trace(trace) = &self.kind {
            self.arrivals = arrival_schedule(process, load_millis, trace, core, seed);
            self.arrival_next = 0;
            self.src_cap = cap.max(1);
            self.src_queue = VecDeque::with_capacity(self.src_cap.min(1024));
        }
    }

    /// Whether this driver releases requests by arrival time.
    pub fn is_open_loop(&self) -> bool {
        !self.arrivals.is_empty()
    }

    /// Whether all work is complete (and nothing is in flight).
    pub fn is_done(&self) -> bool {
        self.done && self.outstanding.is_empty()
    }

    /// The L1, for inclusion-driven invalidations.
    pub fn l1_mut(&mut self) -> &mut L1Cache {
        &mut self.l1
    }

    /// The first future cycle at which ticking this driver can have any
    /// effect, when that is knowable: the driver is mid-gap with nothing
    /// in flight, so every tick before the deadline is a no-op by
    /// construction. `None` means "tick me every cycle".
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        if self.is_open_loop() {
            // Sleep only when truly idle: nothing admitted, nothing in
            // flight, next arrival strictly in the future. The deadline
            // feeds the system's timed-wake heap, which also bounds how
            // far the event-leaping clock may jump — a leap can never
            // skip a pending arrival.
            if !self.done && self.src_queue.is_empty() && self.outstanding.is_empty() {
                return self
                    .arrivals
                    .get(self.arrival_next)
                    .map(|&a| Cycle::from(a))
                    .filter(|&a| now < a);
            }
            return None;
        }
        (!self.done && self.outstanding.is_empty() && now < self.gap_until)
            .then_some(self.gap_until)
    }

    /// One cycle: consume a completion, or issue the next operation.
    /// Completions arrive via [`CoreDriver::complete`]; this only issues.
    pub fn tick(&mut self, now: Cycle, l2: &mut SnoopyL2) {
        if self.is_open_loop() {
            return self.tick_open(now, l2);
        }
        if self.done || self.outstanding.len() >= self.max_outstanding {
            return;
        }
        if now < self.gap_until {
            return;
        }
        let Some((op, addr, value)) = self.next_op(now) else {
            return;
        };
        // L1 first.
        let line = LineAddr::containing(addr, self.line_bytes);
        match op {
            TraceOp::Load => {
                if let Some(v) = self.l1.load(line) {
                    self.l1_hits += 1;
                    self.op_completed(now, v);
                    return;
                }
            }
            TraceOp::Store => {
                // Write-through: update the local copy and send to the L2.
                self.l1.store(line, value);
            }
            TraceOp::AtomicAdd => {
                // The L2 performs the RMW; the L1 copy becomes stale.
                self.l1.invalidate(line);
            }
        }
        let core_op = match op {
            TraceOp::Load => CoreOp::Load,
            TraceOp::Store => CoreOp::Store,
            TraceOp::AtomicAdd => CoreOp::AtomicAdd,
        };
        self.token_counter += 1;
        let token = self.token_counter;
        let accepted = l2.try_core_req(CoreReq {
            op: core_op,
            addr,
            value,
            token,
            enqueued: now,
            admitted: now,
        });
        if accepted {
            self.outstanding.push((token, op));
        } else {
            // L2 busy: retry the same op next cycle.
            self.rewind();
        }
    }

    /// One open-loop cycle: admit every arrival whose deadline has
    /// passed (tail-dropping at the queue cap — the trace record is
    /// consumed either way, so later drops discard exactly the right
    /// ops), then issue at most one queued request, matching the
    /// closed-loop issue width.
    fn tick_open(&mut self, now: Cycle, l2: &mut SnoopyL2) {
        while let Some(&a) = self.arrivals.get(self.arrival_next) {
            if now < Cycle::from(a) {
                break;
            }
            let rec = match &self.kind {
                CoreKind::Trace(t) => t.records()[self.arrival_next],
                CoreKind::Program(_) => unreachable!("open loop is trace-only"),
            };
            self.arrival_next += 1;
            if self.src_queue.len() >= self.src_cap {
                self.src_dropped += 1;
            } else {
                self.src_queue.push_back((a, rec));
            }
        }
        if self.arrival_next >= self.arrivals.len() && self.src_queue.is_empty() {
            self.mark_done(now);
        }
        if self.done || self.outstanding.len() >= self.max_outstanding {
            return;
        }
        let Some(&(arrival, rec)) = self.src_queue.front() else {
            return;
        };
        let line = LineAddr::containing(rec.addr, self.line_bytes);
        match rec.op {
            TraceOp::Load => {
                if let Some(v) = self.l1.load(line) {
                    self.l1_hits += 1;
                    self.src_queue.pop_front();
                    self.op_completed(now, v);
                    return;
                }
            }
            TraceOp::Store => self.l1.store(line, rec.value),
            TraceOp::AtomicAdd => self.l1.invalidate(line),
        }
        let core_op = match rec.op {
            TraceOp::Load => CoreOp::Load,
            TraceOp::Store => CoreOp::Store,
            TraceOp::AtomicAdd => CoreOp::AtomicAdd,
        };
        let token = self.token_counter + 1;
        let accepted = l2.try_core_req(CoreReq {
            op: core_op,
            addr: rec.addr,
            value: rec.value,
            token,
            enqueued: Cycle::from(arrival),
            admitted: now,
        });
        if accepted {
            self.token_counter = token;
            self.src_queue.pop_front();
            self.outstanding.push((token, rec.op));
        }
        // Rejected: the pair stays at the queue front and retries next
        // cycle. The L1 store/invalidate side effects above are
        // idempotent, the same property the closed-loop rewind relies on.
    }

    /// Delivers an L2 completion to this core.
    pub fn complete(&mut self, now: Cycle, resp: CoreResp) {
        let pos = self
            .outstanding
            .iter()
            .position(|(t, _)| *t == resp.token)
            .expect("completion without a matching outstanding op");
        let (_, op) = self.outstanding.remove(pos);
        if op == TraceOp::Load && resp.installed {
            // Fill the L1 with the loaded line (only when the L2 kept it:
            // inclusion).
            self.l1.fill(resp.addr, resp.value);
        }
        self.op_completed(now, resp.value);
    }

    fn op_completed(&mut self, now: Cycle, value: u64) {
        self.ops_done += 1;
        self.last_value = Some(value);
        if self.done && self.outstanding.is_empty() {
            self.finished_at.get_or_insert(now);
        }
    }

    /// Produces the next operation, advancing the program/trace. For trace
    /// records with a compute gap, the gap is charged first (as the
    /// absolute `gap_until` deadline) and the op issues once it passes.
    fn next_op(&mut self, now: Cycle) -> Option<(TraceOp, u64, u64)> {
        match &mut self.kind {
            CoreKind::Trace(trace) => {
                if self.pc >= trace.len() {
                    self.mark_done(now);
                    return None;
                }
                let rec = trace.records()[self.pc];
                if rec.gap > 0 && !self.gap_charged {
                    self.gap_charged = true;
                    // The charging tick issues nothing, then `gap` idle
                    // ticks pass: next issue at `now + gap + 1`, exactly
                    // the old per-cycle countdown's schedule.
                    self.gap_until = now + rec.gap as u64 + 1;
                    return None;
                }
                self.gap_charged = false;
                self.pc += 1;
                Some((rec.op, rec.addr, rec.value))
            }
            CoreKind::Program(prog) => match prog.next(self.last_value) {
                Some(op) => Some((op.op, op.addr, op.value)),
                None => {
                    self.mark_done(now);
                    None
                }
            },
        }
    }

    fn rewind(&mut self) {
        match &mut self.kind {
            CoreKind::Trace(_) => {
                // Re-issue the same record next cycle (gap already paid).
                self.pc -= 1;
                self.gap_charged = true;
                self.token_counter -= 1;
            }
            CoreKind::Program(_) => {
                // With one outstanding op per core and queue depth > 1 the
                // L2 never rejects; reaching here is a sizing bug.
                panic!("L2 rejected a program op; size the L2 queue >= 1");
            }
        }
    }

    fn mark_done(&mut self, now: Cycle) {
        if !self.done {
            self.done = true;
            if self.outstanding.is_empty() {
                self.finished_at.get_or_insert(now);
            }
        }
    }
}
