//! The intermittent executor: boot, run, fail, reboot, re-execute, commit.
//!
//! This is the task-model scheduler shared by every runtime. The current
//! task id lives in FRAM (restored on each boot); a task body that returns
//! `Err(PowerFailure)` is re-entered from the top, and a body that returns a
//! transition is committed through the runtime, after which control moves
//! on. A task whose energy demand exceeds what the supply can ever deliver
//! would re-execute forever — the non-termination bug of paper §3.5 — so
//! the executor gives up after a configurable number of attempts and reports
//! it.

use crate::ctx::TaskCtx;
use crate::error::Fault;
use crate::retry::RetryPolicy;
use crate::runtime::Runtime;
use crate::semantics::TaskId;
use crate::task::{App, Transition, Verdict};
use easeio_trace::{ActivationTracker, Event, EventKind, InstantKind, SpanKind, Status, NO_SITE};
use mcu_emu::{AllocTag, EnergyCause, Mcu, NvVar, Region, RunStats, WorkKind};
use periph::Peripherals;
use std::ops::ControlFlow;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Give up on a task after this many failed attempts (non-termination).
    pub max_attempts_per_task: u64,
    /// Retry/backoff policy for transient peripheral faults.
    pub retry: RetryPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            max_attempts_per_task: 5_000,
            retry: RetryPolicy::default(),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The application's final task transitioned to `Done`.
    Completed,
    /// A task could not complete within the attempt budget: the
    /// non-termination bug of paper §3.5.
    NonTermination,
    /// A non-recoverable fault — a DMA resource error or an exhausted I/O
    /// retry budget with no degradation — aborted the run; re-execution
    /// cannot clear it.
    Fault(Fault),
}

impl Outcome {
    /// Stable snake_case label for reports and streamed records:
    /// `completed`, `non_termination` or `fault`.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::NonTermination => "non_termination",
            Outcome::Fault(_) => "fault",
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// The time/energy ledger and counters.
    pub stats: RunStats,
    /// Total wall-clock time including dead time (µs).
    pub wall_us: u64,
    /// On-time (µs).
    pub on_us: u64,
    /// Application correctness, if the app defines a check.
    pub verdict: Option<Verdict>,
    /// Structured event trace, drained from the MCU's sink (empty unless
    /// `mcu.trace` was enabled before the run).
    pub events: Vec<Event>,
    /// Events lost to trace-ring overflow.
    pub events_dropped: u64,
    /// Per-spend samples of the cumulative per-cause energy ledger (empty
    /// unless `mcu.trace` was enabled) — the raw series behind the Chrome
    /// counter tracks.
    pub cause_samples: Vec<mcu_emu::CauseSample>,
}

/// Where the boot/attempt loop stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Power just came on: boot next.
    Boot,
    /// Start an attempt of this task next.
    Attempt(TaskId),
    /// The run ended.
    Done(Outcome),
}

/// The resumable position of the executor's boot/attempt loop: the
/// execution pointer, what runs next, the failed attempts of the current
/// activation and the activation tracker. Together with the MCU, the
/// runtime and the peripherals it is everything a run continues from.
#[derive(Debug, PartialEq)]
pub struct ExecState {
    cur: NvVar<u16>,
    phase: Phase,
    /// Failed attempts of the activation in progress (survives the boot
    /// loop so the non-termination guard covers boot-loop livelock too).
    attempts: u64,
    tracker: ActivationTracker,
}

impl Clone for ExecState {
    fn clone(&self) -> Self {
        Self {
            tracker: self.tracker.clone(),
            ..*self
        }
    }

    /// Copies `source` into this state, keeping the tracker's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            cur,
            phase,
            attempts,
            tracker,
        } = self;
        *cur = source.cur;
        *phase = source.phase;
        *attempts = source.attempts;
        tracker.clone_from(&source.tracker);
    }
}

impl ExecState {
    /// The start of a run of `app`: allocates the FRAM execution pointer
    /// and points it at the entry task. The MCU should be freshly
    /// constructed (or restored); the app's buffers must already be
    /// allocated in `mcu.mem` (apps do this in their builders).
    pub fn boot(app: &App, mcu: &mut Mcu) -> Self {
        // The execution pointer lives in FRAM, restored on every boot.
        let cur: NvVar<u16> = NvVar::alloc_tagged(&mut mcu.mem, Region::Fram, AllocTag::Runtime);
        cur.set(&mut mcu.mem, app.entry.0);
        Self {
            cur,
            phase: Phase::Boot,
            attempts: 0,
            tracker: ActivationTracker::new(),
        }
    }

    /// Whether `other` continues exactly like this state on a run that
    /// never observes the clock: equal in everything, with the tracker's
    /// timestamps left out ([`ActivationTracker::same_untimed`]).
    pub fn same_untimed(&self, other: &Self) -> bool {
        self.cur == other.cur
            && self.phase == other.phase
            && self.attempts == other.attempts
            && self.tracker.same_untimed(&other.tracker)
    }
}

/// The intermittent executor as a value: a run that can stop at any
/// task-attempt start and continue from a saved [`ExecState`]. It advances
/// the state it borrows, so a caller that reuses one state across runs
/// keeps the tracker's buffers.
pub struct Executor<'a> {
    app: &'a App,
    rt: &'a mut dyn Runtime,
    periph: &'a mut Peripherals,
    cfg: &'a ExecConfig,
    state: &'a mut ExecState,
}

impl<'a> Executor<'a> {
    /// Runs `app` from `state` — [`ExecState::boot`], or a state saved at a
    /// task-attempt start — over a runtime, peripherals and MCU in the
    /// matching state.
    pub fn new(
        app: &'a App,
        rt: &'a mut dyn Runtime,
        periph: &'a mut Peripherals,
        cfg: &'a ExecConfig,
        state: &'a mut ExecState,
    ) -> Self {
        Self {
            app,
            rt,
            periph,
            cfg,
            state,
        }
    }

    /// The loop position.
    pub fn state(&self) -> &ExecState {
        self.state
    }

    /// The runtime.
    pub fn runtime(&self) -> &dyn Runtime {
        &*self.rt
    }

    /// The peripherals.
    pub fn periph(&self) -> &Peripherals {
        self.periph
    }

    /// Runs until the app ends or `at_attempt`, called at every
    /// task-attempt start before anything of the attempt happens, breaks.
    /// After a break, calling `run` again starts that same attempt.
    pub fn run(
        &mut self,
        mcu: &mut Mcu,
        mut at_attempt: impl FnMut(&Self, &Mcu) -> ControlFlow<()>,
    ) {
        loop {
            match self.state.phase {
                Phase::Done(_) => return,
                Phase::Boot => self.state.phase = self.boot(mcu),
                Phase::Attempt(task_id) => {
                    if at_attempt(self, mcu).is_break() {
                        return;
                    }
                    self.state.phase = self.attempt(mcu, task_id);
                }
            }
        }
    }

    /// One boot: pay the boot overhead and restore the execution pointer.
    fn boot(&mut self, mcu: &mut Mcu) -> Phase {
        emit_instant(mcu, InstantKind::Boot, "boot");
        match boot(&mut *self.rt, mcu, self.state.cur) {
            // The app had already finished.
            Ok(u16::MAX) => Phase::Done(Outcome::Completed),
            Ok(raw) => Phase::Attempt(TaskId(raw)),
            Err(_) => {
                // Failure during boot itself: reboot again.
                self.state.attempts += 1;
                if self.state.attempts > self.cfg.max_attempts_per_task {
                    emit_instant(mcu, InstantKind::GiveUp, "boot");
                    Phase::Done(Outcome::NonTermination)
                } else {
                    Phase::Boot
                }
            }
        }
    }

    /// One attempt of `task_id`, through its commit; returns what runs
    /// next.
    fn attempt(&mut self, mcu: &mut Mcu, task_id: TaskId) -> Phase {
        let Self {
            app,
            rt,
            periph,
            cfg,
            state,
        } = self;
        let reexecution = state.attempts > 0;
        state.attempts += 1;
        if state.attempts > cfg.max_attempts_per_task {
            emit_instant(mcu, InstantKind::GiveUp, app.task(task_id).name);
            return Phase::Done(Outcome::NonTermination);
        }
        mcu.stats.task_attempts += 1;
        // Energy attribution: every spend in this attempt is charged to
        // this task; application work counts as forward progress on the
        // first attempt of an activation and as re-executed compute on
        // every replay after a failure. `reset_attribution` also clears
        // any cause scope a crashed attempt left open.
        mcu.reset_attribution();
        mcu.set_attr_task(task_id.0);
        mcu.set_replay_base(reexecution);
        // Boots, attempt starts and commits move host-side executor
        // state; each ends the MCU's effect epoch (see `TaskCtx`).
        mcu.advance_epoch();
        let task_name = app.task(task_id).name;
        // The attempt span's begin carries the attempt index within the
        // activation in `site` (> 0 means re-execution).
        let attempt_idx = (state.attempts - 1).min(NO_SITE as u64 - 1) as u16;
        emit_span(
            mcu,
            task_id.0,
            attempt_idx,
            task_name,
            EventKind::SpanBegin(SpanKind::TaskAttempt),
        );
        let cur = state.cur;
        let attempt = (|| {
            rt.on_task_entry(mcu, task_id, reexecution)?;
            let body = app.task(task_id).body.clone();
            let mut ctx = TaskCtx::new(
                mcu,
                periph,
                &mut **rt,
                &mut state.tracker,
                task_id,
                cfg.retry,
            );
            let transition = body(&mut ctx)?;
            // Commit: the runtime's flag/privatization publication and
            // the execution-pointer update are ONE atomic step. If the
            // energy for the whole commit is not there, nothing is
            // applied and the task re-executes with its flags intact.
            let next = match transition {
                Transition::To(t) => t.0,
                Transition::Done => u16::MAX,
            };
            let cost =
                rt.commit_cost(mcu, task_id) + mcu.cost.fram_write_word.times(cur.raw().words());
            emit_span(
                mcu,
                task_id.0,
                NO_SITE,
                task_name,
                EventKind::SpanBegin(SpanKind::Commit),
            );
            if let Err(e) =
                mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, cost))
            {
                emit_span(
                    mcu,
                    task_id.0,
                    NO_SITE,
                    task_name,
                    EventKind::SpanEnd(SpanKind::Commit, Status::Failed),
                );
                return Err(e.into());
            }
            mcu.advance_epoch();
            rt.commit_apply(mcu, task_id);
            cur.raw().store(&mut mcu.mem, next as u64);
            emit_span(
                mcu,
                task_id.0,
                NO_SITE,
                task_name,
                EventKind::SpanEnd(SpanKind::Commit, Status::Committed),
            );
            Ok::<Transition, Fault>(transition)
        })();
        match attempt {
            Ok(transition) => {
                mcu.stats.task_commits += 1;
                emit_span(
                    mcu,
                    task_id.0,
                    NO_SITE,
                    task_name,
                    EventKind::SpanEnd(SpanKind::TaskAttempt, Status::Committed),
                );
                state.tracker.commit(task_id.0);
                state.attempts = 0;
                match transition {
                    Transition::Done => Phase::Done(Outcome::Completed),
                    Transition::To(t) => Phase::Attempt(t),
                }
            }
            Err(Fault::Power(_)) => {
                // The MCU already cleared volatile memory and advanced
                // across the dead period; go back to the boot loop. The
                // span end lands after the dead period — profile
                // builders clip it back to the failure instant.
                emit_span(
                    mcu,
                    task_id.0,
                    NO_SITE,
                    task_name,
                    EventKind::SpanEnd(SpanKind::TaskAttempt, Status::Failed),
                );
                Phase::Boot
            }
            Err(f @ (Fault::Dma(_) | Fault::Io(_))) => {
                // Re-executing cannot clear a resource fault or refill
                // an exhausted retry budget mid-schedule: abort.
                emit_span(
                    mcu,
                    task_id.0,
                    NO_SITE,
                    task_name,
                    EventKind::SpanEnd(SpanKind::TaskAttempt, Status::Failed),
                );
                emit_instant(mcu, InstantKind::GiveUp, task_name);
                Phase::Done(Outcome::Fault(f))
            }
        }
    }

    /// Ends the run: the app's verdict if it completed, the ledger, and the
    /// drained trace. Panics if the run has not ended.
    pub fn finish(self, mcu: &mut Mcu) -> RunResult {
        let Phase::Done(outcome) = self.state.phase else {
            panic!("finish on a run that has not ended");
        };
        let verdict = if outcome == Outcome::Completed {
            self.app.verify.as_ref().map(|v| v(mcu, self.periph))
        } else {
            None
        };
        let events_dropped = mcu.trace.dropped();
        RunResult {
            outcome,
            stats: mcu.stats.clone(),
            wall_us: mcu.clock.now_us(),
            on_us: mcu.clock.on_us(),
            verdict,
            events: mcu.trace.take(),
            events_dropped,
            cause_samples: mcu.cause_samples().to_vec(),
        }
    }
}

/// Runs `app` under `rt` on `mcu`/`periph` until completion or give-up.
///
/// The MCU should be freshly constructed; the app's buffers must already be
/// allocated in `mcu.mem` (apps do this in their builders).
pub fn run_app(
    app: &App,
    rt: &mut dyn Runtime,
    mcu: &mut Mcu,
    periph: &mut Peripherals,
    cfg: &ExecConfig,
) -> RunResult {
    let mut state = ExecState::boot(app, mcu);
    let mut exec = Executor::new(app, rt, periph, cfg, &mut state);
    exec.run(mcu, |_, _| ControlFlow::Continue(()));
    exec.finish(mcu)
}

/// Records an unattributed instant at the current time/energy.
fn emit_instant(mcu: &mut Mcu, kind: InstantKind, name: &'static str) {
    let ts_us = mcu.now_us();
    let energy_nj = mcu.stats.total_energy_nj();
    mcu.trace
        .emit_with(|| Event::instant(ts_us, energy_nj, kind, name));
}

/// Records a task-attributed span event at the current time/energy.
fn emit_span(mcu: &mut Mcu, task: u16, site: u16, name: &'static str, kind: EventKind) {
    let ts_us = mcu.now_us();
    let energy_nj = mcu.stats.total_energy_nj();
    mcu.trace.emit_with(|| Event {
        ts_us,
        energy_nj,
        task,
        site,
        name,
        kind,
    });
}

/// Boot sequence: pay the runtime's boot cost and reload the execution
/// pointer from FRAM.
fn boot(
    rt: &mut dyn Runtime,
    mcu: &mut Mcu,
    cur: NvVar<u16>,
) -> Result<u16, mcu_emu::PowerFailure> {
    // Boot overhead is kernel work outside any task; clear whatever
    // attribution state the interrupted attempt left behind.
    mcu.reset_attribution();
    mcu.advance_epoch();
    mcu.spend(WorkKind::Overhead, rt.boot_cost())?;
    let raw = mcu.load_var(WorkKind::Overhead, cur.raw())?;
    Ok(raw as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveRuntime;
    use crate::task::{Inventory, TaskDef, TaskResult};
    use crate::TaskCtx;
    use mcu_emu::{Supply, TimerResetConfig};
    use std::rc::Rc;

    fn two_task_app(mcu: &mut Mcu) -> (App, NvVar<u32>) {
        let counter: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
        let body_a = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            ctx.compute(100)?;
            let v = ctx.read(counter)?;
            ctx.write(counter, v + 1)?;
            Ok(Transition::To(TaskId(1)))
        };
        let body_b = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            ctx.compute(50)?;
            let v = ctx.read(counter)?;
            if v < 5 {
                Ok(Transition::To(TaskId(0)))
            } else {
                Ok(Transition::Done)
            }
        };
        let app = App {
            name: "two-task",
            tasks: vec![
                TaskDef {
                    name: "inc",
                    body: Rc::new(body_a),
                },
                TaskDef {
                    name: "check",
                    body: Rc::new(body_b),
                },
            ],
            entry: TaskId(0),
            inventory: Inventory {
                tasks: 2,
                ..Default::default()
            },
            verify: None,
        };
        (app, counter)
    }

    #[test]
    fn continuous_power_runs_to_completion() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(1);
        let (app, counter) = two_task_app(&mut mcu);
        let mut rt = NaiveRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(counter.get(&mcu.mem), 5);
        assert_eq!(r.stats.power_failures, 0);
        // 5 inc commits + 5 check commits.
        assert_eq!(r.stats.task_commits, 10);
        assert_eq!(r.stats.task_attempts, 10);
    }

    #[test]
    fn intermittent_power_still_completes_task_graph() {
        let cfg = TimerResetConfig {
            on_min_us: 300,
            on_max_us: 900,
            off_min_us: 50,
            off_max_us: 100,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 11));
        let mut p = Peripherals::new(1);
        let (app, counter) = two_task_app(&mut mcu);
        let mut rt = NaiveRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        // The naive runtime is unsafe in general, but this app only ever
        // increments between commits, and a failed attempt re-reads the
        // committed value... note: naive does NOT privatize, so `counter`
        // may be incremented more than 5 times if a failure lands between
        // the write and the commit. It must be at least 5.
        assert!(counter.get(&mcu.mem) >= 5);
        assert!(r.stats.power_failures > 0);
        assert!(r.stats.task_attempts > r.stats.task_commits);
        assert!(r.wall_us > r.on_us);
    }

    #[test]
    fn impossible_task_reports_non_termination() {
        // Each attempt needs 5 ms of uninterrupted time but the supply dies
        // every 1 ms: the task can never finish.
        let cfg = TimerResetConfig {
            on_min_us: 1_000,
            on_max_us: 1_000,
            off_min_us: 10,
            off_max_us: 10,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 5));
        let mut p = Peripherals::new(1);
        let app = App {
            name: "hog",
            tasks: vec![TaskDef {
                name: "hog",
                body: Rc::new(|ctx: &mut TaskCtx<'_>| {
                    ctx.compute(5_000)?;
                    Ok(Transition::Done)
                }),
            }],
            entry: TaskId(0),
            inventory: Inventory::default(),
            verify: None,
        };
        let mut rt = NaiveRuntime::new();
        let r = run_app(
            &app,
            &mut rt,
            &mut mcu,
            &mut p,
            &ExecConfig {
                max_attempts_per_task: 100,
                ..Default::default()
            },
        );
        assert_eq!(r.outcome, Outcome::NonTermination);
    }

    #[test]
    fn trace_records_the_execution_timeline() {
        let cfg = TimerResetConfig {
            on_min_us: 300,
            on_max_us: 900,
            off_min_us: 50,
            off_max_us: 100,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 11));
        mcu.trace = mcu_emu::TraceSink::enabled();
        let mut p = Peripherals::new(1);
        let (app, _) = two_task_app(&mut mcu);
        let mut rt = NaiveRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.events_dropped, 0);
        let events = &r.events;
        assert!(
            matches!(
                events.first(),
                Some(Event {
                    ts_us: 0,
                    kind: EventKind::Instant(InstantKind::Boot),
                    ..
                })
            ),
            "the run starts with a boot"
        );
        // Timestamps and energies are monotone.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(events.windows(2).all(|w| w[0].energy_nj <= w[1].energy_nj));
        // Every power failure is eventually followed by a boot.
        for (i, ev) in events.iter().enumerate() {
            if ev.kind == EventKind::Instant(InstantKind::PowerFailure) {
                assert!(
                    events[i + 1..]
                        .iter()
                        .any(|e| e.kind == EventKind::Instant(InstantKind::Boot)),
                    "failure at index {i} not followed by a boot"
                );
            }
        }
        // Span ends match the ledger.
        let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(
            count(EventKind::SpanEnd(SpanKind::TaskAttempt, Status::Committed)),
            r.stats.task_commits
        );
        assert_eq!(
            count(EventKind::Instant(InstantKind::PowerFailure)),
            r.stats.power_failures
        );
        assert_eq!(
            count(EventKind::SpanBegin(SpanKind::TaskAttempt)),
            r.stats.task_attempts
        );
        // Power-off spans are balanced and task names label the attempts.
        assert_eq!(
            count(EventKind::SpanBegin(SpanKind::PowerOff)),
            count(EventKind::SpanEnd(SpanKind::PowerOff, Status::None))
        );
        assert!(events
            .iter()
            .any(|e| e.name == "inc" && e.kind == EventKind::SpanBegin(SpanKind::TaskAttempt)));
        // Re-execution attempts (site > 0) appear whenever failures happened
        // mid-task.
        if r.stats.task_attempts > r.stats.task_commits {
            assert!(events
                .iter()
                .any(|e| e.kind == EventKind::SpanBegin(SpanKind::TaskAttempt) && e.site > 0));
        }
        // An untraced run yields no events.
        let mut mcu2 = Mcu::new(Supply::continuous());
        let mut p2 = Peripherals::new(1);
        let (app2, _) = two_task_app(&mut mcu2);
        let mut rt2 = NaiveRuntime::new();
        let r2 = run_app(&app2, &mut rt2, &mut mcu2, &mut p2, &ExecConfig::default());
        assert!(r2.events.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = TimerResetConfig {
                on_min_us: 200,
                on_max_us: 700,
                off_min_us: 20,
                off_max_us: 80,
            };
            let mut mcu = Mcu::new(Supply::timer(cfg, seed));
            let mut p = Peripherals::new(2);
            let (app, _) = two_task_app(&mut mcu);
            let mut rt = NaiveRuntime::new();
            let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
            (r.wall_us, r.stats.power_failures, r.stats.task_attempts)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
