//! Task-based intermittent execution: task model, executor, baselines.
//!
//! This crate provides the task-based programming model the EaseIO paper
//! builds on (tasks with all-or-nothing semantics, re-executed from the top
//! after every power failure), a [`runtime::Runtime`] trait through which a
//! concrete runtime implements privatization and I/O re-execution policy,
//! and the two state-of-the-art baselines the paper compares against:
//!
//! * [`alpaca::AlpacaRuntime`] — privatizes write-after-read task-shared
//!   variables, committing private copies at task end (Maeng et al.,
//!   OOPSLA '17);
//! * [`ink::InkRuntime`] — buffers the task's entire accessed non-volatile
//!   state and commits it at task end (Yildirim et al., SenSys '18);
//! * [`naive::NaiveRuntime`] — no privatization at all, for demonstrating
//!   the failure modes.
//!
//! Neither baseline intercepts DMA or understands I/O re-execution
//! semantics: every peripheral operation inside an interrupted task repeats
//! after reboot, which is precisely the behaviour the paper measures as
//! wasted work, idempotence bugs, and unsafe execution. The EaseIO runtime
//! itself lives in the `easeio-core` crate.

pub mod alpaca;
pub mod builder;
pub mod ctx;
pub mod error;
pub mod executor;
pub mod footprint;
pub mod ink;
pub mod io;
pub mod naive;
pub mod retry;
pub mod runtime;
pub mod semantics;
pub mod task;
pub mod update;

pub use builder::{KernelBuilder, KernelFactory, KernelKind};
pub use ctx::TaskCtx;
pub use error::{DmaError, Fault, IoError, IoFailure, IoFault};
pub use executor::{run_app, ExecConfig, ExecState, Executor, Outcome, RunResult};
pub use io::IoOp;
pub use retry::{FaultSpec, RetryPolicy};
pub use runtime::{reset_runtime, DmaOutcome, IoOutcome, Runtime, RuntimeState};
pub use semantics::{DmaAnnotation, ReexecSemantics, TaskId};
pub use task::{App, Inventory, TaskDef, TaskResult, Transition, Verdict};
pub use update::{graph_hash, TaskGraphVersion, UpdateStore};
