//! easeio-repro — umbrella crate for the EaseIO (EuroSys '23) reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can
//! depend on a single package:
//!
//! * [`easeio_trace`] — structured tracing, profiles, and run reports;
//! * [`mcu_emu`] — the simulated MSP430FR5994 platform;
//! * [`periph`] — sensors, radio, camera, DMA, LEA, environment;
//! * [`kernel`] — task model, executor, Alpaca/InK/naive runtimes;
//! * [`easeio_core`] — the EaseIO runtime (the paper's contribution);
//! * [`apps`] — the paper's evaluation applications and experiment harness.
//!
//! # Quick start
//!
//! ```
//! use easeio_repro::apps::{dma_app, harness::{KernelBuilder, KernelKind}};
//! use easeio_repro::kernel::{run_app, Outcome};
//! use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};
//!
//! // Build the paper's uni-task DMA benchmark on a simulated MCU that
//! // loses power every 5–20 ms, and run it under EaseIO.
//! let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), 42));
//! let app = dma_app::build(&mut mcu, &dma_app::DmaAppCfg::default());
//! let (mut rt, mut periph, exec) = KernelBuilder::new(KernelKind::EaseIo).boot(42);
//! let result = run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
//! assert_eq!(result.outcome, Outcome::Completed);
//! ```

pub use apps;
pub use easec;
pub use easeio_core;
pub use easeio_trace;
pub use kernel;
pub use mcu_emu;
pub use periph;
