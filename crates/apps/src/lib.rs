//! The EaseIO paper's evaluation applications.
//!
//! Every application is built once against a fresh simulated MCU and runs
//! unmodified on every runtime (Alpaca, InK, EaseIO, and the naive runtime):
//! the EaseIO annotations (`Single`/`Timely`/`Always`, I/O blocks,
//! `Exclude`) are carried by the task bodies and simply ignored by runtimes
//! that predate them — exactly how the paper implements each benchmark for
//! each system (Table 3).
//!
//! | module | paper workload | experiments |
//! |--------|----------------|-------------|
//! | [`dma_app`] | uni-task `Single`: NVM→NVM DMA | Fig 7a, Table 4, Fig 8 |
//! | [`temp_app`] | uni-task `Timely`: temperature sensing | Fig 7b, Table 4, Fig 8 |
//! | [`lea_app`] | uni-task `Always`: LEA FIR | Fig 7c, Table 4, Fig 8 |
//! | [`fir`] | FIR filter, 3 DMA + LEA, shared in/out buffer | Fig 10, 11, 12 |
//! | [`weather`] | 11-task DNN weather classifier | Fig 9, 10, 11, Table 5 |
//! | [`dnn`] | the classifier's 5-layer DNN (single/double buffer) | Table 5 |
//! | [`unsafe_branch`] | Fig 2c stdy/alarm branch divergence | §2.1.3 tests |
//! | [`flaky_radio`] | sense→transmit relay under radio faults (extension) | fault sweeps |
//! | [`ota_update`] | stage→flip→activate OTA update window (extension) | version-atomicity sweeps |
//! | [`harness`] | seeded experiment driver shared by benches and tests | all |

pub mod dma_app;
pub mod dnn;
pub mod fir;
pub mod fir_long;
pub mod flaky_radio;
pub mod harness;
pub mod lea_app;
pub mod motion;
pub mod ota_update;
pub mod synth;
pub mod temp_app;
pub mod unsafe_branch;
pub mod weather;

pub use harness::{
    kernel_builder, run_many, run_once, standard_factory, ExperimentCfg, KernelBuilder,
    KernelFactory, KernelKind, MakeRuntime, Summary,
};
