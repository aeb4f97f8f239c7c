//! I/O operation descriptors and their execution.
//!
//! An [`IoOp`] is the unit the `_call_IO` abstraction wraps: a synchronous,
//! arbitrarily-restartable peripheral operation with a price and an `i32`
//! result. Executing one follows the spend-then-mutate rule: the full cost
//! is pushed through the power supply first; the peripheral effect (sample,
//! transmission, vector computation) happens only if the energy was there.
//! This models the paper's assumption that I/O functions are synchronous so
//! completion flags are set strictly after the operation finished (§6).

use crate::error::{IoFailure, IoFault};
use crate::semantics::TaskId;
use mcu_emu::{Addr, Cost, Counter, Mcu, PowerFailure, WorkKind};
use periph::{camera, lea, radio, sensors::Sensor, PeriphClass, Peripherals};
use std::sync::Arc;

/// A peripheral operation invocable through `_call_IO`.
#[derive(Debug, Clone, PartialEq)]
pub enum IoOp {
    /// Sample a sensor; returns the reading.
    Sense(Sensor),
    /// Transmit a payload over the radio; returns the byte count.
    Send {
        /// Payload words captured at call time. The radio log shares them
        /// rather than copying: each transmission of this op logs the same
        /// words.
        payload: Arc<[i32]>,
    },
    /// Capture a deterministic image into `dst`; returns a checksum.
    Capture {
        /// Destination buffer (any region).
        dst: Addr,
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// Scene seed.
        seed: u64,
    },
    /// LEA FIR filter over LEA-RAM buffers; returns the MAC count as i32.
    LeaFir {
        /// Input samples (LEA-RAM), `n_out + taps - 1` elements.
        x: Addr,
        /// Coefficients (LEA-RAM).
        h: Addr,
        /// Output (LEA-RAM).
        y: Addr,
        /// Output length.
        n_out: u32,
        /// Tap count.
        taps: u32,
    },
    /// LEA 2-D valid convolution; returns the MAC count as i32.
    LeaConv2d {
        /// Input image (LEA-RAM).
        input: Addr,
        /// Input width.
        w: u32,
        /// Input height.
        h: u32,
        /// Kernel (LEA-RAM).
        kernel: Addr,
        /// Kernel width.
        kw: u32,
        /// Kernel height.
        kh: u32,
        /// Output (LEA-RAM).
        out: Addr,
    },
    /// LEA in-place ReLU; returns `n`.
    LeaRelu {
        /// Buffer (LEA-RAM).
        buf: Addr,
        /// Element count.
        n: u32,
    },
    /// LEA fully-connected layer; returns the MAC count as i32.
    LeaFc {
        /// Input vector (LEA-RAM).
        x: Addr,
        /// Input length.
        n_in: u32,
        /// Row-major weights (LEA-RAM).
        weights: Addr,
        /// Output vector (LEA-RAM).
        out: Addr,
        /// Output length.
        n_out: u32,
    },
    /// LEA argmax (the inference layer); returns the winning index.
    LeaArgmax {
        /// Buffer (LEA-RAM).
        buf: Addr,
        /// Element count.
        n: u32,
    },
    /// A generic priced operation (the paper emulates some peripherals as
    /// delay loops); returns 0.
    Delay {
        /// Price of the operation.
        cost: Cost,
    },
}

impl IoOp {
    /// The operation's cost from the MCU's calibration table.
    pub fn cost(&self, mcu: &Mcu) -> Cost {
        let t = &mcu.cost;
        match self {
            IoOp::Sense(s) => s.cost(t),
            IoOp::Send { payload } => radio::send_cost(t, payload.len() as u64 * 4),
            IoOp::Capture { width, height, .. } => camera::capture_cost(t, width * height),
            IoOp::LeaFir { n_out, taps, .. } => lea::lea_cost(t, lea::fir_macs(*n_out, *taps)),
            IoOp::LeaConv2d { w, h, kw, kh, .. } => {
                lea::lea_cost(t, lea::conv2d_macs(*w, *h, *kw, *kh))
            }
            IoOp::LeaRelu { n, .. } => lea::lea_cost(t, *n as u64),
            IoOp::LeaFc { n_in, n_out, .. } => lea::lea_cost(t, *n_in as u64 * *n_out as u64),
            IoOp::LeaArgmax { n, .. } => lea::lea_cost(t, *n as u64),
            IoOp::Delay { cost } => *cost,
        }
    }

    /// Short name for reports and counters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            IoOp::Sense(s) => s.name(),
            IoOp::Send { .. } => "send",
            IoOp::Capture { .. } => "capture",
            IoOp::LeaFir { .. } => "lea_fir",
            IoOp::LeaConv2d { .. } => "lea_conv2d",
            IoOp::LeaRelu { .. } => "lea_relu",
            IoOp::LeaFc { .. } => "lea_fc",
            IoOp::LeaArgmax { .. } => "lea_argmax",
            IoOp::Delay { .. } => "delay",
        }
    }

    /// The peripheral class a fault plan schedules this operation under.
    /// `Delay` models a pure busy-wait and cannot fault.
    pub fn periph_class(&self) -> Option<PeriphClass> {
        Some(match self {
            IoOp::Sense(_) => PeriphClass::Sensor,
            IoOp::Send { .. } => PeriphClass::Radio,
            IoOp::Capture { .. } => PeriphClass::Camera,
            IoOp::LeaFir { .. }
            | IoOp::LeaConv2d { .. }
            | IoOp::LeaRelu { .. }
            | IoOp::LeaFc { .. }
            | IoOp::LeaArgmax { .. } => PeriphClass::Lea,
            IoOp::Delay { .. } => return None,
        })
    }
}

/// Executes `op` on the peripherals: charges the full cost as application
/// work, then applies the effect and returns the operation's value.
///
/// Shared by every runtime — the runtimes differ only in *whether* they call
/// this, never in how the operation itself runs. `task`/`site` name the call
/// site for the peripheral fault schedule: if a transient fault is scheduled
/// for this physical attempt, the full cost is still charged (the bus was
/// driven, the accelerator spun) but the attempt ends in
/// [`IoFailure::Fault`]. A radio NACK is the one *post-effect* fault: the
/// packet is transmitted and logged before the error is returned.
pub fn perform_io(
    mcu: &mut Mcu,
    periph: &mut Peripherals,
    op: &IoOp,
    task: TaskId,
    site: u16,
) -> Result<i32, IoFailure> {
    let cost = op.cost(mcu);
    mcu.spend(WorkKind::App, cost)?;
    let now = mcu.now_us();
    // Sensor samples are functions of the current time, and transmitted
    // packets are logged with their send time — both let wall-clock time
    // reach state a sweep compares, which forbids boundary merging.
    if matches!(op, IoOp::Sense(_) | IoOp::Send { .. }) {
        mcu.note_time_observed();
    }
    if let Some(class) = op.periph_class() {
        if let Some(kind) = periph.faults.next_fault(class, task.0, site) {
            mcu.stats.bump(Counter::IoFaults);
            mcu.stats.bump(kind.counter());
            let fault = if kind.effect_done() {
                // Post-effect fault (NACK): the external effect happens.
                let value = match op {
                    IoOp::Send { payload } => {
                        periph.radio.transmit(now, Arc::clone(payload));
                        (payload.len() * 4) as i32
                    }
                    _ => unreachable!("only radio faults are post-effect"),
                };
                IoFault {
                    kind,
                    op: op.kind_name(),
                    effect_done: true,
                    value,
                }
            } else {
                IoFault {
                    kind,
                    op: op.kind_name(),
                    effect_done: false,
                    value: 0,
                }
            };
            return Err(IoFailure::Fault(fault));
        }
    }
    mcu.stats.io_executed += 1;
    let value = match op {
        IoOp::Sense(s) => s.sample(&periph.env, now),
        IoOp::Send { payload } => {
            periph.radio.transmit(now, Arc::clone(payload));
            (payload.len() * 4) as i32
        }
        IoOp::Capture {
            dst,
            width,
            height,
            seed,
        } => {
            camera::capture(&mut mcu.mem, *dst, *width, *height, *seed);
            // Checksum so callers can branch on the capture like a value.
            let n = width * height;
            let mut sum = 0i32;
            for i in 0..n {
                sum = sum.wrapping_add(camera::scene_pixel(*seed, *width, i) as i32);
            }
            sum
        }
        IoOp::LeaFir {
            x,
            h,
            y,
            n_out,
            taps,
        } => lea::fir(&mut mcu.mem, *x, *h, *y, *n_out, *taps) as i32,
        IoOp::LeaConv2d {
            input,
            w,
            h,
            kernel,
            kw,
            kh,
            out,
        } => lea::conv2d(&mut mcu.mem, *input, *w, *h, *kernel, *kw, *kh, *out) as i32,
        IoOp::LeaRelu { buf, n } => lea::relu(&mut mcu.mem, *buf, *n) as i32,
        IoOp::LeaFc {
            x,
            n_in,
            weights,
            out,
            n_out,
        } => lea::fully_connected(&mut mcu.mem, *x, *n_in, *weights, *out, *n_out) as i32,
        IoOp::LeaArgmax { buf, n } => lea::argmax(&mcu.mem, *buf, *n).0 as i32,
        IoOp::Delay { .. } => 0,
    };
    Ok(value)
}

/// Performs a raw DMA transfer: charges the transfer cost under `kind`,
/// counts it, then moves the bytes. Runtimes call this once they have
/// decided a transfer must actually happen.
pub fn perform_dma(
    mcu: &mut Mcu,
    src: Addr,
    dst: Addr,
    bytes: u32,
    kind: WorkKind,
) -> Result<(), PowerFailure> {
    let cost = periph::dma::transfer_cost(&mcu.cost, bytes);
    mcu.spend(kind, cost)?;
    mcu.stats.dma_executed += 1;
    periph::dma::transfer(&mut mcu.mem, src, dst, bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::{AllocTag, Region, Supply};
    use periph::FaultPlan;

    fn setup() -> (Mcu, Peripherals) {
        (Mcu::new(Supply::continuous()), Peripherals::new(7))
    }

    #[test]
    fn sense_returns_environment_reading() {
        let (mut mcu, mut p) = setup();
        let v = perform_io(&mut mcu, &mut p, &IoOp::Sense(Sensor::Temp), TaskId(0), 0).unwrap();
        // The sample is taken at completion time, after the sensing delay.
        assert_eq!(v, p.env.temp_centi_c(mcu.now_us()));
        assert_eq!(mcu.stats.io_executed, 1);
        assert!(mcu.stats.app_time_us >= mcu.cost.sense_temp.time_us);
    }

    #[test]
    fn send_logs_packet() {
        let (mut mcu, mut p) = setup();
        let v = perform_io(
            &mut mcu,
            &mut p,
            &IoOp::Send {
                payload: Arc::from([1, 2, 3]),
            },
            TaskId(0),
            0,
        )
        .unwrap();
        assert_eq!(v, 12);
        assert_eq!(p.radio.count(), 1);
        assert_eq!(*p.radio.packets()[0].payload, [1, 2, 3]);
    }

    #[test]
    fn capture_fills_buffer_and_checksums() {
        let (mut mcu, mut p) = setup();
        let dst = mcu.mem.alloc(Region::Fram, 32, AllocTag::App);
        let v = perform_io(
            &mut mcu,
            &mut p,
            &IoOp::Capture {
                dst,
                width: 4,
                height: 4,
                seed: 3,
            },
            TaskId(0),
            0,
        )
        .unwrap();
        let pixels: Vec<i16> = mcu_emu::read_scalars(&mcu.mem, dst, 16);
        let sum = pixels.iter().fold(0i32, |s, p| s.wrapping_add(*p as i32));
        assert_eq!(v, sum);
    }

    #[test]
    fn lea_fir_runs_through_io_layer() {
        let (mut mcu, mut p) = setup();
        let x = mcu.mem.alloc(Region::LeaRam, 8, AllocTag::App);
        let h = mcu.mem.alloc(Region::LeaRam, 2, AllocTag::App);
        let y = mcu.mem.alloc(Region::LeaRam, 8, AllocTag::App);
        mcu.mem.write_bytes(x, &256i16.to_le_bytes());
        mcu.mem.write_bytes(h, &(1i16 << 8).to_le_bytes());
        let macs = perform_io(
            &mut mcu,
            &mut p,
            &IoOp::LeaFir {
                x,
                h,
                y,
                n_out: 4,
                taps: 1,
            },
            TaskId(0),
            0,
        )
        .unwrap();
        assert_eq!(macs, 4);
        assert_eq!(mcu.mem.read_bytes(y, 2), &256i16.to_le_bytes()[..]);
    }

    #[test]
    fn failed_spend_means_no_effect() {
        // With a supply that dies immediately, the radio must never see the
        // packet: spend-then-mutate.
        let cfg = mcu_emu::TimerResetConfig {
            on_min_us: 10,
            on_max_us: 10,
            off_min_us: 1,
            off_max_us: 1,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 1));
        let mut p = Peripherals::new(1);
        let r = perform_io(
            &mut mcu,
            &mut p,
            &IoOp::Send {
                payload: Arc::from([9]),
            },
            TaskId(0),
            0,
        );
        assert!(r.is_err());
        assert_eq!(p.radio.count(), 0);
        assert_eq!(mcu.stats.io_executed, 0);
    }

    #[test]
    fn cost_of_each_kind_is_positive() {
        let (mcu, _) = setup();
        let a = Addr::new(Region::LeaRam, 0);
        let ops = [
            IoOp::Sense(Sensor::Humd),
            IoOp::Send {
                payload: Arc::from([0]),
            },
            IoOp::Capture {
                dst: a,
                width: 2,
                height: 2,
                seed: 0,
            },
            IoOp::LeaFir {
                x: a,
                h: a,
                y: a,
                n_out: 1,
                taps: 1,
            },
            IoOp::LeaRelu { buf: a, n: 3 },
            IoOp::LeaArgmax { buf: a, n: 3 },
            IoOp::Delay {
                cost: Cost::new(5, 5),
            },
        ];
        for op in ops {
            assert!(op.cost(&mcu).time_us > 0, "{} has no cost", op.kind_name());
        }
    }

    #[test]
    fn scheduled_fault_charges_cost_without_effect() {
        let (mut mcu, mut p) = setup();
        p.faults.install(FaultPlan::new(1, 1000));
        let r = perform_io(&mut mcu, &mut p, &IoOp::Sense(Sensor::Temp), TaskId(0), 0);
        match r {
            Err(IoFailure::Fault(f)) => {
                assert_eq!(f.kind, periph::FaultKind::SensorTimeout);
                assert!(!f.effect_done);
            }
            other => panic!("expected a fault, got {other:?}"),
        }
        assert_eq!(
            mcu.stats.io_executed, 0,
            "a faulted attempt is not an execution"
        );
        assert!(
            mcu.stats.app_time_us >= mcu.cost.sense_temp.time_us,
            "the faulted attempt still drove the bus"
        );
        assert_eq!(mcu.stats.counter(Counter::IoFaults), 1);
        assert_eq!(mcu.stats.counter(Counter::SensorTimeout), 1);
    }

    #[test]
    fn radio_nack_is_post_effect() {
        let (mut mcu, mut p) = setup();
        p.faults.install(FaultPlan::new(1, 1000));
        // Every radio attempt faults; walk the schedule to its first NACK.
        loop {
            let r = perform_io(
                &mut mcu,
                &mut p,
                &IoOp::Send {
                    payload: Arc::from([5]),
                },
                TaskId(0),
                0,
            );
            match r {
                Err(IoFailure::Fault(f)) if f.effect_done => {
                    assert_eq!(f.kind, periph::FaultKind::RadioNack);
                    assert_eq!(f.value, 4);
                    break;
                }
                Err(IoFailure::Fault(_)) => continue, // a drop: nothing left the radio
                other => panic!("rate 1000 must fault every attempt, got {other:?}"),
            }
        }
        assert_eq!(p.radio.count(), 1, "the NACKed packet is in the air");
    }

    #[test]
    fn delay_ops_never_fault() {
        let (mut mcu, mut p) = setup();
        p.faults.install(FaultPlan::new(1, 1000));
        let op = IoOp::Delay {
            cost: Cost::new(10, 10),
        };
        assert_eq!(op.periph_class(), None);
        assert_eq!(perform_io(&mut mcu, &mut p, &op, TaskId(0), 0), Ok(0));
    }

    #[test]
    fn fault_schedule_is_per_site_and_reproducible() {
        let run = |site: u16| {
            let (mut mcu, mut p) = setup();
            p.faults.install(FaultPlan::new(9, 300));
            (0..12u32)
                .map(|_| {
                    perform_io(
                        &mut mcu,
                        &mut p,
                        &IoOp::Sense(Sensor::Temp),
                        TaskId(2),
                        site,
                    )
                    .is_err()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same coordinates, same schedule");
        assert_ne!(run(0), run(1), "sites have independent schedules");
    }
}
