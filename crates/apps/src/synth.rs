//! Randomized intermittent programs + a continuous-execution oracle.
//!
//! The strongest form of the paper's correctness claim (§3.5) is an
//! *equivalence*: under any failure schedule, EaseIO's final non-volatile
//! memory equals what a continuous-power execution would have produced with
//! the same I/O values. This module makes that claim mechanically checkable
//! on arbitrary programs:
//!
//! 1. [`generate`] builds a random (but seeded, reproducible) task graph
//!    from a small op language — computes, scalar reads/writes, sensor
//!    reads under all three semantics, I/O blocks, branches on sensed
//!    values, and DMA transfers across every memory-type class (including
//!    in-place FRAM→FRAM copies like the FIR benchmark's WAR pattern);
//! 2. running the app records, per task, the I/O values its *committed*
//!    attempt used;
//! 3. [`oracle`] replays the program as a pure interpreter over model
//!    memory, feeding the recorded values — i.e. the continuous execution
//!    the device *thinks* it performed;
//! 4. the test compares the simulator's final FRAM with the model's.
//!
//! Any hole in lock flags, block precedence, DMA privatization, or regional
//! privatization shows up as a divergence on some seed.
//!
//! To keep the oracle sound, generated programs respect the programming
//! discipline the systems under test assume:
//!
//! * I/O outputs flow only into scalar variables (never into DMA source
//!   buffers — that pattern requires the §4.3.1 `related` annotation, which
//!   is tested separately);
//! * buffer writes use compile-time constants;
//! * within one task, a buffer is either CPU-written or DMA-accessed, never
//!   both (InK's double buffering redirects CPU writes to a working copy
//!   that DMA — which addresses physical memory — cannot see; mixing the
//!   two in one task is broken on *continuous* power under real InK too).

use crate::harness::{KernelKind, MakeRuntime};
use kernel::{
    run_app, App, ExecConfig, Inventory, IoOp, Outcome, ReexecSemantics, TaskCtx, TaskDef, TaskId,
    TaskResult, Transition,
};
use mcu_emu::{Mcu, NvBuf, NvVar, Region, Supply};
use periph::{Peripherals, Sensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Number of scalar FRAM variables in every synthetic program.
pub const VARS: usize = 6;
/// Number of FRAM buffers.
pub const BUFS: usize = 3;
/// Elements per buffer.
pub const BUF_LEN: u32 = 24;
/// Elements in the LEA-RAM staging buffer.
pub const LEA_LEN: u32 = 24;

/// One operation of the synthetic language.
#[derive(Debug, Clone)]
pub enum Op {
    /// Plain computation.
    Compute(u16),
    /// `var[a] = var[a] + delta` — a WAR access pattern.
    Bump {
        /// Variable index.
        var: u8,
        /// Added constant.
        delta: i32,
    },
    /// `var[a] = val`.
    Set {
        /// Variable index.
        var: u8,
        /// Stored constant.
        val: i32,
    },
    /// `buf[b][i] = val` (constant data only; see module docs).
    BufSet {
        /// Buffer index.
        buf: u8,
        /// Element index.
        idx: u8,
        /// Stored constant.
        val: i16,
    },
    /// `var[dst] = sense(sensor)` under the given semantics.
    Sense {
        /// Destination variable.
        var: u8,
        /// Which sensor.
        sensor: Sensor,
        /// 0 = Single, 1 = Timely(window_ms), 2 = Always.
        sem_kind: u8,
        /// `Timely` window in ms.
        window_ms: u8,
    },
    /// Branch on a variable against a threshold; each arm bumps a variable.
    Branch {
        /// Variable examined.
        var: u8,
        /// Threshold.
        threshold: i32,
        /// Variable bumped when `var < threshold`.
        then_var: u8,
        /// Variable bumped otherwise.
        else_var: u8,
    },
    /// DMA copy `elems` elements from `buf[src]+src_off` to
    /// `buf[dst]+dst_off` (FRAM→FRAM, `Single`; src may equal dst).
    DmaFram {
        /// Source buffer.
        src: u8,
        /// Source element offset.
        src_off: u8,
        /// Destination buffer.
        dst: u8,
        /// Destination element offset.
        dst_off: u8,
        /// Elements copied.
        elems: u8,
    },
    /// Stage `elems` elements of `buf[src]` into LEA-RAM (`Private`), then
    /// copy them back over `buf[src]+1` (`Single`) — the FIR benchmark's
    /// overlapping fetch/write-back WAR pattern in miniature.
    DmaStageRoundtrip {
        /// Buffer staged and overwritten.
        src: u8,
        /// Elements moved.
        elems: u8,
    },
    /// An I/O block containing 1–3 senses.
    Block {
        /// 0 = Single, 1 = Timely(window_ms).
        sem_kind: u8,
        /// `Timely` window in ms.
        window_ms: u8,
        /// The senses inside: (dst var, sensor).
        senses: Vec<(u8, Sensor)>,
    },
}

/// A synthetic program: a linear chain of tasks.
#[derive(Debug, Clone)]
pub struct Program {
    /// Ops per task.
    pub tasks: Vec<Vec<Op>>,
}

/// Generates a reproducible random program.
pub fn generate(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let n_tasks = rng.random_range(2..=5);
    let sensors = [Sensor::Temp, Sensor::Humd, Sensor::Pres, Sensor::Light];
    let mut tasks = Vec::new();
    for _ in 0..n_tasks {
        let n_ops = rng.random_range(2..=7);
        let mut ops = Vec::new();
        // Per-task buffer usage discipline: a buffer is CPU-written or
        // DMA-accessed within one task, never both.
        let mut cpu_bufs = [false; BUFS];
        let mut dma_bufs = [false; BUFS];
        for _ in 0..n_ops {
            let op = match rng.random_range(0..9u8) {
                0 => Op::Compute(rng.random_range(50..1500)),
                1 => Op::Bump {
                    var: rng.random_range(0..VARS as u8),
                    delta: rng.random_range(-50..50),
                },
                2 => Op::Set {
                    var: rng.random_range(0..VARS as u8),
                    val: rng.random_range(-1000..1000),
                },
                3 => {
                    let buf = rng.random_range(0..BUFS as u8);
                    if dma_bufs[buf as usize] {
                        continue; // discipline: no CPU write after DMA use
                    }
                    cpu_bufs[buf as usize] = true;
                    Op::BufSet {
                        buf,
                        idx: rng.random_range(0..BUF_LEN as u8),
                        val: rng.random_range(-99..99),
                    }
                }
                4 => Op::Sense {
                    var: rng.random_range(0..VARS as u8),
                    sensor: sensors[rng.random_range(0..sensors.len())],
                    sem_kind: rng.random_range(0..3),
                    window_ms: rng.random_range(2..40),
                },
                5 => Op::Branch {
                    var: rng.random_range(0..VARS as u8),
                    threshold: rng.random_range(-500..1500),
                    then_var: rng.random_range(0..VARS as u8),
                    else_var: rng.random_range(0..VARS as u8),
                },
                6 => {
                    let elems = rng.random_range(2..10u8);
                    let src = rng.random_range(0..BUFS as u8);
                    let dst = rng.random_range(0..BUFS as u8);
                    if cpu_bufs[src as usize] || cpu_bufs[dst as usize] {
                        continue; // discipline: no DMA on CPU-written buffers
                    }
                    dma_bufs[src as usize] = true;
                    dma_bufs[dst as usize] = true;
                    Op::DmaFram {
                        src,
                        src_off: rng.random_range(0..(BUF_LEN as u8 - elems)),
                        dst,
                        dst_off: rng.random_range(0..(BUF_LEN as u8 - elems)),
                        elems,
                    }
                }
                7 => {
                    let src = rng.random_range(0..BUFS as u8);
                    if cpu_bufs[src as usize] {
                        continue;
                    }
                    dma_bufs[src as usize] = true;
                    Op::DmaStageRoundtrip {
                        src,
                        elems: rng.random_range(2..(BUF_LEN as u8 - 1).min(LEA_LEN as u8)),
                    }
                }
                _ => {
                    let n = rng.random_range(1..=3);
                    Op::Block {
                        sem_kind: rng.random_range(0..2),
                        window_ms: rng.random_range(3..40),
                        senses: (0..n)
                            .map(|_| {
                                (
                                    rng.random_range(0..VARS as u8),
                                    sensors[rng.random_range(0..sensors.len())],
                                )
                            })
                            .collect(),
                    }
                }
            };
            ops.push(op);
        }
        tasks.push(ops);
    }
    Program { tasks }
}

fn sem_of(kind: u8, window_ms: u8) -> ReexecSemantics {
    match kind {
        0 => ReexecSemantics::Single,
        1 => ReexecSemantics::timely_ms(window_ms as u64),
        _ => ReexecSemantics::Always,
    }
}

/// Per-task records of observed I/O values: `(task id, values in program
/// order)`, appended once per completed body execution.
pub type IoLog = Rc<RefCell<Vec<(u16, Vec<i32>)>>>;

/// Handles of a built synthetic app plus the committed-I/O recording.
pub struct SynthInstance {
    /// The runnable app.
    pub app: App,
    /// Scalar variable handles.
    pub vars: Vec<NvVar<i32>>,
    /// Buffer handles.
    pub bufs: Vec<NvBuf<i16>>,
    /// Per task: the I/O values each body execution observed; re-attempts
    /// of the same task append consecutively, so the last entry per
    /// contiguous task-id run is the committed attempt's record.
    pub io_log: IoLog,
}

/// Builds the program as a runnable app on `mcu`.
pub fn build(mcu: &mut Mcu, prog: &Program) -> SynthInstance {
    let vars: Vec<NvVar<i32>> = (0..VARS)
        .map(|_| NvVar::alloc(&mut mcu.mem, Region::Fram))
        .collect();
    let bufs: Vec<NvBuf<i16>> = (0..BUFS)
        .map(|_| NvBuf::alloc(&mut mcu.mem, Region::Fram, BUF_LEN))
        .collect();
    let lea: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, LEA_LEN);
    // Deterministic initial buffer contents.
    for (b, buf) in bufs.iter().enumerate() {
        let data: Vec<i16> = (0..BUF_LEN)
            .map(|i| (b as i16 + 1) * (i as i16 - 7))
            .collect();
        buf.fill_from(&mut mcu.mem, &data);
    }
    let io_log: IoLog = Rc::new(RefCell::new(Vec::new()));

    let mut tasks = Vec::new();
    let n_tasks = prog.tasks.len();
    for (t, ops) in prog.tasks.iter().enumerate() {
        let ops = ops.clone();
        let vars = vars.clone();
        let bufs = bufs.clone();
        let log = Rc::clone(&io_log);
        let body = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            let mut observed: Vec<i32> = Vec::new();
            for op in &ops {
                match op {
                    Op::Compute(c) => ctx.compute(*c as u64)?,
                    Op::Bump { var, delta } => {
                        let v = ctx.read(vars[*var as usize])?;
                        ctx.write(vars[*var as usize], v.wrapping_add(*delta))?;
                    }
                    Op::Set { var, val } => ctx.write(vars[*var as usize], *val)?,
                    Op::BufSet { buf, idx, val } => {
                        ctx.buf_write(bufs[*buf as usize], *idx as u32, *val)?
                    }
                    Op::Sense {
                        var,
                        sensor,
                        sem_kind,
                        window_ms,
                    } => {
                        let v = ctx.call_io(IoOp::Sense(*sensor), sem_of(*sem_kind, *window_ms))?;
                        observed.push(v);
                        ctx.write(vars[*var as usize], v)?;
                    }
                    Op::Branch {
                        var,
                        threshold,
                        then_var,
                        else_var,
                    } => {
                        let v = ctx.read(vars[*var as usize])?;
                        let target = if v < *threshold { then_var } else { else_var };
                        let cur = ctx.read(vars[*target as usize])?;
                        ctx.write(vars[*target as usize], cur.wrapping_add(1))?;
                    }
                    Op::DmaFram {
                        src,
                        src_off,
                        dst,
                        dst_off,
                        elems,
                    } => {
                        ctx.dma_copy(
                            bufs[*src as usize].addr().add(*src_off as u32 * 2),
                            bufs[*dst as usize].addr().add(*dst_off as u32 * 2),
                            *elems as u32 * 2,
                        )?;
                    }
                    Op::DmaStageRoundtrip { src, elems } => {
                        let n = *elems as u32 * 2;
                        ctx.dma_copy(bufs[*src as usize].addr(), lea.addr(), n)?;
                        ctx.compute(60)?;
                        ctx.dma_copy(lea.addr(), bufs[*src as usize].addr().add(2), n)?;
                    }
                    Op::Block {
                        sem_kind,
                        window_ms,
                        senses,
                    } => {
                        let vals = ctx.io_block(sem_of(*sem_kind, *window_ms), |ctx| {
                            let mut vals = Vec::new();
                            for (_, sensor) in senses {
                                vals.push(
                                    ctx.call_io(IoOp::Sense(*sensor), ReexecSemantics::Always)?,
                                );
                            }
                            Ok(vals)
                        })?;
                        for ((var, _), v) in senses.iter().zip(&vals) {
                            observed.push(*v);
                            ctx.write(vars[*var as usize], *v)?;
                        }
                    }
                }
            }
            log.borrow_mut().push((t as u16, observed));
            if t + 1 < n_tasks {
                Ok(Transition::To(TaskId(t as u16 + 1)))
            } else {
                Ok(Transition::Done)
            }
        };
        tasks.push(TaskDef {
            name: "synth",
            body: Rc::new(body),
        });
    }

    let app = App {
        name: "synth",
        tasks,
        entry: TaskId(0),
        inventory: Inventory::default(),
        verify: None,
    };
    SynthInstance {
        app,
        vars,
        bufs,
        io_log,
    }
}

/// Final state of the pure-interpreter oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelState {
    /// Scalar variables.
    pub vars: Vec<i32>,
    /// Buffers.
    pub bufs: Vec<Vec<i16>>,
}

/// Replays the program over model memory, feeding the committed I/O values
/// (the continuous execution the device believes it performed).
pub fn oracle(prog: &Program, io_log: &[(u16, Vec<i32>)]) -> ModelState {
    // Collapse consecutive same-task entries: re-attempts of one activation
    // append consecutively and only the last (the committed one) counts.
    let mut committed: Vec<(u16, Vec<i32>)> = Vec::new();
    for entry in io_log {
        if let Some(last) = committed.last_mut() {
            if last.0 == entry.0 {
                *last = entry.clone();
                continue;
            }
        }
        committed.push(entry.clone());
    }

    let mut vars = vec![0i32; VARS];
    let mut bufs: Vec<Vec<i16>> = (0..BUFS)
        .map(|b| {
            (0..BUF_LEN)
                .map(|i| (b as i16 + 1) * (i as i16 - 7))
                .collect()
        })
        .collect();
    let mut lea = vec![0i16; LEA_LEN as usize];

    assert_eq!(
        committed.len(),
        prog.tasks.len(),
        "one committed activation per task of the linear chain"
    );
    for (i, (entry, ops)) in committed.iter().zip(prog.tasks.iter()).enumerate() {
        assert_eq!(entry.0 as usize, i, "activations commit in chain order");
        let mut vals = entry.1.iter().copied();
        for op in ops {
            match op {
                Op::Compute(_) => {}
                Op::Bump { var, delta } => {
                    vars[*var as usize] = vars[*var as usize].wrapping_add(*delta)
                }
                Op::Set { var, val } => vars[*var as usize] = *val,
                Op::BufSet { buf, idx, val } => bufs[*buf as usize][*idx as usize] = *val,
                Op::Sense { var, .. } => {
                    vars[*var as usize] = vals.next().expect("recorded sense value")
                }
                Op::Branch {
                    var,
                    threshold,
                    then_var,
                    else_var,
                } => {
                    let target = if vars[*var as usize] < *threshold {
                        then_var
                    } else {
                        else_var
                    };
                    vars[*target as usize] = vars[*target as usize].wrapping_add(1);
                }
                Op::DmaFram {
                    src,
                    src_off,
                    dst,
                    dst_off,
                    elems,
                } => {
                    let data: Vec<i16> = bufs[*src as usize]
                        [*src_off as usize..(*src_off + *elems) as usize]
                        .to_vec();
                    bufs[*dst as usize][*dst_off as usize..(*dst_off + *elems) as usize]
                        .copy_from_slice(&data);
                }
                Op::DmaStageRoundtrip { src, elems } => {
                    let n = *elems as usize;
                    lea[..n].copy_from_slice(&bufs[*src as usize][..n]);
                    let staged: Vec<i16> = lea[..n].to_vec();
                    bufs[*src as usize][1..1 + n].copy_from_slice(&staged);
                }
                Op::Block { senses, .. } => {
                    for (var, _) in senses {
                        vars[*var as usize] = vals.next().expect("recorded block value");
                    }
                }
            }
        }
        assert!(vals.next().is_none(), "oracle consumed all recorded values");
    }
    ModelState { vars, bufs }
}

/// Runs the program under `kind` on `supply` and compares the simulator's
/// final FRAM against the oracle. Returns an error description on
/// divergence.
pub fn check(
    prog: &Program,
    kind: KernelKind,
    supply: Supply,
    env_seed: u64,
) -> Result<(), String> {
    let mut mcu = Mcu::new(supply);
    let mut periph = Peripherals::new(env_seed);
    let inst = build(&mut mcu, prog);
    let mut rt = kind.make();
    let r = run_app(
        &inst.app,
        rt.as_mut(),
        &mut mcu,
        &mut periph,
        &ExecConfig::default(),
    );
    if r.outcome != Outcome::Completed {
        return Err(format!("did not complete: {:?}", r.outcome));
    }
    let log = inst.io_log.borrow();
    let model = oracle(prog, &log);
    for (i, v) in inst.vars.iter().enumerate() {
        let got = v.get(&mcu.mem);
        if got != model.vars[i] {
            return Err(format!("var[{i}] = {got}, oracle says {}", model.vars[i]));
        }
    }
    for (b, buf) in inst.bufs.iter().enumerate() {
        let got = buf.to_vec(&mcu.mem);
        if got != model.bufs[b] {
            let at = got
                .iter()
                .zip(&model.bufs[b])
                .position(|(a, e)| a != e)
                .unwrap_or(0);
            return Err(format!(
                "buf[{b}][{at}] = {}, oracle says {}",
                got[at], model.bufs[b][at]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::TimerResetConfig;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(9);
        let b = generate(9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate(10);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn oracle_matches_continuous_execution_for_every_runtime() {
        // On continuous power there is nothing to privatize or skip: every
        // runtime must match the oracle exactly. This validates the oracle
        // itself before it is used against intermittent runs.
        for seed in 0..60u64 {
            let prog = generate(seed);
            for kind in [
                KernelKind::Naive,
                KernelKind::Alpaca,
                KernelKind::Ink,
                KernelKind::EaseIo,
            ] {
                check(&prog, kind, Supply::continuous(), seed)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", kind.name()));
            }
        }
    }

    #[test]
    fn easeio_matches_the_oracle_under_failures() {
        for seed in 0..120u64 {
            let prog = generate(seed);
            let supply = Supply::timer(TimerResetConfig::default(), seed.wrapping_mul(31));
            check(&prog, KernelKind::EaseIo, supply, seed)
                .unwrap_or_else(|e| panic!("seed {seed}: EaseIO diverged: {e}"));
        }
    }

    #[test]
    fn baselines_diverge_on_some_generated_program() {
        // The generator produces DMA WAR patterns; across enough seeds the
        // baselines must trip over one (otherwise the generator is toothless
        // and the EaseIO pass above proves nothing).
        let mut diverged = 0;
        for seed in 0..120u64 {
            let prog = generate(seed);
            let supply = Supply::timer(TimerResetConfig::default(), seed.wrapping_mul(31));
            if check(&prog, KernelKind::Alpaca, supply, seed).is_err() {
                diverged += 1;
            }
        }
        assert!(
            diverged > 0,
            "Alpaca never diverged from the oracle across 120 random programs"
        );
    }
}
