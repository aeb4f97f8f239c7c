//! Lowering: compiles an analyzed program into a runnable [`kernel::App`].
//!
//! Each task body becomes a closure interpreting the AST against the
//! [`TaskCtx`]: expression evaluation over `i64`, `__nv` accesses through
//! the runtime's privatization hooks, and — the point of the front-end —
//! `_call_IO`/`_DMA_copy` invocations that automatically carry the inferred
//! dependence sets. Dynamic call-site indices are mapped back to analysis
//! node ids per attempt, so dependencies survive conditional control flow.
//!
//! [`TaskCtx`]: kernel::TaskCtx

use crate::analyze::Analysis;
use crate::ast::*;
use crate::CompileError;
use kernel::{
    App, DmaAnnotation, Fault, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId,
    TaskResult, Transition,
};
use mcu_emu::{Mcu, NvBuf, NvVar, Region};
use periph::Sensor;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A compiled program: the app plus handles for inspection.
#[derive(Debug)]
pub struct Compiled {
    /// The runnable application.
    pub app: App,
    /// `__nv` scalar handles by name.
    pub vars: HashMap<String, NvVar<i32>>,
    /// `__nv`/`__lea` array handles by name (i16 elements, like the LEA's
    /// native width).
    pub arrays: HashMap<String, NvBuf<i16>>,
}

/// Control flow out of a statement list.
enum Flow {
    Continue,
    Goto(Transition),
}

struct Interp {
    program: Program,
    analysis: Analysis,
    vars: HashMap<String, NvVar<i32>>,
    arrays: HashMap<String, NvBuf<i16>>,
    task_ids: HashMap<String, TaskId>,
}

/// Per-attempt execution state.
#[derive(Default)]
struct Frame {
    locals: HashMap<String, i64>,
    /// Analysis node id → dynamic call-site index, this attempt.
    site_of: HashMap<u32, u16>,
}

/// Lowers an analyzed program onto `mcu`.
pub fn lower(
    program: &Program,
    analysis: &Analysis,
    mcu: &mut Mcu,
) -> Result<Compiled, CompileError> {
    let mut vars = HashMap::new();
    let mut arrays = HashMap::new();
    for d in &program.decls {
        let region = match d.region {
            DeclRegion::Fram => Region::Fram,
            DeclRegion::Lea => Region::LeaRam,
        };
        match d.len {
            None => {
                vars.insert(
                    d.name.clone(),
                    NvVar::<i32>::alloc(&mut mcu.mem, Region::Fram),
                );
            }
            Some(n) => {
                arrays.insert(d.name.clone(), NvBuf::<i16>::alloc(&mut mcu.mem, region, n));
            }
        }
    }
    let task_ids: HashMap<String, TaskId> = program
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.clone(), TaskId(i as u16)))
        .collect();

    let interp = Rc::new(Interp {
        program: program.clone(),
        analysis: analysis.clone(),
        vars: vars.clone(),
        arrays: arrays.clone(),
        task_ids,
    });

    let mut tasks = Vec::new();
    for (i, t) in program.tasks.iter().enumerate() {
        let interp = Rc::clone(&interp);
        // Task names live as long as the program; leak one copy so TaskDef's
        // &'static str is satisfied without changing the kernel API.
        let name: &'static str = Box::leak(t.name.clone().into_boxed_str());
        let body = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            let frame = RefCell::new(Frame::default());
            let stmts = interp.program.tasks[i].body.clone();
            match interp.exec_stmts(ctx, &frame, &stmts)? {
                Flow::Goto(t) => Ok(t),
                Flow::Continue => unreachable!("analysis guarantees termination"),
            }
        };
        tasks.push(TaskDef {
            name,
            body: Rc::new(body),
        });
    }

    let inventory = Inventory {
        tasks: program.tasks.len() as u32,
        io_funcs: analysis
            .lock_names
            .values()
            .map(|l| l.split('_').nth(1).unwrap_or("").to_string())
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u32,
        io_sites: analysis.io_sites,
        timely_sites: analysis.timely_sites,
        dma_sites: analysis.dma_sites_per_task.values().sum(),
        io_blocks: analysis.io_blocks,
        nv_vars: program.decls.len() as u32,
    };
    Ok(Compiled {
        app: App {
            name: "easec",
            tasks,
            entry: TaskId(0),
            inventory,
            verify: None,
        },
        vars,
        arrays,
    })
}

impl Interp {
    fn eval(&self, ctx: &mut TaskCtx<'_>, frame: &RefCell<Frame>, e: &Expr) -> Result<i64, Fault> {
        match e {
            Expr::Int(n) => Ok(*n),
            Expr::Var(name) => {
                if let Some(v) = frame.borrow().locals.get(name) {
                    return Ok(*v);
                }
                let var = self.vars[name];
                Ok(ctx.read(var)? as i64)
            }
            Expr::Index(name, idx) => {
                let i = self.eval(ctx, frame, idx)?;
                let arr = self.arrays[name];
                let i = self.bounds(i, arr.len(), name);
                Ok(ctx.buf_read(arr, i)? as i64)
            }
            Expr::Bin(op, l, r) => {
                let a = self.eval(ctx, frame, l)?;
                let b = self.eval(ctx, frame, r)?;
                Ok(match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                    Op::Div => a.checked_div(b).unwrap_or(0),
                    Op::Rem => a.checked_rem(b).unwrap_or(0),
                    Op::Eq => (a == b) as i64,
                    Op::Ne => (a != b) as i64,
                    Op::Lt => (a < b) as i64,
                    Op::Le => (a <= b) as i64,
                    Op::Gt => (a > b) as i64,
                    Op::Ge => (a >= b) as i64,
                })
            }
            Expr::CallIo(call) => self.call_io(ctx, frame, call),
        }
    }

    fn bounds(&self, i: i64, len: u32, name: &str) -> u32 {
        assert!(
            i >= 0 && (i as u32) < len,
            "index {i} out of bounds for __nv {name}[{len}]"
        );
        i as u32
    }

    fn sem(&self, s: Sem) -> ReexecSemantics {
        match s {
            Sem::Single => ReexecSemantics::Single,
            Sem::Timely(ms) => ReexecSemantics::timely_ms(ms),
            Sem::Always => ReexecSemantics::Always,
        }
    }

    fn call_io(
        &self,
        ctx: &mut TaskCtx<'_>,
        frame: &RefCell<Frame>,
        call: &IoCall,
    ) -> Result<i64, Fault> {
        let op = match call.func {
            IoFunc::Temp => IoOp::Sense(Sensor::Temp),
            IoFunc::Humd => IoOp::Sense(Sensor::Humd),
            IoFunc::Pres => IoOp::Sense(Sensor::Pres),
            IoFunc::Light => IoOp::Sense(Sensor::Light),
            IoFunc::Accel => IoOp::Sense(Sensor::Accel),
            IoFunc::Send => {
                // Evaluate payload arguments (may themselves contain calls).
                let mut payload = Vec::new();
                for a in &call.args {
                    payload.push(self.eval(ctx, frame, a)? as i32);
                }
                IoOp::Send {
                    payload: payload.into(),
                }
            }
            IoFunc::Capture => {
                // Analysis validated: (array, w, h, seed) with constants.
                let (Expr::Var(name), Expr::Int(w), Expr::Int(h), Expr::Int(seed)) =
                    (&call.args[0], &call.args[1], &call.args[2], &call.args[3])
                else {
                    unreachable!("validated by analysis")
                };
                IoOp::Capture {
                    dst: self.arrays[name].addr(),
                    width: *w as u32,
                    height: *h as u32,
                    seed: *seed as u64,
                }
            }
            IoFunc::Argmax => {
                let (Expr::Var(name), Expr::Int(n)) = (&call.args[0], &call.args[1]) else {
                    unreachable!("validated by analysis")
                };
                IoOp::LeaArgmax {
                    buf: self.arrays[name].addr(),
                    n: *n as u32,
                }
            }
        };
        // Translate analysis node ids into this attempt's dynamic sites.
        let deps: Vec<u16> = self.analysis.io_deps[&call.id]
            .iter()
            .filter_map(|d| frame.borrow().site_of.get(d).copied())
            .collect();
        let site = ctx.next_io_site();
        let v = ctx.call_io_dep(op, self.sem(call.sem), &deps)?;
        frame.borrow_mut().site_of.insert(call.id, site);
        Ok(v as i64)
    }

    /// Runs a LEA statement as an `Always` I/O site with inferred deps.
    fn lea_stmt(
        &self,
        ctx: &mut TaskCtx<'_>,
        frame: &RefCell<Frame>,
        op: IoOp,
        id: u32,
    ) -> Result<(), Fault> {
        let deps: Vec<u16> = self.analysis.io_deps[&id]
            .iter()
            .filter_map(|d| frame.borrow().site_of.get(d).copied())
            .collect();
        let site = ctx.next_io_site();
        ctx.call_io_dep(op, ReexecSemantics::Always, &deps)?;
        frame.borrow_mut().site_of.insert(id, site);
        Ok(())
    }

    fn exec_stmts(
        &self,
        ctx: &mut TaskCtx<'_>,
        frame: &RefCell<Frame>,
        stmts: &[Stmt],
    ) -> Result<Flow, Fault> {
        for s in stmts {
            match self.exec_stmt(ctx, frame, s)? {
                Flow::Continue => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_stmt(
        &self,
        ctx: &mut TaskCtx<'_>,
        frame: &RefCell<Frame>,
        s: &Stmt,
    ) -> Result<Flow, Fault> {
        match s {
            Stmt::Let { name, expr, .. } => {
                let v = self.eval(ctx, frame, expr)?;
                frame.borrow_mut().locals.insert(name.clone(), v);
                Ok(Flow::Continue)
            }
            Stmt::Assign { name, expr, .. } => {
                let v = self.eval(ctx, frame, expr)?;
                if frame.borrow().locals.contains_key(name) {
                    frame.borrow_mut().locals.insert(name.clone(), v);
                } else {
                    ctx.write(self.vars[name], v as i32)?;
                }
                Ok(Flow::Continue)
            }
            Stmt::AssignIndex {
                name, index, expr, ..
            } => {
                let i = self.eval(ctx, frame, index)?;
                let v = self.eval(ctx, frame, expr)?;
                let arr = self.arrays[name];
                let i = self.bounds(i, arr.len(), name);
                ctx.buf_write(arr, i, v as i16)?;
                Ok(Flow::Continue)
            }
            Stmt::Compute(e, _) => {
                let cycles = self.eval(ctx, frame, e)?.max(0) as u64;
                ctx.compute(cycles)?;
                Ok(Flow::Continue)
            }
            Stmt::CallIoStmt(call) => {
                self.call_io(ctx, frame, call)?;
                Ok(Flow::Continue)
            }
            Stmt::DmaCopy {
                src,
                dst,
                elems,
                exclude,
                id,
                ..
            } => {
                let si = self.eval(ctx, frame, &src.index)?;
                let di = self.eval(ctx, frame, &dst.index)?;
                let sa = self.arrays[&src.name];
                let da = self.arrays[&dst.name];
                let si = self.bounds(si, sa.len() - elems + 1, &src.name);
                let di = self.bounds(di, da.len() - elems + 1, &dst.name);
                let ann = if *exclude {
                    DmaAnnotation::Exclude
                } else {
                    DmaAnnotation::Auto
                };
                let related: Vec<u16> = self.analysis.dma_related[id]
                    .iter()
                    .filter_map(|d| frame.borrow().site_of.get(d).copied())
                    .collect();
                ctx.dma_copy_annotated(
                    sa.addr().add(si * 2),
                    da.addr().add(di * 2),
                    elems * 2,
                    ann,
                    &related,
                )?;
                Ok(Flow::Continue)
            }
            Stmt::IoBlock { sem, body, .. } => {
                let stmts = body.clone();
                ctx.io_block(self.sem(*sem), |ctx| {
                    match self.exec_stmts(ctx, frame, &stmts)? {
                        Flow::Continue => Ok(()),
                        Flow::Goto(_) => unreachable!("analysis forbids transitions in blocks"),
                    }
                })?;
                Ok(Flow::Continue)
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let c = self.eval(ctx, frame, cond)?;
                if c != 0 {
                    self.exec_stmts(ctx, frame, then)
                } else {
                    self.exec_stmts(ctx, frame, els)
                }
            }
            Stmt::Repeat {
                var, count, body, ..
            } => {
                for i in 0..*count {
                    frame.borrow_mut().locals.insert(var.clone(), i as i64);
                    match self.exec_stmts(ctx, frame, body)? {
                        Flow::Continue => {}
                        flow => return Ok(flow),
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::LeaConv2d {
                input,
                w,
                h,
                kernel,
                kw,
                kh,
                out,
                id,
                ..
            } => {
                let op = IoOp::LeaConv2d {
                    input: self.arrays[input].addr(),
                    w: *w,
                    h: *h,
                    kernel: self.arrays[kernel].addr(),
                    kw: *kw,
                    kh: *kh,
                    out: self.arrays[out].addr(),
                };
                self.lea_stmt(ctx, frame, op, *id)?;
                Ok(Flow::Continue)
            }
            Stmt::LeaRelu { buf, n, id, .. } => {
                let op = IoOp::LeaRelu {
                    buf: self.arrays[buf].addr(),
                    n: *n,
                };
                self.lea_stmt(ctx, frame, op, *id)?;
                Ok(Flow::Continue)
            }
            Stmt::LeaFc {
                x,
                n_in,
                weights,
                out,
                n_out,
                id,
                ..
            } => {
                let op = IoOp::LeaFc {
                    x: self.arrays[x].addr(),
                    n_in: *n_in,
                    weights: self.arrays[weights].addr(),
                    out: self.arrays[out].addr(),
                    n_out: *n_out,
                };
                self.lea_stmt(ctx, frame, op, *id)?;
                Ok(Flow::Continue)
            }
            Stmt::LeaFir {
                x,
                h,
                y,
                n_out,
                taps,
                id,
                ..
            } => {
                let xa = self.arrays[x];
                let ha = self.arrays[h];
                let ya = self.arrays[y];
                let deps: Vec<u16> = self.analysis.io_deps[id]
                    .iter()
                    .filter_map(|d| frame.borrow().site_of.get(d).copied())
                    .collect();
                let site = ctx.next_io_site();
                ctx.call_io_dep(
                    IoOp::LeaFir {
                        x: xa.addr(),
                        h: ha.addr(),
                        y: ya.addr(),
                        n_out: *n_out,
                        taps: *taps,
                    },
                    ReexecSemantics::Always,
                    &deps,
                )?;
                frame.borrow_mut().site_of.insert(*id, site);
                Ok(Flow::Continue)
            }
            Stmt::Next(target, _) => Ok(Flow::Goto(Transition::To(self.task_ids[target]))),
            Stmt::Done(_) => Ok(Flow::Goto(Transition::Done)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use mcu_emu::Supply;

    fn run_continuous(src: &str) -> (Mcu, periph::Peripherals, Compiled) {
        let mut mcu = Mcu::new(Supply::continuous());
        let compiled = compile(src, &mut mcu).unwrap();
        let mut p = periph::Peripherals::new(9);
        let mut rt = kernel::naive::NaiveRuntime::new();
        let r = kernel::run_app(
            &compiled.app,
            &mut rt,
            &mut mcu,
            &mut p,
            &kernel::ExecConfig::default(),
        );
        assert_eq!(r.outcome, kernel::Outcome::Completed);
        (mcu, p, compiled)
    }

    #[test]
    fn arithmetic_and_nv_state() {
        let (mcu, _, c) = run_continuous(
            r#"
            __nv int x;
            __nv int arr[4];
            task t {
                let a = 2 + 3 * 4;
                x = a - 1;
                arr[2] = x * 2;
                arr[3] = arr[2] + 1;
                done;
            }
        "#,
        );
        assert_eq!(c.vars["x"].get(&mcu.mem), 13);
        assert_eq!(c.arrays["arr"].get(&mcu.mem, 2), 26);
        assert_eq!(c.arrays["arr"].get(&mcu.mem, 3), 27);
    }

    #[test]
    fn task_chain_and_loops() {
        let (mcu, _, c) = run_continuous(
            r#"
            __nv int sum;
            __nv int rounds;
            task first {
                repeat (i, 5) { sum = sum + i; }
                next second;
            }
            task second {
                rounds = rounds + 1;
                if (rounds < 3) { next first; } else { done; }
            }
        "#,
        );
        assert_eq!(c.vars["rounds"].get(&mcu.mem), 3);
        assert_eq!(c.vars["sum"].get(&mcu.mem), 30); // 10 per round × 3
    }

    #[test]
    fn sensors_and_send() {
        let (mcu, p, c) = run_continuous(
            r#"
            __nv int reading;
            task t {
                reading = _call_IO(Temp, Single);
                _call_IO(Send, Single, reading, 7);
                done;
            }
        "#,
        );
        assert_eq!(p.radio.count(), 1);
        let pkt = &p.radio.packets()[0];
        assert_eq!(pkt.payload[0], c.vars["reading"].get(&mcu.mem));
        assert_eq!(pkt.payload[1], 7);
    }

    #[test]
    fn dma_moves_array_data() {
        let (mcu, _, c) = run_continuous(
            r#"
            __nv int a[6];
            __nv int b[6];
            task t {
                a[0] = 10;
                a[1] = 20;
                a[2] = 30;
                _DMA_copy(a[0], b[2], 3);
                done;
            }
        "#,
        );
        assert_eq!(c.arrays["b"].get(&mcu.mem, 2), 10);
        assert_eq!(c.arrays["b"].get(&mcu.mem, 3), 20);
        assert_eq!(c.arrays["b"].get(&mcu.mem, 4), 30);
    }

    #[test]
    fn inventory_reflects_the_analysis() {
        let mut mcu = Mcu::new(Supply::continuous());
        let c = compile(
            r#"
            __nv int a[4];
            __nv int b[4];
            task t {
                _IO_block_begin(Single);
                let x = _call_IO(Temp, Timely, 10);
                let y = _call_IO(Humd, Always);
                _IO_block_end;
                _DMA_copy(a[0], b[0], 2);
                _call_IO(Send, Single, x, y);
                done;
            }
        "#,
            &mut mcu,
        )
        .unwrap();
        let inv = c.app.inventory;
        assert_eq!(inv.tasks, 1);
        assert_eq!(inv.io_sites, 3);
        assert_eq!(inv.dma_sites, 1);
        assert_eq!(inv.io_blocks, 1);
        assert_eq!(inv.io_funcs, 3); // Temp, Humd, Send
    }
}
