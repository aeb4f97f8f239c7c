//! Fuzz-style robustness tests for the easec front-end.

use easeio_repro::apps::harness::MakeRuntime;
use easeio_repro::easec::{self, ast::*, printer};
use easeio_repro::mcu_emu::{Mcu, Supply};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser must never panic: any input yields Ok or a positioned
    /// error.
    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        let _ = easec::parse(&input);
    }

    /// Token-shaped soup (identifiers, punctuation, keywords) — closer to
    /// real near-miss programs than raw unicode.
    #[test]
    fn parser_survives_token_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("task".to_string()),
                Just("__nv".to_string()),
                Just("_call_IO".to_string()),
                Just("_IO_block_begin".to_string()),
                Just("_IO_block_end".to_string()),
                Just("_DMA_copy".to_string()),
                Just("{".to_string()), Just("}".to_string()),
                Just("(".to_string()), Just(")".to_string()),
                Just(";".to_string()), Just(",".to_string()),
                Just("=".to_string()), Just("<".to_string()),
                Just("Single".to_string()), Just("Timely".to_string()),
                Just("done".to_string()), Just("next".to_string()),
                Just("if".to_string()), Just("repeat".to_string()),
                Just("x".to_string()), Just("42".to_string()),
            ],
            0..60,
        )
    ) {
        let src = words.join(" ");
        let _ = easec::parse(&src);
    }
}

/// Generates a random valid program (seeded, reproducible).
fn gen_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_arrays = 2;
    let decls: Vec<NvDecl> = (0..3)
        .map(|i| NvDecl {
            name: format!("v{i}"),
            len: if i < n_arrays { Some(8) } else { None },
            region: DeclRegion::Fram,
            line: 0,
        })
        .collect();
    let n_tasks = rng.random_range(1..=3usize);
    let mut tasks = Vec::new();
    for t in 0..n_tasks {
        let mut body = gen_stmts(&mut rng, 0, t, n_tasks);
        // Terminate deterministically.
        if t + 1 < n_tasks {
            body.push(Stmt::Next(format!("t{}", t + 1), 0));
        } else {
            body.push(Stmt::Done(0));
        }
        tasks.push(Task {
            name: format!("t{t}"),
            body,
            line: 0,
        });
    }
    Program { decls, tasks }
}

fn gen_expr(rng: &mut StdRng, depth: u32, locals: &[String]) -> Expr {
    if depth > 2 || rng.random_range(0..3u8) == 0 {
        return match rng.random_range(0..3u8) {
            0 => Expr::Int(rng.random_range(0..100)),
            1 if !locals.is_empty() => Expr::Var(locals[rng.random_range(0..locals.len())].clone()),
            _ => Expr::Var("v2".into()), // the scalar decl
        };
    }
    match rng.random_range(0..3u8) {
        0 => Expr::Bin(
            [Op::Add, Op::Sub, Op::Mul, Op::Lt][rng.random_range(0..4usize)],
            Box::new(gen_expr(rng, depth + 1, locals)),
            Box::new(gen_expr(rng, depth + 1, locals)),
        ),
        1 => Expr::Index(
            format!("v{}", rng.random_range(0..2u8)),
            Box::new(Expr::Int(rng.random_range(0..8))),
        ),
        _ => Expr::CallIo(Box::new(IoCall {
            func: [IoFunc::Temp, IoFunc::Humd, IoFunc::Light][rng.random_range(0..3usize)],
            sem: [Sem::Single, Sem::Timely(10), Sem::Always][rng.random_range(0..3usize)],
            args: vec![],
            line: 0,
            id: 0,
        })),
    }
}

fn gen_stmts(rng: &mut StdRng, depth: u32, task: usize, _n_tasks: usize) -> Vec<Stmt> {
    let n = rng.random_range(1..=4usize);
    let mut locals: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for k in 0..n {
        let s = match rng.random_range(0..7u8) {
            0 => {
                let name = format!("l{task}_{depth}_{k}");
                let e = gen_expr(rng, 0, &locals);
                locals.push(name.clone());
                Stmt::Let {
                    name,
                    expr: e,
                    line: 0,
                }
            }
            1 => Stmt::Assign {
                name: "v2".into(),
                expr: gen_expr(rng, 0, &locals),
                line: 0,
            },
            2 => Stmt::AssignIndex {
                name: format!("v{}", rng.random_range(0..2u8)),
                index: Expr::Int(rng.random_range(0..8)),
                expr: gen_expr(rng, 0, &locals),
                line: 0,
            },
            3 => Stmt::Compute(Expr::Int(rng.random_range(10..500)), 0),
            4 => Stmt::DmaCopy {
                src: ArrRef {
                    name: "v0".into(),
                    index: Expr::Int(rng.random_range(0..4)),
                },
                dst: ArrRef {
                    name: "v1".into(),
                    index: Expr::Int(rng.random_range(0..4)),
                },
                elems: rng.random_range(1..4),
                exclude: rng.random_range(0..4u8) == 0,
                line: 0,
                id: 0,
            },
            5 if depth == 0 => Stmt::If {
                cond: gen_expr(rng, 1, &locals),
                then: gen_stmts(rng, depth + 1, task, _n_tasks),
                els: gen_stmts(rng, depth + 1, task, _n_tasks),
                line: 0,
            },
            _ => Stmt::CallIoStmt(IoCall {
                func: IoFunc::Send,
                sem: Sem::Single,
                args: vec![gen_expr(rng, 1, &locals)],
                line: 0,
                id: 0,
            }),
        };
        out.push(s);
    }
    out
}

#[test]
fn generated_programs_round_trip_and_compile() {
    for seed in 0..300u64 {
        let prog = gen_program(seed);
        let printed = printer::print_source(&prog);
        let reparsed = easec::parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{printed}"));
        assert!(
            printer::ast_eq(&prog, &reparsed),
            "seed {seed}: round-trip mismatch\n{printed}"
        );
        // And every generated program compiles and runs on continuous power.
        let mut mcu = Mcu::new(Supply::continuous());
        let compiled = easec::compile(&printed, &mut mcu)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{printed}"));
        let mut periph = easeio_repro::periph::Peripherals::new(seed);
        let mut rt = easeio_repro::apps::harness::KernelKind::EaseIo.make();
        let r = easeio_repro::kernel::run_app(
            &compiled.app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &easeio_repro::kernel::ExecConfig::default(),
        );
        assert_eq!(
            r.outcome,
            easeio_repro::kernel::Outcome::Completed,
            "seed {seed}"
        );
    }
}

#[test]
fn generated_programs_survive_intermittent_power() {
    use easeio_repro::mcu_emu::TimerResetConfig;
    for seed in 0..120u64 {
        let prog = gen_program(seed);
        let printed = printer::print_source(&prog);
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let compiled = match easec::compile(&printed, &mut mcu) {
            Ok(c) => c,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        let mut periph = easeio_repro::periph::Peripherals::new(seed);
        let mut rt = easeio_repro::apps::harness::KernelKind::EaseIo.make();
        let r = easeio_repro::kernel::run_app(
            &compiled.app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &easeio_repro::kernel::ExecConfig::default(),
        );
        assert_eq!(
            r.outcome,
            easeio_repro::kernel::Outcome::Completed,
            "seed {seed}"
        );
    }
}
