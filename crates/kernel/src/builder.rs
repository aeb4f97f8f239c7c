//! Unified kernel construction: one [`KernelKind`] names every runtime the
//! stack knows, one [`KernelBuilder`] instantiates it.
//!
//! Before this module each caller picked a concrete constructor by hand
//! (`AlpacaRuntime::new()`, `InkRuntime::new()`, …) and the simulator CLI
//! plumbed the choice through ad-hoc flags. The builder makes the kernel a
//! *value*: a `KernelKind` travels inside a `ScenarioSpec`, is `Copy + Send`,
//! and every layer — serial runs, the crash sweep, the parallel execution
//! engine's worker threads — constructs runtimes the same way.
//!
//! The EaseIO runtime itself lives upstream of this crate (`easeio-core`
//! depends on `kernel`, not the other way around), so the builder carries an
//! optional [`KernelFactory`] extension slot: `apps::harness` installs a
//! factory that knows how to build EaseIO, while the three in-crate
//! baselines build directly. Asking the bare builder for an EaseIO kernel is
//! a programming error and panics with a pointer to the standard factory.

use crate::alpaca::AlpacaRuntime;
use crate::ink::InkRuntime;
use crate::naive::NaiveRuntime;
use crate::retry::FaultSpec;
use crate::runtime::Runtime;
use std::sync::Arc;

/// Which kernel (runtime) executes the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// No privatization at all (didactic lower bound).
    Naive,
    /// Alpaca baseline.
    Alpaca,
    /// InK baseline.
    Ink,
    /// EaseIO.
    EaseIo,
    /// EaseIO with `Exclude`-annotated constant DMAs ("EaseIO/Op"). The
    /// runtime is the same; callers must pair this with an app built with
    /// `exclude_const_dma = true`.
    EaseIoOp,
}

impl KernelKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "Naive",
            KernelKind::Alpaca => "Alpaca",
            KernelKind::Ink => "InK",
            KernelKind::EaseIo => "EaseIO",
            KernelKind::EaseIoOp => "EaseIO/Op",
        }
    }

    /// Stable lowercase CLI name (`--runtime`/`--kernel` values).
    pub fn cli_name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Alpaca => "alpaca",
            KernelKind::Ink => "ink",
            KernelKind::EaseIo => "easeio",
            KernelKind::EaseIoOp => "easeio-op",
        }
    }

    /// Parses a CLI name produced by [`KernelKind::cli_name`].
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "naive" => KernelKind::Naive,
            "alpaca" => KernelKind::Alpaca,
            "ink" => KernelKind::Ink,
            "easeio" => KernelKind::EaseIo,
            "easeio-op" => KernelKind::EaseIoOp,
            other => return Err(format!("unknown runtime {other}")),
        })
    }

    /// Whether apps should be built with `exclude_const_dma`.
    pub fn excludes_const_dma(self) -> bool {
        self == KernelKind::EaseIoOp
    }

    /// Whether OTA-capable apps should apply updates through the two-phase
    /// shadow-slot protocol ([`crate::update::UpdateStore`]). Only the
    /// naive kernel models a protocol-free device that rewrites its live
    /// image in place — the didactic lower bound the `version_torn` sweep
    /// pins as unsafe.
    pub fn two_phase_update(self) -> bool {
        self != KernelKind::Naive
    }

    /// The three runtimes the paper's figures compare.
    pub const PAPER_SET: [KernelKind; 3] =
        [KernelKind::Alpaca, KernelKind::Ink, KernelKind::EaseIo];

    /// Every kernel, in canonical report order.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Naive,
        KernelKind::Alpaca,
        KernelKind::Ink,
        KernelKind::EaseIo,
        KernelKind::EaseIoOp,
    ];
}

/// Extension hook constructing kernels defined upstream of this crate.
/// Returns `None` for kinds it does not handle. `Send + Sync` so one factory
/// serves every worker thread of the parallel engine.
pub type KernelFactory = Arc<dyn Fn(KernelKind) -> Option<Box<dyn Runtime>> + Send + Sync>;

/// Builds kernel instances from a [`KernelKind`].
#[derive(Clone)]
pub struct KernelBuilder {
    kind: KernelKind,
    factory: Option<KernelFactory>,
    fault: FaultSpec,
}

impl std::fmt::Debug for KernelBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBuilder")
            .field("kind", &self.kind)
            .field("has_factory", &self.factory.is_some())
            .field("fault", &self.fault)
            .finish()
    }
}

impl KernelBuilder {
    /// A builder for `kind` with no extension factory: it can construct the
    /// three kernels defined in this crate.
    pub fn new(kind: KernelKind) -> Self {
        Self {
            kind,
            factory: None,
            fault: FaultSpec::none(),
        }
    }

    /// The kind this builder constructs.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Attaches a transient-fault configuration, readable back through
    /// [`KernelBuilder::fault`]. [`KernelBuilder::build`] never reads it:
    /// faults reach a run through [`FaultSpec::apply`] on its peripherals
    /// and through `ExecConfig::retry`.
    pub fn with_faults(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// The transient-fault configuration (plan + retry policy).
    pub fn fault(&self) -> FaultSpec {
        self.fault
    }

    /// Installs an extension factory consulted before the in-crate kernels
    /// (`apps::harness::standard_factory` wires up EaseIO).
    pub fn with_factory(mut self, factory: KernelFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Instantiates a fresh kernel. Each run gets its own instance — kernels
    /// carry per-run state (locks, private copies, activation bookkeeping).
    pub fn build(&self) -> Box<dyn Runtime> {
        if let Some(factory) = &self.factory {
            if let Some(rt) = factory(self.kind) {
                return rt;
            }
        }
        match self.kind {
            KernelKind::Naive => Box::new(NaiveRuntime::new()),
            KernelKind::Alpaca => Box::new(AlpacaRuntime::new()),
            KernelKind::Ink => Box::new(InkRuntime::new()),
            KernelKind::EaseIo | KernelKind::EaseIoOp => panic!(
                "the EaseIO kernel lives upstream of the kernel crate; install a factory \
                 (e.g. apps::harness::standard_factory) on this KernelBuilder"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_crate_kernels_without_a_factory() {
        for kind in [KernelKind::Naive, KernelKind::Alpaca, KernelKind::Ink] {
            let rt = KernelBuilder::new(kind).build();
            assert_eq!(rt.name(), kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "factory")]
    fn easeio_without_a_factory_panics_with_guidance() {
        KernelBuilder::new(KernelKind::EaseIo).build();
    }

    #[test]
    fn factory_takes_precedence_and_falls_through() {
        let factory: KernelFactory = Arc::new(|kind| match kind {
            // Stand-in: pretend Naive is an externally provided kernel.
            KernelKind::EaseIo => Some(Box::new(NaiveRuntime::new()) as Box<dyn Runtime>),
            _ => None,
        });
        let rt = KernelBuilder::new(KernelKind::EaseIo)
            .with_factory(factory.clone())
            .build();
        assert_eq!(rt.name(), "Naive");
        // Unhandled kinds fall through to the in-crate constructors.
        let rt = KernelBuilder::new(KernelKind::Alpaca)
            .with_factory(factory)
            .build();
        assert_eq!(rt.name(), "Alpaca");
    }

    #[test]
    fn cli_names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.cli_name()), Ok(kind));
        }
        assert!(KernelKind::parse("quantum").is_err());
    }
}
