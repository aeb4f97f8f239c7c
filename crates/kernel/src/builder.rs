//! The kernel names: one [`KernelKind`] names every runtime the stack
//! knows. It is a *value* — `Copy + Send`, parsed from the CLI, carried
//! inside a `ScenarioSpec` — so every layer (serial runs, the crash sweep,
//! the parallel engine's workers) agrees on which kernel runs.
//!
//! Construction lives upstream, in `apps::harness::KernelBuilder`: the
//! EaseIO runtime is defined in `easeio-core`, which depends on this crate,
//! so only a crate above both can build every kind.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.cli_name()), Ok(kind));
        }
        assert!(KernelKind::parse("quantum").is_err());
    }
}
