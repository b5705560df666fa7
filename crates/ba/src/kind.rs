//! Selecting the `Π_BA` instantiation.

use ca_net::{block_on, Comm, Ctx};

use crate::phase_king::phase_king_async;
use crate::turpin_coan::turpin_coan_async;
use crate::Value;

/// Which concrete byzantine-agreement protocol instantiates the paper's
/// assumed `Π_BA`.
///
/// The choice is an experiment knob (ablation F4): both satisfy the BA
/// interface the paper assumes; they differ in the constant/`poly(n)`
/// factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaKind {
    /// Turpin–Coan-style reduction to binary phase-king:
    /// `BITSκ = O(κn² + n³)`, `ROUNDS = O(n)`. The default, matching the
    /// cost profile the paper assumes for `Π_BA`.
    #[default]
    TurpinCoan,
    /// Direct multi-valued phase-king: `BITSκ = O(κn³)`, `ROUNDS = O(n)`.
    PhaseKing,
}

impl BaKind {
    /// Runs one BA instance on `input` under this instantiation.
    pub fn run<V: Value>(self, ctx: &mut dyn Comm, input: V) -> V {
        block_on(self.run_async(&mut Ctx::live(ctx), input))
    }

    /// [`BaKind::run`] as an `async fn` over a [`Ctx`].
    pub(crate) async fn run_async<V: Value>(self, ctx: &mut Ctx<'_>, input: V) -> V {
        match self {
            BaKind::TurpinCoan => turpin_coan_async(ctx, input).await,
            BaKind::PhaseKing => phase_king_async(ctx, input).await,
        }
    }

    /// Runs *binary* BA: the one entry through which every binary
    /// agreement in the workspace runs, Turpin–Coan's own included (both
    /// instantiations reduce to phase-king on bits; going through
    /// Turpin–Coan for one bit would just add rounds).
    pub fn run_bit(self, ctx: &mut dyn Comm, input: bool) -> bool {
        block_on(self.run_bit_async(&mut Ctx::live(ctx), input))
    }

    /// [`BaKind::run_bit`] as an `async fn` over a [`Ctx`].
    pub async fn run_bit_async(self, ctx: &mut Ctx<'_>, input: bool) -> bool {
        phase_king_async(ctx, input).await
    }

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            BaKind::TurpinCoan => "tc",
            BaKind::PhaseKing => "pk",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_net::Sim;

    #[test]
    fn both_kinds_agree_and_validate() {
        for kind in [BaKind::TurpinCoan, BaKind::PhaseKing] {
            let report = Sim::new(4).run(|ctx, _| kind.run(ctx, 12345u64));
            for out in report.honest_outputs() {
                assert_eq!(*out, 12345, "{}", kind.name());
            }
            let report = Sim::new(4).run(|ctx, _| kind.run_bit(ctx, true));
            for out in report.honest_outputs() {
                assert!(*out, "{}", kind.name());
            }
        }
    }
}
