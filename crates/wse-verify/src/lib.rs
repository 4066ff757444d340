#![forbid(unsafe_code)]
//! # wse-verify
//!
//! Static verification of CereSZ wafer mappings — proving routing,
//! deadlock-freedom, SRAM budgets, and task liveness *before* a single
//! simulated cycle runs.
//!
//! The CereSZ paper's contribution is the mapping: color routing, stage
//! distribution, and head-relaying on a 757×996 PE fabric with 24 colors and
//! 48 KB of SRAM per PE. On the real CS-2 the CSL compiler rejects
//! unroutable colors at compile time; in this reproduction the analogous
//! defects (a receiver with no sender, a route cycle that never ramps, an
//! SRAM overflow) previously surfaced only dynamically, as a
//! [`wse_sim::SimError::Deadlock`] halfway through a run. This crate makes
//! them static:
//!
//! 1. **Route soundness** — every declared stream resolves on-mesh, reaches
//!    a RAMP, and contains no ramp-less cycle (static `NoRoute` /
//!    `RouteOffMesh` / `RouteMismatch` / `RoutingLoop`).
//! 2. **Color discipline** — no two rules on one PE claim the same color
//!    with conflicting directions (the last claim is the one in effect, as on
//!    the fabric); at most 24 colors live per PE by construction of
//!    [`wse_sim::Color`].
//! 3. **Channel completeness** — every statically-declared receive has a
//!    matching upstream producer and vice versa, and the wavelet totals
//!    balance (a shortfall is a deadlock proved before simulation).
//! 4. **SRAM budget** — a conservative peak-footprint bound per PE from the
//!    declared buffer reservations, checked against the 48 KB capacity the
//!    simulator's `MemoryTracker` enforces dynamically.
//! 5. **Task liveness** — every declared [`wse_sim::TaskId`] is activatable
//!    from an entry point (host activation or a descriptor completion).
//!
//! Mappings describe themselves with a [`MappingManifest`] — the declarative
//! layer each `ceresz-wse` strategy emits alongside the closures it installs
//! — and [`verify`] returns typed, PE/color-located [`Diagnostic`]s with fix
//! hints. `ceresz lint` sweeps the shipped strategies across mesh shapes and
//! fails on any error.
//!
//! Verification costs time linear in the declarations plus the mesh area:
//! routes are looked up on the fabric's own slot layout (one entry per
//! `(PE, color)`, indexed `pe.index(cols) * COLOR_SLOTS + color.index()`),
//! and the channel, SRAM and task tables are declarations sorted by PE. The
//! full 750×994 paper mapping verifies in about half a second.
//!
//! Beyond soundness, [`analysis::analyze`] runs a *static performance
//! analysis* over the same manifest: per-link worst-case load and contention,
//! a critical-path lower bound on the makespan in integer ticks, per-PE SRAM
//! high-watermarks, and a channel-dependency-graph deadlock-freedom proof.
//! The resulting [`StaticProfile`] is the scoring surface for mapping
//! autotuning and is cross-validated against the cycle-exact flight recorder
//! by `ceresz lint --analyze`.

pub mod analysis;
pub mod checks;
pub mod diagnostic;
pub mod manifest;

pub use analysis::{
    analyze, ChannelBound, DeadlockVerdict, LinkLoad, SramWatermark, StaticProfile,
};
pub use checks::{verify, VerifyReport};
pub use diagnostic::{rank, CheckKind, Diagnostic, Severity};
pub use manifest::{
    BufferDecl, EntryDecl, InjectDecl, MappingManifest, RecvDecl, RouteDecl, SendDecl, TaskDecl,
};

#[cfg(test)]
mod tests {
    use super::*;
    use wse_sim::{Color, Direction, PeId, RouteRule, TaskId, PE_SRAM_BYTES};

    const C0: Color = Color::new(0);
    const C1: Color = Color::new(1);
    const RECV: TaskId = TaskId(0);

    fn rule(input: Option<Direction>, outputs: &[Direction]) -> RouteRule {
        RouteRule::new(input, outputs)
    }

    /// A minimal clean mapping: PE(0,0) sends 4 blocks of 8 wavelets east to
    /// PE(0,1), which consumes them.
    fn clean_two_pe() -> MappingManifest {
        let mut m = MappingManifest::new("test", 1, 2);
        let src = PeId::new(0, 0);
        let dst = PeId::new(0, 1);
        m.route(src, C0, rule(None, &[Direction::East]));
        m.route(dst, C0, rule(Some(Direction::West), &[Direction::Ramp]));
        m.declare_send(src, C0, 8, 4, None);
        m.declare_recv(dst, C0, 8, 4, RECV);
        m.declare_task(dst, RECV);
        m.declare_task(src, TaskId(9));
        m.declare_entry(src, TaskId(9));
        m
    }

    #[test]
    fn route_decl_stays_small() {
        // A full-wafer manifest holds about 2.1 M route declarations: the
        // rule's output set is inline, so a declaration owns no heap memory.
        assert!(std::mem::size_of::<RouteDecl>() <= 32);
    }

    #[test]
    fn clean_mapping_verifies_clean() {
        let report = verify(&clean_two_pe());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.diagnostics.len(), 0, "{report}");
    }

    #[test]
    fn duplicate_color_claim_is_flagged_at_the_pe() {
        let mut m = clean_two_pe();
        // A second, conflicting claim of C0 on the destination PE.
        m.route(
            PeId::new(0, 1),
            C0,
            rule(Some(Direction::East), &[Direction::Ramp]),
        );
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::ColorDiscipline)
            .expect("duplicate claim must be an error");
        assert_eq!(d.pe, Some(PeId::new(0, 1)));
        assert_eq!(d.color, Some(C0));
        assert!(d.message.contains("conflicting"), "{d}");
    }

    #[test]
    fn rampless_cycle_is_flagged() {
        let mut m = MappingManifest::new("cycle", 2, 2);
        // A consistent 4-PE ring on C0 that never ramps:
        // (0,0)→E, (0,1)→S, (1,1)→W, (1,0)→N, back into (0,0) from South.
        m.route(
            PeId::new(0, 0),
            C0,
            rule(Some(Direction::South), &[Direction::East]),
        );
        m.route(
            PeId::new(0, 1),
            C0,
            rule(Some(Direction::West), &[Direction::South]),
        );
        m.route(
            PeId::new(1, 1),
            C0,
            rule(Some(Direction::North), &[Direction::West]),
        );
        m.route(
            PeId::new(1, 0),
            C0,
            rule(Some(Direction::East), &[Direction::North]),
        );
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::RouteSoundness && d.message.contains("ramp-less cycle"))
            .unwrap_or_else(|| panic!("rampless cycle must be an error:\n{report}"));
        assert_eq!(d.color, Some(C0));
        assert!(d.message.contains("PE(0,0)"), "{d}");
    }

    #[test]
    fn sram_overflow_is_flagged_with_totals() {
        let mut m = clean_two_pe();
        let pe = PeId::new(0, 1);
        m.declare_buffer(pe, 40 * 1024, "stage working set");
        m.declare_buffer(pe, 9 * 1024, "frame buffer");
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::SramBudget)
            .expect("49 KB on one PE must overflow the 48 KB budget");
        assert_eq!(d.pe, Some(pe));
        assert!(
            d.message.contains(&(49 * 1024).to_string())
                && d.message.contains(&PE_SRAM_BYTES.to_string()),
            "{d}"
        );
        // The same totals split across two PEs fit.
        let mut ok = clean_two_pe();
        ok.declare_buffer(PeId::new(0, 0), 40 * 1024, "a");
        ok.declare_buffer(PeId::new(0, 1), 9 * 1024, "b");
        assert!(verify(&ok).is_clean());
    }

    #[test]
    fn orphan_receiver_is_flagged() {
        let mut m = clean_two_pe();
        // A receive on C1 that nothing ever feeds.
        m.declare_recv(PeId::new(0, 0), C1, 16, 2, TaskId(9));
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::ChannelCompleteness)
            .expect("orphan receiver must be an error");
        assert_eq!(d.pe, Some(PeId::new(0, 0)));
        assert_eq!(d.color, Some(C1));
        assert!(d.message.contains("orphan receiver"), "{d}");
    }

    #[test]
    fn orphan_producer_is_flagged() {
        let mut m = clean_two_pe();
        // Remove the receive: the sender's wavelets land with nobody posted.
        m.recvs.clear();
        m.tasks.retain(|t| t.task != RECV);
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.message.contains("orphan producer"))
            .expect("orphan producer must be an error");
        assert_eq!(d.pe, Some(PeId::new(0, 1)));
    }

    #[test]
    fn under_supplied_channel_is_a_static_deadlock() {
        let mut m = clean_two_pe();
        m.sends[0].sends = 3; // 24 wavelets delivered, 32 expected
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.message.contains("under-supplied"))
            .expect("shortfall must be an error");
        assert!(d.message.contains("deadlock"), "{d}");
    }

    #[test]
    fn over_supplied_channel_is_a_warning_only() {
        let mut m = clean_two_pe();
        m.sends[0].sends = 5;
        let report = verify(&m);
        assert!(report.is_clean(), "{report}");
        assert!(report
            .warnings()
            .any(|d| d.message.contains("over-supplied")));
    }

    #[test]
    fn unreachable_task_is_flagged() {
        let mut m = clean_two_pe();
        m.declare_task(PeId::new(0, 1), TaskId(5));
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::TaskLiveness)
            .expect("unreachable task must be an error");
        assert_eq!(d.pe, Some(PeId::new(0, 1)));
        assert!(d.message.contains("task 5"), "{d}");
    }

    #[test]
    fn activation_of_undeclared_task_is_flagged() {
        let mut m = clean_two_pe();
        m.recvs[0].activates = TaskId(7); // the PE only declares task 0
        let report = verify(&m);
        assert!(report
            .errors()
            .any(|d| d.check == CheckKind::TaskLiveness && d.message.contains("does not declare")));
    }

    #[test]
    fn injection_satisfies_a_receiver_without_routes() {
        // Row-parallel shape: host injection straight into the PE's RAMP,
        // no fabric rules at all.
        let mut m = MappingManifest::new("inject", 1, 1);
        let pe = PeId::new(0, 0);
        m.declare_injection(pe, C0, 64);
        m.declare_recv(pe, C0, 32, 2, RECV);
        m.declare_task(pe, RECV);
        let report = verify(&m);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn off_mesh_route_is_flagged() {
        let mut m = MappingManifest::new("edge", 1, 1);
        m.route(PeId::new(0, 0), C0, rule(None, &[Direction::East]));
        m.declare_send(PeId::new(0, 0), C0, 4, 1, None);
        let report = verify(&m);
        assert!(report
            .errors()
            .any(|d| d.check == CheckKind::RouteSoundness && d.message.contains("off the 1x1")));
    }

    #[test]
    fn missing_downstream_rule_is_flagged_at_the_gap() {
        let mut m = MappingManifest::new("gap", 1, 3);
        m.route(PeId::new(0, 0), C0, rule(None, &[Direction::East]));
        // No rule at (0,1): the stream stalls there.
        m.declare_send(PeId::new(0, 0), C0, 4, 1, None);
        let report = verify(&m);
        let d = report
            .errors()
            .find(|d| d.check == CheckKind::RouteSoundness)
            .expect("gap must be an error");
        assert_eq!(d.pe, Some(PeId::new(0, 1)));
    }

    #[test]
    fn report_renders_summary_and_findings() {
        let mut m = clean_two_pe();
        m.declare_task(PeId::new(0, 1), TaskId(5));
        let s = verify(&m).to_string();
        assert!(s.contains("1 error(s)"), "{s}");
        assert!(s.contains("task-liveness"), "{s}");
    }
}
