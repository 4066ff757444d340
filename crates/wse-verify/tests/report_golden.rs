//! Golden verifier reports: the full rendered `VerifyReport` of
//! hand-written manifests that reach every message the five checks emit,
//! plus one mutation per check kind of a shipped multi-pipeline manifest.
//!
//! The expected strings pin the text, the location, and the *order* of every
//! diagnostic — including rules, receives, buffers and tasks declared on PEs
//! outside the mesh, which sort between the on-mesh PEs of their row (column
//! beyond the mesh) or after every on-mesh row (row beyond the mesh).
//!
//! The one message no manifest reaches is a route walk's "route cycles
//! without reaching a RAMP": a walk leaves its origin through a rule whose
//! input is the RAMP, and each PE accepts one input direction, so a walk can
//! only re-enter its own path at the origin, where the input check fails
//! first. Ramp-less cycles are caught by the table-only search instead.

use ceresz_core::{CereszConfig, ErrorBound};
use ceresz_wse::{mapping_manifest, StrategyKind};
use wse_sim::{Color, Direction, PeId, RouteRule, TaskId};
use wse_verify::{verify, MappingManifest};

use Direction::{East, North, Ramp, South, West};

const T1: TaskId = TaskId(1);

fn c(id: u8) -> Color {
    Color::new(id)
}

fn pe(row: usize, col: usize) -> PeId {
    PeId::new(row, col)
}

fn rule(input: Option<Direction>, outputs: &[Direction]) -> RouteRule {
    RouteRule::new(input, outputs)
}

#[track_caller]
fn assert_report(manifest: &MappingManifest, lines: &[&str]) {
    let expected: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let actual = verify(manifest).to_string();
    assert_eq!(
        actual, expected,
        "\n--- actual report ---\n{actual}--- expected ---\n{expected}"
    );
}

/// Rules on PEs outside the mesh are errors in declaration order; the
/// origin-without-sender warnings that follow walk the route table in
/// `(PE, color)` order, with a column beyond the mesh sorting inside its row
/// and a row beyond the mesh after every on-mesh row. A stream may start
/// off the mesh and walk onto it.
#[test]
fn off_mesh_rules_sort_inside_their_row() {
    let mut m = MappingManifest::new("off-mesh", 2, 3);
    m.route(pe(5, 0), c(0), rule(None, &[East]));
    m.route(pe(0, 5), c(0), rule(None, &[East]));
    m.route(pe(1, 0), c(0), rule(None, &[South]));
    m.route(pe(0, 0), c(0), rule(None, &[East]));
    // A declaration that sends nothing does not make its origin a sender.
    m.declare_send(pe(1, 0), c(0), 4, 0, None);
    // Off the mesh below row 1, streaming north onto it.
    m.route(pe(2, 1), c(1), rule(None, &[North]));
    m.route(pe(1, 1), c(1), rule(Some(South), &[Ramp]));
    m.declare_send(pe(2, 1), c(1), 4, 2, None);
    m.declare_recv(pe(1, 1), c(1), 4, 2, T1);
    m.declare_task(pe(1, 1), T1);
    assert_report(
        &m,
        &[
            "3 error(s), 4 warning(s)",
            "  error[route-soundness] PE(5,0) color0: rule installed outside the 2x3 mesh",
            "  error[route-soundness] PE(0,5) color0: rule installed outside the 2x3 mesh",
            "  error[route-soundness] PE(2,1) color1: rule installed outside the 2x3 mesh",
            "  warning[route-soundness] PE(0,0) color0: route origin installed but no sender is declared for it (help: declare the send in the manifest or remove the dead route)",
            "  warning[route-soundness] PE(0,5) color0: route origin installed but no sender is declared for it (help: declare the send in the manifest or remove the dead route)",
            "  warning[route-soundness] PE(1,0) color0: route origin installed but no sender is declared for it (help: declare the send in the manifest or remove the dead route)",
            "  warning[route-soundness] PE(5,0) color0: route origin installed but no sender is declared for it (help: declare the send in the manifest or remove the dead route)",
        ],
    );
}

/// Every way a declared stream's hop-by-hop walk can fail, each reported at
/// the PE where it fails; a second declaration on an already-walked origin
/// is not walked again.
#[test]
fn route_walk_defects() {
    let mut m = MappingManifest::new("walks", 2, 3);
    // Missing rule: nothing installed at PE(0,1) on color 0.
    m.route(pe(0, 0), c(0), rule(None, &[East]));
    m.declare_send(pe(0, 0), c(0), 4, 1, None);
    m.declare_send(pe(0, 0), c(0), 4, 1, None);
    // Input mismatch: PE(1,1) accepts from the north, the stream comes from
    // the west.
    m.route(pe(1, 0), c(1), rule(None, &[East]));
    m.route(pe(1, 1), c(1), rule(Some(North), &[Ramp]));
    m.declare_send(pe(1, 0), c(1), 4, 1, None);
    // No output direction at all.
    m.route(pe(0, 1), c(2), rule(None, &[]));
    m.declare_send(pe(0, 1), c(2), 4, 1, None);
    // Multicast: two non-RAMP outputs.
    m.route(pe(0, 2), c(3), rule(None, &[West, South]));
    m.declare_send(pe(0, 2), c(3), 4, 1, None);
    // Off the mesh: east of the last column.
    m.route(pe(1, 2), c(4), rule(None, &[East]));
    m.declare_send(pe(1, 2), c(4), 4, 1, None);
    // A rule-less origin that never sends is not walked.
    m.declare_send(pe(1, 1), c(5), 4, 0, None);
    // A sound two-hop stream, balanced by its receiver.
    m.route(pe(0, 0), c(6), rule(None, &[South]));
    m.route(pe(1, 0), c(6), rule(Some(North), &[East]));
    m.route(pe(1, 1), c(6), rule(Some(West), &[Ramp, East]));
    m.declare_send(pe(0, 0), c(6), 2, 3, None);
    m.declare_recv(pe(1, 1), c(6), 2, 3, T1);
    m.declare_task(pe(1, 1), T1);
    assert_report(
        &m,
        &[
            "5 error(s), 0 warning(s)",
            "  error[route-soundness] PE(0,1) color0: stream from PE(0,0) needs a routing rule here, but none is installed (help: install a rule with Simulator::route before injecting on this color)",
            "  error[route-soundness] PE(1,1) color1: stream from PE(1,0) arrives from Some(West) but the rule accepts Some(North) (help: the rule's input direction must match the upstream hop)",
            "  error[route-soundness] PE(0,1) color2: rule on the path from PE(0,1) has no output direction (help: add an output direction or Ramp to the rule)",
            "  error[route-soundness] PE(0,2) color3: rule on the path from PE(0,2) is multicast (several non-RAMP outputs) (help: the simulator streams are unicast; relay explicitly instead)",
            "  error[route-soundness] PE(1,2) color4: rule outputs East off the 2x3 mesh (help: shrink the route or grow the mesh shape)",
        ],
    );
}

/// Ramp-less cycles in the route table itself, with no sender feeding them:
/// reported once per cycle, per color in ascending order, starting at the
/// cycle's first PE in `(row, col)` order. Two rules off the mesh can form
/// a cycle too. Origins nobody sends from are warnings.
#[test]
fn table_only_cycles_and_unused_origins() {
    let mut m = MappingManifest::new("cycles", 3, 3);
    // A 2×2 ring on color 2, declared from its bottom-right corner.
    m.route(pe(2, 2), c(2), rule(Some(West), &[North]));
    m.route(pe(1, 2), c(2), rule(Some(South), &[West]));
    m.route(pe(1, 1), c(2), rule(Some(East), &[South]));
    m.route(pe(2, 1), c(2), rule(Some(North), &[East]));
    // A 2×2 ring on color 0 at the origin corner.
    m.route(pe(0, 0), c(0), rule(Some(South), &[East]));
    m.route(pe(0, 1), c(0), rule(Some(West), &[South]));
    m.route(pe(1, 1), c(0), rule(Some(North), &[West]));
    m.route(pe(1, 0), c(0), rule(Some(East), &[North]));
    // Two PEs east of the mesh bouncing a stream between them on color 0.
    m.route(pe(0, 4), c(0), rule(Some(South), &[South]));
    m.route(pe(1, 4), c(0), rule(Some(North), &[North]));
    // A chain that delivers: not a cycle, and its origin is unused.
    m.route(pe(2, 0), c(1), rule(None, &[East]));
    m.route(pe(2, 1), c(1), rule(Some(West), &[East]));
    m.route(pe(2, 2), c(1), rule(Some(West), &[Ramp]));
    // A loopback origin (RAMP in, RAMP out) is not a dead route.
    m.route(pe(0, 2), c(1), rule(None, &[Ramp]));
    assert_report(
        &m,
        &[
            "5 error(s), 1 warning(s)",
            "  error[route-soundness] PE(0,4) color0: rule installed outside the 3x3 mesh",
            "  error[route-soundness] PE(1,4) color0: rule installed outside the 3x3 mesh",
            "  error[route-soundness] PE(0,0) color0: ramp-less cycle: PE(0,0), PE(0,1), PE(1,1), PE(1,0) forward to each other forever without delivering (help: one PE on the cycle must output to Ramp)",
            "  error[route-soundness] PE(0,4) color0: ramp-less cycle: PE(0,4), PE(1,4) forward to each other forever without delivering (help: one PE on the cycle must output to Ramp)",
            "  error[route-soundness] PE(1,1) color2: ramp-less cycle: PE(1,1), PE(2,1), PE(2,2), PE(1,2) forward to each other forever without delivering (help: one PE on the cycle must output to Ramp)",
            "  warning[route-soundness] PE(2,0) color1: route origin installed but no sender is declared for it (help: declare the send in the manifest or remove the dead route)",
        ],
    );
}

/// Re-claims of one `(PE, color)` pair: conflicting ones are errors,
/// identical ones warnings, reported in `(PE, color)` order. As on the
/// fabric, the last claim is the one in effect: the conflicting re-claim at
/// PE(0,1) breaks the stream the first claim would deliver.
#[test]
fn conflicting_and_identical_reclaims() {
    let mut m = MappingManifest::new("reclaims", 2, 2);
    m.route(pe(0, 0), c(0), rule(None, &[East]));
    m.route(pe(0, 1), c(0), rule(Some(West), &[Ramp]));
    m.route(pe(0, 1), c(0), rule(Some(North), &[Ramp]));
    m.declare_send(pe(0, 0), c(0), 4, 1, None);
    m.declare_recv(pe(0, 1), c(0), 4, 1, T1);
    m.declare_task(pe(0, 1), T1);
    for _ in 0..3 {
        m.route(pe(0, 0), c(1), rule(None, &[Ramp]));
    }
    m.route(pe(1, 1), c(3), rule(Some(West), &[Ramp]));
    m.route(pe(1, 1), c(3), rule(Some(West), &[Ramp]));
    m.route(pe(0, 5), c(2), rule(Some(West), &[Ramp]));
    m.route(pe(0, 5), c(2), rule(Some(North), &[Ramp]));
    assert_report(
        &m,
        &[
            "6 error(s), 2 warning(s)",
            "  error[route-soundness] PE(0,5) color2: rule installed outside the 2x2 mesh",
            "  error[route-soundness] PE(0,5) color2: rule installed outside the 2x2 mesh",
            "  error[route-soundness] PE(0,1) color0: stream from PE(0,0) arrives from Some(West) but the rule accepts Some(North) (help: the rule's input direction must match the upstream hop)",
            "  warning[color-discipline] PE(0,0) color1: identical rule installed 3 times",
            "  error[color-discipline] PE(0,1) color0: 2 rules claim this color/direction pair with conflicting directions; the fabric keeps only the last installed (help: give each logical channel through this PE its own color)",
            "  error[color-discipline] PE(0,5) color2: 2 rules claim this color/direction pair with conflicting directions; the fabric keeps only the last installed (help: give each logical channel through this PE its own color)",
            "  warning[color-discipline] PE(1,1) color3: identical rule installed 2 times",
            "  error[channel-completeness] PE(0,1) color0: orphan receiver: expects 4 wavelet(s) but no upstream sender or injection delivers here (help: declare the matching sender, or drop the receive)",
        ],
    );
}

/// Channel balance per `(PE, color)`: orphan receivers and producers,
/// under- and over-supply, including a zero-extent receive and channels on
/// PEs outside the mesh.
#[test]
fn channel_balance() {
    let mut m = MappingManifest::new("channels", 2, 3);
    // Orphan receiver.
    m.declare_recv(pe(0, 0), c(0), 16, 2, T1);
    // Orphan producer.
    m.declare_injection(pe(0, 1), c(1), 8);
    // Under-supplied: 8 delivered, 12 expected.
    m.declare_injection(pe(1, 0), c(2), 8);
    m.declare_recv(pe(1, 0), c(2), 4, 3, T1);
    // Over-supplied over the fabric: 10 delivered, 5 consumed.
    m.route(pe(0, 2), c(3), rule(None, &[South]));
    m.route(pe(1, 2), c(3), rule(Some(North), &[Ramp]));
    m.declare_send(pe(0, 2), c(3), 5, 2, None);
    m.declare_recv(pe(1, 2), c(3), 5, 1, T1);
    // A zero-extent receive still counts as a consumer.
    m.declare_injection(pe(1, 1), c(4), 3);
    m.declare_recv(pe(1, 1), c(4), 0, 1, T1);
    // Balanced from two injections and two receive declarations.
    m.declare_injection(pe(0, 2), c(5), 6);
    m.declare_recv(pe(0, 2), c(5), 2, 1, T1);
    m.declare_injection(pe(0, 2), c(5), 2);
    m.declare_recv(pe(0, 2), c(5), 3, 2, T1);
    // Off the mesh: a producer east of row 0, a receiver below the mesh.
    m.declare_injection(pe(0, 4), c(1), 5);
    m.declare_recv(pe(3, 0), c(0), 1, 1, T1);
    for p in [pe(0, 0), pe(1, 0), pe(1, 1), pe(1, 2), pe(0, 2), pe(3, 0)] {
        m.declare_task(p, T1);
    }
    assert_report(
        &m,
        &[
            "5 error(s), 2 warning(s)",
            "  error[channel-completeness] PE(0,0) color0: orphan receiver: expects 32 wavelet(s) but no upstream sender or injection delivers here (help: declare the matching sender, or drop the receive)",
            "  error[channel-completeness] PE(1,0) color2: channel under-supplied: 8 wavelet(s) delivered but 12 expected — the final receive can never complete (deadlock) (help: balance the sender's send count/extent with the receiver's)",
            "  warning[channel-completeness] PE(1,1) color4: channel over-supplied: 3 wavelet(s) delivered but only 0 consumed; the rest sit in the inbox",
            "  warning[channel-completeness] PE(1,2) color3: channel over-supplied: 10 wavelet(s) delivered but only 5 consumed; the rest sit in the inbox",
            "  error[channel-completeness] PE(3,0) color0: orphan receiver: expects 1 wavelet(s) but no upstream sender or injection delivers here (help: declare the matching sender, or drop the receive)",
            "  error[channel-completeness] PE(0,1) color1: orphan producer: 8 wavelet(s) delivered here but no receive is ever posted (help: post a receive on this color, or remove the sender)",
            "  error[channel-completeness] PE(0,4) color1: orphan producer: 5 wavelet(s) delivered here but no receive is ever posted (help: post a receive on this color, or remove the sender)",
        ],
    );
}

/// Per-PE SRAM totals with every contributing label, in declaration order.
#[test]
fn sram_overflow_lists_every_label() {
    let mut m = MappingManifest::new("sram", 1, 2);
    m.declare_buffer(pe(0, 1), 40 * 1024, "stage working set");
    m.declare_buffer(pe(2, 0), 30 * 1024, "a");
    m.declare_buffer(pe(0, 1), 9 * 1024, "frame buffer");
    m.declare_buffer(pe(0, 0), 48 * 1024, "exactly full");
    m.declare_buffer(pe(2, 0), 30 * 1024, "b");
    m.declare_buffer(pe(0, 1), 1024, "relay");
    m.declare_buffer(pe(0, 3), 50 * 1024, "off mesh");
    assert_report(
        &m,
        &[
            "3 error(s), 0 warning(s)",
            "  error[sram-budget] PE(0,1): peak footprint 51200 B exceeds the 49152 B SRAM (stage working set + frame buffer + relay) (help: shrink the block size or spread the stages over a longer pipeline)",
            "  error[sram-budget] PE(0,3): peak footprint 51200 B exceeds the 49152 B SRAM (off mesh) (help: shrink the block size or spread the stages over a longer pipeline)",
            "  error[sram-budget] PE(2,0): peak footprint 61440 B exceeds the 49152 B SRAM (a + b) (help: shrink the block size or spread the stages over a longer pipeline)",
        ],
    );
}

/// Tasks nothing activates, and activations of tasks a PE never declared.
#[test]
fn task_liveness() {
    let mut m = MappingManifest::new("tasks", 1, 3);
    // Entry point and a balanced loopback whose receive and send completions
    // activate declared tasks.
    m.declare_task(pe(0, 0), TaskId(9));
    m.declare_entry(pe(0, 0), TaskId(9));
    m.route(pe(0, 0), c(1), rule(None, &[Ramp]));
    m.declare_send(pe(0, 0), c(1), 4, 1, Some(TaskId(2)));
    m.declare_recv(pe(0, 0), c(1), 4, 1, TaskId(9));
    m.declare_task(pe(0, 0), TaskId(2));
    // A send that never happens activates nothing.
    m.declare_send(pe(0, 0), c(1), 4, 0, Some(TaskId(3)));
    m.declare_task(pe(0, 0), TaskId(3));
    // Declared twice, activated never.
    m.declare_task(pe(0, 1), TaskId(5));
    m.declare_task(pe(0, 1), TaskId(5));
    // A receive completion activating an undeclared task; a receive that is
    // never posted activates nothing.
    m.declare_injection(pe(0, 2), c(0), 4);
    m.declare_recv(pe(0, 2), c(0), 4, 1, TaskId(7));
    m.declare_recv(pe(0, 2), c(2), 4, 0, TaskId(8));
    // Off the mesh.
    m.declare_task(pe(1, 0), TaskId(0));
    m.declare_task(pe(0, 4), T1);
    assert_report(
        &m,
        &[
            "5 error(s), 0 warning(s)",
            "  error[task-liveness] PE(0,0): task 3 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(0,1): task 5 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(0,4): task 1 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(1,0): task 0 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(0,2) color0: receive completion activates task 7 which this PE's program does not declare (help: declare the task on the PE or fix the activation target)",
        ],
    );
}

/// The shipped `MultiPipeline{2,3,2}` manifest verifies clean.
fn shipped() -> MappingManifest {
    let data: Vec<f32> = (0..32 * 24)
        .map(|i| (i as f32 * 0.02).sin() * 8.0)
        .collect();
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let kind = StrategyKind::MultiPipeline {
        rows: 2,
        pipeline_length: 3,
        pipelines_per_row: 2,
    };
    let m = mapping_manifest(&data, &cfg, kind).expect("the shipped mapping builds");
    assert_report(&m, &["0 error(s), 0 warning(s)"]);
    m
}

#[test]
fn shipped_manifest_route_defect() {
    // Drop the last rule that delivers to a RAMP.
    let mut m = shipped();
    let at = m
        .routes
        .iter()
        .rposition(|r| r.rule.outputs.contains(Ramp) && r.rule.input.is_some())
        .expect("the mapping delivers somewhere");
    m.routes.remove(at);
    assert_report(
        &m,
        &[
            "2 error(s), 0 warning(s)",
            "  error[route-soundness] PE(1,5) color2: stream from PE(1,4) needs a routing rule here, but none is installed (help: install a rule with Simulator::route before injecting on this color)",
            "  error[channel-completeness] PE(1,5) color2: orphan receiver: expects 408 wavelet(s) but no upstream sender or injection delivers here (help: declare the matching sender, or drop the receive)",
        ],
    );
}

#[test]
fn shipped_manifest_color_defect() {
    // Re-claim the first rule's pair with the opposite input.
    let mut m = shipped();
    let first = m.routes[0].clone();
    m.route(
        first.pe,
        first.color,
        RouteRule {
            input: Some(North),
            ..first.rule
        },
    );
    assert_report(
        &m,
        &[
            "3 error(s), 0 warning(s)",
            "  error[route-soundness] PE(0,0) color3: stream from PE(0,0) arrives from None but the rule accepts Some(North) (help: the rule's input direction must match the upstream hop)",
            "  error[color-discipline] PE(0,0) color3: 2 rules claim this color/direction pair with conflicting directions; the fabric keeps only the last installed (help: give each logical channel through this PE its own color)",
            "  error[channel-completeness] PE(0,3) color3: orphan receiver: expects 192 wavelet(s) but no upstream sender or injection delivers here (help: declare the matching sender, or drop the receive)",
        ],
    );
}

#[test]
fn shipped_manifest_channel_defect() {
    let mut m = shipped();
    m.recvs[0].recvs += 1;
    m.sends.last_mut().expect("the mapping sends").sends += 1;
    assert_report(
        &m,
        &[
            "1 error(s), 1 warning(s)",
            "  error[channel-completeness] PE(0,0) color0: channel under-supplied: 384 wavelet(s) delivered but 416 expected — the final receive can never complete (deadlock) (help: balance the sender's send count/extent with the receiver's)",
            "  warning[channel-completeness] PE(1,5) color2: channel over-supplied: 476 wavelet(s) delivered but only 408 consumed; the rest sit in the inbox",
        ],
    );
}

#[test]
fn shipped_manifest_sram_defect() {
    let mut m = shipped();
    let at = m.buffers[0].pe;
    m.declare_buffer(at, wse_sim::PE_SRAM_BYTES, "oversized");
    assert_report(
        &m,
        &[
            "1 error(s), 0 warning(s)",
            "  error[sram-budget] PE(0,0): peak footprint 55684 B exceeds the 49152 B SRAM (stage group 0 working set + oversized) (help: shrink the block size or spread the stages over a longer pipeline)",
        ],
    );
}

#[test]
fn shipped_manifest_task_defect() {
    let mut m = shipped();
    let at = m.tasks[0].pe;
    m.declare_task(at, TaskId(99));
    m.recvs.last_mut().expect("the mapping receives").activates = TaskId(98);
    assert_report(
        &m,
        &[
            "3 error(s), 0 warning(s)",
            "  error[task-liveness] PE(0,0): task 99 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(1,5): task 0 is declared but nothing ever activates it (help: bind it to a receive/send completion or activate it from the host)",
            "  error[task-liveness] PE(1,5) color2: receive completion activates task 98 which this PE's program does not declare (help: declare the task on the PE or fix the activation target)",
        ],
    );
}
