//! Fig. 10: (a) per-PE data-relaying time is linear in the column count
//! (Eq. 2); (b) per-PE execution time is inversely proportional to the
//! pipeline length (Eq. 3). Both profiled on QMCPack, as in §4.3.
//!
//! Run: `cargo run --release -p ceresz-bench --bin fig10`

use ceresz_bench::{Table, SEED};
use ceresz_core::plan::PipelineModel;
use ceresz_core::{CereszConfig, ErrorBound};
use ceresz_wse::{execute, profile_compression, SimOptions, StrategyKind};
use datasets::{generate_field, DatasetId};

fn main() {
    let field = generate_field(DatasetId::QmcPack, 0, SEED);
    // A slice of the field keeps the event simulation quick; the relaying
    // behaviour is per-block and does not depend on the dataset size.
    let data = &field.data[..32 * 2048];
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
    let model = PipelineModel::cs2_defaults(32);

    println!("Fig. 10(a): relay latency vs column count (QMCPack, 1 row, length-1 pipelines)");
    println!("Paper: linear correlation between columns and per-PE relaying time");
    let t = Table::new(&[8, 16, 16, 18]);
    t.sep();
    t.row(&[
        "cols".into(),
        "sim cycles".into(),
        "relay delta".into(),
        "Eq.2 TC*C1".into(),
    ]);
    t.sep();
    // One identical block per pipeline isolates the relay term: compute is
    // constant, so the finish-time growth is purely relay latency.
    let block = &data[..32];
    let mut prev: Option<(usize, wse_sim::Time)> = None;
    for p in [2usize, 4, 8, 16, 32] {
        let round: Vec<f32> = block.iter().copied().cycle().take(32 * p).collect();
        let run = execute(
            StrategyKind::MultiPipeline {
                rows: 1,
                pipeline_length: 1,
                pipelines_per_row: p,
            },
            &round,
            &cfg,
            &SimOptions::default(),
        )
        .expect("simulation runs");
        let finish = run.stats.finish_cycle;
        let delta = prev.map_or_else(
            || "-".into(),
            |(pp, pf)| format!("{:.0}/col", (finish - pf).cycles_f64() / (p - pp) as f64),
        );
        prev = Some((p, finish));
        let eq2 = model.relay_cycles_per_round(p);
        t.row(&[
            p.to_string(),
            format!("{finish}"),
            delta,
            format!("{eq2:.0}"),
        ]);
    }
    t.sep();
    println!(
        "(Marginal latency/column = relay task dispatch (80) + stream (32+1). Eq. 2's C1 = {} \n         models the PE-occupancy component; the asynchronous stream overlaps compute.)",
        model.c1
    );

    println!();
    println!("Fig. 10(b): per-PE execution cycles vs pipeline length (QMCPack)");
    println!("Paper: inversely proportional to the pipeline length (Eq. 3)");
    let t = Table::new(&[8, 20, 18]);
    t.sep();
    t.row(&[
        "length".into(),
        "busy cycles/PE/blk".into(),
        "Eq.3 C/len+len*C2".into(),
    ]);
    t.sep();
    let n_blocks = data.len().div_ceil(32) as f64;
    let mut c_total = None;
    for len in [1usize, 2, 4, 8] {
        let run = execute(
            StrategyKind::Pipeline {
                rows: 1,
                pipeline_length: len,
            },
            data,
            &cfg,
            &SimOptions::default(),
        )
        .expect("simulation runs");
        let per_pe_per_block = run.stats.total_busy_cycles.cycles_f64() / (n_blocks * len as f64);
        let plan = run.plan.as_ref().expect("pipeline strategy builds a plan");
        let c = *c_total.get_or_insert(plan.total_cycles);
        let eq3 = model.compute_cycles_per_round(c, len);
        t.row(&[
            len.to_string(),
            format!("{per_pe_per_block:.0}"),
            format!("{eq3:.0}"),
        ]);
    }
    t.sep();

    // Per-stage cycle attribution of the Fig. 10 configuration, written as
    // profile.json for post-processing (relay overhead shows up under
    // "dispatch"/"unattributed" on the head PEs).
    let p = 8usize;
    let round: Vec<f32> = data[..32 * p].to_vec();
    let strategy = StrategyKind::MultiPipeline {
        rows: 1,
        pipeline_length: 1,
        pipelines_per_row: p,
    };
    let profile = profile_compression(&round, &cfg, strategy).expect("simulation runs");
    std::fs::write("fig10.profile.json", profile.report.to_json().to_pretty())
        .expect("write fig10.profile.json");
    println!("\nper-stage attribution of the {p}-pipeline run written to fig10.profile.json");
}
