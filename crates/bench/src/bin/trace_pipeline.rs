//! Visualize pipeline parallelism: a per-PE task-timeline Gantt chart of a
//! 4-stage compression pipeline processing its first blocks — the steady
//! state the paper's Fig. 2 sketches, rendered from the event simulator.
//! Chart and artifacts come from one profiled (flight-recorded) run: the
//! per-stage cycle attribution is written to `trace_pipeline.profile.json`
//! and the timeline with its stall counter tracks to
//! `trace_pipeline.trace.json` (loadable in Perfetto / `chrome://tracing`).
//!
//! Run: `cargo run --release -p ceresz-bench --bin trace_pipeline`

use ceresz_bench::SEED;
use ceresz_core::{CereszConfig, ErrorBound};
use ceresz_wse::{profile_compression, StrategyKind};
use datasets::{generate_field, DatasetId};

fn main() {
    let field = generate_field(DatasetId::CesmAtm, 0, SEED);
    let data = &field.data[..32 * 16];
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
    let strategy = StrategyKind::Pipeline {
        rows: 1,
        pipeline_length: 4,
    };
    let profile = profile_compression(data, &cfg, strategy).expect("simulation runs");
    let run = &profile.run;
    let plan = run.plan.as_ref().expect("pipeline strategy builds a plan");
    println!(
        "4-PE pipeline, 16 blocks of CESM-ATM, plan f = {}, bottleneck {:.0} cycles",
        plan.fixed_length,
        plan.bottleneck_cycles()
    );
    println!("Stage groups:");
    for (pe, group) in plan.groups.iter().enumerate() {
        let names: Vec<String> = group.iter().map(|&i| plan.stages[i].kind.name()).collect();
        println!("  PE {pe}: [{}]", names.join(", "));
    }
    println!();
    let window = run
        .stats
        .finish_cycle
        .min(wse_sim::Time::from_cycles(200_000));
    let flight = run
        .report
        .flight()
        .expect("profiled runs are flight-recorded");
    print!("{}", flight.timeline().gantt(window, 100));
    println!(
        "\nOnce the pipeline fills, all 4 PEs overlap on different blocks — \
         the data-triggered execution of §2.1."
    );

    println!("\n{}", profile.report.render_table());
    std::fs::write(
        "trace_pipeline.profile.json",
        profile.report.to_json().to_pretty(),
    )
    .expect("write profile.json");
    std::fs::write(
        "trace_pipeline.trace.json",
        profile.trace.to_json().to_pretty(),
    )
    .expect("write trace.json");
    println!("wrote trace_pipeline.profile.json and trace_pipeline.trace.json");
}
