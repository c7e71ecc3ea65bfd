//! Figure 7: median runtime breakdown at seq = 16 — time spent in
//! GetSteps, GetTopKBeams, CheckIfExecutes, VerifyConstraints per dataset,
//! plus the §6.5 sampling claim (Sales with vs without row sampling).

use lucid_bench::env::print_text_table;
use lucid_bench::runner::leave_one_out_ls;
use lucid_bench::ExpEnv;
use lucid_core::config::SearchConfig;
use lucid_core::intent::IntentMeasure;
use lucid_corpus::{CorpusVariant, Profile};
use serde::Serialize;

#[derive(Serialize)]
struct Fig7Row {
    dataset: String,
    get_steps_ms: f64,
    get_top_k_ms: f64,
    check_execute_ms: f64,
    verify_constraints_ms: f64,
    total_ms: f64,
    get_steps_speedup: f64,
    prefix_cache_hit_rate: f64,
    prefix_cache_evictions: u64,
    prefix_cache_peak_snapshots: u64,
    search_steps: usize,
    threads: usize,
    candidates_panicked: u64,
    budget_trips_fuel: u64,
    budget_trips_cells: u64,
    budget_trips_deadline: u64,
    candidates_deduped: u64,
    unique_stmts: u64,
    intern_hits: u64,
    dag_incremental_updates: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let mut env = ExpEnv::from_os_env();
    if env.fast {
        env.eval_override = Some(4);
    }
    println!("Figure 7: median runtime breakdown at seq = 16 (ms per script)\n");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for p in Profile::all() {
        let cfg = SearchConfig {
            intent: IntentMeasure::jaccard(0.9),
            sample_rows: env.sample_rows(),
            ..Default::default()
        };
        let res = leave_one_out_ls(&env, &p, CorpusVariant::Full, &cfg);
        let pick = |f: fn(&lucid_core::report::Timings) -> f64| {
            median(res.ls_reports.iter().map(|r| f(&r.timings)).collect())
        };
        let mut agg = lucid_core::report::Timings::default();
        for r in &res.ls_reports {
            agg.accumulate(&r.timings);
        }
        let row = Fig7Row {
            dataset: p.name.to_string(),
            get_steps_ms: pick(|t| t.get_steps_ms),
            get_top_k_ms: pick(|t| t.get_top_k_ms),
            check_execute_ms: pick(|t| t.check_execute_ms),
            verify_constraints_ms: pick(|t| t.verify_constraints_ms),
            total_ms: pick(|t| t.total_ms),
            get_steps_speedup: agg.get_steps_speedup(),
            prefix_cache_hit_rate: agg.prefix_cache_hit_rate(),
            prefix_cache_evictions: agg.prefix_cache_evictions,
            prefix_cache_peak_snapshots: agg.prefix_cache_peak_snapshots,
            search_steps: agg.search_steps,
            threads: agg.threads,
            candidates_panicked: agg.candidates_panicked,
            budget_trips_fuel: agg.budget_trips_fuel,
            budget_trips_cells: agg.budget_trips_cells,
            budget_trips_deadline: agg.budget_trips_deadline,
            candidates_deduped: agg.candidates_deduped,
            unique_stmts: agg.unique_stmts,
            intern_hits: agg.intern_hits,
            dag_incremental_updates: agg.dag_incremental_updates,
        };
        rows.push(vec![
            row.dataset.clone(),
            format!("{:.1}", row.get_steps_ms),
            format!("{:.1}", row.get_top_k_ms),
            format!("{:.1}", row.check_execute_ms),
            format!("{:.1}", row.verify_constraints_ms),
            format!("{:.1}", row.total_ms),
            format!("{:.2}x", row.get_steps_speedup),
            format!("{:.0}%", row.prefix_cache_hit_rate * 100.0),
            format!("{}", row.prefix_cache_evictions),
            format!("{}", row.search_steps),
            format!(
                "{}/{}",
                row.candidates_panicked,
                row.budget_trips_fuel + row.budget_trips_cells + row.budget_trips_deadline
            ),
            format!("{}", row.candidates_deduped),
        ]);
        json.push(row);
        println!("  {} done", p.name);
    }
    println!();
    print_text_table(
        &[
            "Dataset",
            "GetSteps",
            "GetTopKBeams",
            "CheckIfExecutes",
            "VerifyConstraints",
            "Total",
            "GS speedup",
            "Cache hits",
            "Evict",
            "Steps",
            "Panic/Budget",
            "Dedup",
        ],
        &rows,
    );

    // §6.5: sampling ablation on Sales (the paper: 20× slower unsampled).
    println!("\n§6.5 sampling ablation on Sales (median end-to-end ms per script):");
    let sales = Profile::sales();
    let mut sampled_cfg = SearchConfig {
        intent: IntentMeasure::jaccard(0.9),
        sample_rows: Some(300),
        seq_len: 4,
        ..Default::default()
    };
    let res = leave_one_out_ls(&env, &sales, CorpusVariant::Full, &sampled_cfg);
    let with_sampling = median(res.ls_reports.iter().map(|r| r.timings.total_ms).collect());
    sampled_cfg.sample_rows = None;
    let res = leave_one_out_ls(&env, &sales, CorpusVariant::Full, &sampled_cfg);
    let without_sampling = median(res.ls_reports.iter().map(|r| r.timings.total_ms).collect());
    println!(
        "  with sampling: {with_sampling:.1} ms   without: {without_sampling:.1} ms   speedup: {:.1}x",
        without_sampling / with_sampling.max(1e-9)
    );
    env.write_json(
        "fig7",
        &(json, ("sales_sampling_ms", with_sampling, without_sampling)),
    );
}
