//! Figure 7: median runtime breakdown at seq = 16 — time spent in
//! GetSteps, GetTopKBeams, CheckIfExecutes, VerifyConstraints per dataset,
//! plus the §6.5 optimizations: row sampling on Sales (with vs without)
//! and early vs late execution checking on Medical.

use lucid_bench::env::print_text_table;
use lucid_bench::runner::leave_one_out_ls;
use lucid_bench::ExpEnv;
use lucid_core::config::SearchConfig;
use lucid_core::intent::IntentMeasure;
use lucid_core::report::Timings;
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
    /// Every search of the dataset, accumulated.
    timings: Timings,
}

/// Median end-to-end ms per script of a leave-one-out run.
fn median_total_ms(env: &ExpEnv, profile: &Profile, cfg: &SearchConfig) -> f64 {
    let res = leave_one_out_ls(env, profile, CorpusVariant::Full, cfg);
    median(res.ls_reports.iter().map(|r| r.timings.total_ms).collect())
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
        let pick = |f: fn(&Timings) -> f64| {
            median(res.ls_reports.iter().map(|r| f(&r.timings)).collect())
        };
        let mut agg = Timings::default();
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
            timings: agg,
        };
        rows.push(vec![
            row.dataset.clone(),
            format!("{:.1}", row.get_steps_ms),
            format!("{:.1}", row.get_top_k_ms),
            format!("{:.1}", row.check_execute_ms),
            format!("{:.1}", row.verify_constraints_ms),
            format!("{:.1}", row.total_ms),
            format!("{:.2}x", agg.get_steps_speedup()),
            format!("{:.0}%", agg.prefix_cache_hit_rate() * 100.0),
            format!("{}", agg.prefix_cache_evictions),
            format!("{}", agg.search_steps),
            format!("{}/{}", agg.candidates_panicked, agg.budget_trips_total()),
            format!("{}", agg.candidates_deduped),
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
    let mut sampled_cfg = SearchConfig {
        intent: IntentMeasure::jaccard(0.9),
        sample_rows: Some(300),
        seq_len: 4,
        ..Default::default()
    };
    let with_sampling = median_total_ms(&env, &Profile::sales(), &sampled_cfg);
    sampled_cfg.sample_rows = None;
    let without_sampling = median_total_ms(&env, &Profile::sales(), &sampled_cfg);
    println!(
        "  with sampling: {with_sampling:.1} ms   without: {without_sampling:.1} ms   speedup: {:.1}x",
        without_sampling / with_sampling.max(1e-9)
    );

    // §6.5: early checking runs CheckIfExecutes on every scored candidate
    // and keeps only executable beams; late checking runs it once per
    // finalist at the end.
    println!(
        "\n§6.5 early vs late execution checking on Medical (median end-to-end ms per script):"
    );
    let mut check_cfg = SearchConfig {
        intent: IntentMeasure::jaccard(0.8),
        sample_rows: Some(150),
        seq_len: 4,
        early_check: true,
        ..Default::default()
    };
    let early = median_total_ms(&env, &Profile::medical(), &check_cfg);
    check_cfg.early_check = false;
    let late = median_total_ms(&env, &Profile::medical(), &check_cfg);
    println!(
        "  early checking: {early:.1} ms   late: {late:.1} ms   late/early: {:.2}x",
        late / early.max(1e-9)
    );
    env.write_json(
        "fig7",
        &(
            json,
            ("sales_sampling_ms", with_sampling, without_sampling),
            ("medical_early_late_check_ms", early, late),
        ),
    );
}
