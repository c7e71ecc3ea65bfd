//! Replays the first beam step of a script through public functions, so
//! the traced run can time the layers inside `GetSteps` and
//! `CheckIfExecutes` one call at a time:
//!
//! parse → lemmatize → `Program` + DAG → `enumerate_transformations` →
//! per candidate `apply_ir` + `update_dag` and `relative_entropy` → rank →
//! `kmeans` over step features → early execution checks, `K / M` admitted
//! per cluster, each a cold `Interpreter::run_shared` (no prefix cache).

use crate::spans::Tracer;
use lucid_core::entropy::relative_entropy;
use lucid_core::ir::{Program, StmtInterner};
use lucid_core::kmeans::kmeans;
use lucid_core::lemma::lemmatize;
use lucid_core::transform::enumerate_transformations;
use lucid_core::Standardizer;
use lucid_interp::Interpreter;
use lucid_pyast::parse_module;

/// Counts over all replayed beams.
#[derive(Debug, Default)]
pub struct ReplayAcc {
    pub beams: u64,
    pub candidates: u64,
    pub exec_runs: u64,
    pub exec_fails: u64,
}

pub fn first_step(
    std: &Standardizer,
    interp: &Interpreter,
    src: &str,
    tr: &mut Tracer,
    acc: &mut ReplayAcc,
) -> Result<(), String> {
    let config = std.config();
    let corpus = std.corpus();
    let module = tr
        .span("pyast.parse", || parse_module(src))
        .map_err(|e| format!("user script does not parse: {e}"))?;
    let input = tr.span("core.lemma.lemmatize", || lemmatize(&module));
    let interner = StmtInterner::new();
    let (program, dag) = tr.span("core.ir.build", || {
        let p = Program::from_module(&input, &interner);
        let d = p.full_dag();
        (p, d)
    });
    let steps = tr.span("core.transform.enumerate", || {
        enumerate_transformations(&dag, corpus, 0, &config.enum_opts)
    });
    acc.beams += 1;
    acc.candidates += steps.len() as u64;

    let mut scored = Vec::with_capacity(steps.len());
    for t in &steps {
        let applied = tr.span("core.ir.apply", || {
            t.apply_ir(&program, &interner).ok().map(|p| {
                let d = p.update_dag(&dag, t.line, &interner);
                (p, d)
            })
        });
        let Some((p, d)) = applied else { continue };
        let re = tr.span("core.entropy.score", || relative_entropy(&d, corpus));
        scored.push((t.line, p, re));
    }
    scored.sort_by(|a, b| a.2.total_cmp(&b.2));
    scored.truncate(config.max_steps_ranked);
    if scored.is_empty() {
        return Ok(());
    }

    // The search's five features per step: kind, relative position,
    // resulting RE, and for an add the inserted atom's corpus prevalence
    // and typical relative position.
    let n_lines = program.len().max(1) as f64;
    let clusters = config.diversity_clusters.max(1);
    let clustering = tr.span("core.kmeans.cluster", || {
        let features: Vec<Vec<f64>> = scored
            .iter()
            .map(|(line, p, re)| {
                let added = (p.len() > program.len()).then(|| &p.stmts()[*line].atom);
                vec![
                    if added.is_some() { 4.0 } else { 0.0 },
                    *line as f64 / n_lines,
                    *re,
                    added.map_or(0.0, |a| corpus.atom_prevalence(a)),
                    added
                        .and_then(|a| corpus.mean_rel_pos.get(a).copied())
                        .unwrap_or(0.5),
                ]
            })
            .collect();
        kmeans(&features, clusters, 25)
    });

    let per_cluster = (config.beam_k.max(1) / clusters.min(clustering.k.max(1))).max(1);
    let mut admitted: Vec<&Program> = Vec::new();
    for cluster in 0..clustering.k {
        let mut taken = 0;
        for ((_, p, _), &a) in scored.iter().zip(&clustering.assignments) {
            if a != cluster {
                continue;
            }
            if taken >= per_cluster {
                break;
            }
            if admitted.iter().any(|q| q.same_stmts(p)) {
                continue;
            }
            acc.exec_runs += 1;
            let ok = tr.span("interp.run", || interp.run_shared(&p.stmt_refs()).is_ok());
            if ok {
                admitted.push(p);
                taken += 1;
            } else {
                acc.exec_fails += 1;
            }
        }
    }
    Ok(())
}
