//! Output verification: every distinct output is checked independently of
//! the search that produced it.
//!
//! 1. The output parses and runs with a fresh `Interpreter` on the full
//!    `D_IN`, leaving a data frame.
//! 2. RE recomputed from the output source equals `re_after` bit for bit,
//!    RE of the input source equals `re_before`, and `re_after ≤ re_before`.
//! 3. The intent measure, recomputed with `IntentMeasure::evaluate` under
//!    the search's own sampling, equals `intent_delta` bit for bit and is
//!    satisfied.

use crate::spans::Tracer;
use crate::workload::Workload;
use lucid_core::intent::model_accuracy;
use lucid_core::{StandardizeReport, Standardizer};
use lucid_frame::DataFrame;
use lucid_interp::Interpreter;
use lucid_pyast::{parse_module, Module};

/// A fresh interpreter over `D_IN`, seeded like the search's.
pub fn interpreter(w: &Workload, data: &DataFrame, sample_rows: Option<usize>) -> Interpreter {
    let mut interp = Interpreter::new();
    interp.seed = w.config().seed;
    interp.sample_rows = sample_rows;
    interp.register_table(w.profile.file, data.clone());
    interp
}

fn output_of(interp: &Interpreter, module: &Module, what: &str) -> Result<DataFrame, String> {
    let outcome = interp
        .run(module)
        .map_err(|e| format!("{what} does not execute: {e}"))?;
    outcome
        .output_frame()
        .cloned()
        .ok_or_else(|| format!("{what} leaves no data frame"))
}

fn same_bits(what: &str, recomputed: f64, reported: f64) -> Result<(), String> {
    if recomputed.to_bits() == reported.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: recomputed {recomputed:?}, reported {reported:?}"
        ))
    }
}

pub fn verify(
    w: &Workload,
    std: &Standardizer,
    data: &DataFrame,
    report: &StandardizeReport,
    tr: &mut Tracer,
) -> Result<(), String> {
    let config = std.config();
    let output =
        parse_module(&report.output_source).map_err(|e| format!("output does not parse: {e}"))?;
    let input =
        parse_module(&report.input_source).map_err(|e| format!("input does not parse: {e}"))?;

    let full = interpreter(w, data, None);
    let full_out = tr.span("verify.interp.run_full", || {
        output_of(&full, &output, "output")
    })?;

    let re_after = tr
        .span("verify.entropy.rescore", || {
            std.score_source(&report.output_source)
        })
        .map_err(|e| format!("output rescore: {e}"))?;
    same_bits("re_after", re_after, report.re_after)?;
    let re_before = std
        .score_source(&report.input_source)
        .map_err(|e| format!("input rescore: {e}"))?;
    same_bits("re_before", re_before, report.re_before)?;
    if report.re_after > report.re_before {
        return Err(format!(
            "re_after {} exceeds re_before {}",
            report.re_after, report.re_before
        ));
    }

    let (base, cand) = match config.sample_rows {
        None => (output_of(&full, &input, "input")?, full_out.clone()),
        Some(rows) => {
            let sampled = interpreter(w, data, Some(rows));
            (
                output_of(&sampled, &input, "input (sampled)")?,
                output_of(&sampled, &output, "output (sampled)")?,
            )
        }
    };
    let eval = tr.span("core.intent.evaluate", || {
        config.intent.evaluate(&base, &cand)
    });
    if !eval.satisfied || !report.intent_satisfied {
        return Err(format!("intent not satisfied (delta {})", eval.delta));
    }
    same_bits("intent_delta", eval.delta, report.intent_delta)?;

    if tr.recording() {
        // The downstream-model layer, measured on every workload's output
        // (it is on the search's path only under a model-performance intent).
        let target = w.profile.target;
        let _ = tr.span("ml.fit", || model_accuracy(&full_out, target));
    }
    Ok(())
}
