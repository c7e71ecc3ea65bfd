//! Corpus explorer: inspect a dataset profile's generated corpus the way
//! the offline phase sees it — vocabulary sizes, the most common steps
//! with their prevalence, and the most common data-flow edges (what the
//! `Q(x)` distribution concentrates on).
//!
//! Run with:
//! ```sh
//! cargo run --release --example corpus_explorer [titanic|house|nlp|spaceship|medical|sales]
//! ```

use lucidscript::core::vocab::CorpusModel;
use lucidscript::corpus::Profile;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "medical".to_string());
    let profile = Profile::all()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(&which))
        .unwrap_or_else(|| {
            eprintln!("unknown profile '{which}', defaulting to Medical");
            Profile::medical()
        });

    let corpus: Vec<String> = profile
        .generate_corpus(42)
        .into_iter()
        .map(|s| s.source)
        .collect();
    let model = CorpusModel::build_from_sources(&corpus).expect("nonempty corpus");

    println!("profile: {} ({} scripts)", profile.name, model.n_scripts);
    println!(
        "vocabulary: {} unique line atoms, {} unique 1-grams, {} unique edges, {} edge occurrences\n",
        model.n_unique_atoms(),
        model.n_unique_unigrams(),
        model.n_unique_edges(),
        model.total_edges
    );

    println!("top steps by prevalence:");
    for &id in model.by_count().iter().take(12) {
        let (count, atom) = (model.atom_count_by_id(id), &model.atoms()[id as usize]);
        println!(
            "  {:>5.1}%  ({count:>3}×)  {atom}",
            model.atom_prevalence(atom) * 100.0
        );
    }

    // Edges come in text order; a stable sort keeps that as the tiebreak.
    let mut edges: Vec<(u32, u32, usize)> = model.edges().collect();
    edges.sort_by_key(|e| std::cmp::Reverse(e.2));
    println!("\ntop data-flow edges:");
    for (from, to, count) in edges.into_iter().take(8) {
        let (from, to) = (&model.atoms()[from as usize], &model.atoms()[to as usize]);
        println!("  {count:>3}×  {from}  →  {to}");
    }

    println!("\nexample corpus script:\n{}", corpus[0]);
}
