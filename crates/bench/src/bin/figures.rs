//! Regenerates every results file (`figures [DIR]`, default `./results`):
//! simulates each distinct cell of all figures once at `BALLERINO_N`
//! and `BALLERINO_SEED` on `BALLERINO_THREADS` workers, writes
//! `<name>.txt` per figure, and reports the cell counts on stderr.

use ballerino_bench::figures::{distinct_cells, header, Runs, FIGURES};
use ballerino_bench::{seed, suite_len, threads};
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "results".into()));
    let (n, s) = (suite_len(), seed());
    let (declared, cells) = distinct_cells(FIGURES, n, s);
    eprintln!(
        "figures: {declared} declared cells, {} distinct simulated",
        cells.len()
    );
    let runs = Runs::simulate(n, s, &cells, threads());
    std::fs::create_dir_all(&dir)?;
    for fig in FIGURES {
        let mut text = header(n, s);
        (fig.render)(&runs, &mut text).expect("writing to a String cannot fail");
        std::fs::write(dir.join(format!("{}.txt", fig.name)), text)?;
    }
    Ok(())
}
