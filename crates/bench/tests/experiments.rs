//! `EXPERIMENTS.md` is the experiment tables as they are now: regenerate
//! them and compare byte for byte.

use std::path::Path;

#[test]
fn experiments_md_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let want = std::fs::read_to_string(&path).expect("EXPERIMENTS.md is checked in");
    let got = mar_bench::experiments::document();
    if got == want {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            eprintln!("line {}:", i + 1);
            eprintln!("- {}", w.unwrap_or(&"<none>"));
            eprintln!("+ {}", g.unwrap_or(&"<none>"));
        }
    }
    panic!(
        "EXPERIMENTS.md differs from the tables (diff above: - file, + now); \
         if the change is meant, regenerate it with \
         `cargo run --release -p mar-bench --bin report > EXPERIMENTS.md`"
    );
}
