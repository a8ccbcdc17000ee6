//! Golden-output regression for the `repro` scenario tables: each
//! scenario's `--quick` stdout must match its committed golden byte for
//! byte. The tables print only simulated quantities, so any difference
//! means simulation behaviour changed. The wall-clock `[repro] done in`
//! trailer goes to stderr and is not compared.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p faasflow-bench --test repro_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_path(scenario: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("repro_{scenario}.txt"))
}

fn check(scenario: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([scenario, "--quick"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {scenario} --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = golden_path(scenario);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden for {scenario} ({e}); run with GOLDEN_REGEN=1"));
    if rendered == golden {
        return;
    }
    // Name the first differing line instead of dumping both tables.
    let (mut got, mut want) = (rendered.lines(), golden.lines());
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => line += 1,
            (g, w) => panic!(
                "repro {scenario} --quick diverged from its golden at line {line}\n  \
                 golden:   {}\n  rendered: {}",
                w.unwrap_or("<end of output>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

#[test]
fn failover_matches_golden() {
    check("failover");
}

#[test]
fn chaos_matches_golden() {
    check("chaos");
}

#[test]
fn overload_matches_golden() {
    check("overload");
}

#[test]
fn grayfail_matches_golden() {
    check("grayfail");
}

#[test]
fn degrade_matches_golden() {
    check("degrade");
}

#[test]
fn placement_matches_golden() {
    check("placement");
}
