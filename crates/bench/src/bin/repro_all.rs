//! Runs every experiment in the reproduction index (the `experiments`
//! list below, which is that index) in sequence: the paper's Figs. 2–7
//! plus the extension experiments E7–E11. CSVs land in `results/`.
//!
//! Full run is minutes of CPU; set `GOSSIP_REPS_SCALE=0.2` for a smoke
//! pass.

use std::process::Command;

fn main() {
    let experiments = [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "critical_point",
        "distribution_zoo",
        "success_vs_t",
        "membership_ablation",
        "finite_size",
        "baselines_rounds",
        "baselines_success",
        "loss_sweep",
    ];
    // Re-exec the sibling binaries so each experiment stays independently
    // runnable and this driver stays trivial.
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for exp in experiments {
        println!("\n================== {exp} ==================");
        let status = Command::new(bin_dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            eprintln!("{exp} FAILED with {status}");
            failures.push(exp);
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed; CSVs in results/");
    } else {
        panic!("failed experiments: {failures:?}");
    }
}
