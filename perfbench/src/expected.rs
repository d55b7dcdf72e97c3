//! The correctness gate: committed expected rows and counts at the
//! default seed.
//!
//! The report files under `expected/` are lab reports rendered by the
//! lab's own functions (`perfbench --write-expected` regenerates them); the
//! workloads rebuild the same cells from public calls, and each cell's rows
//! must equal the corresponding data rows of these files. `counts.md` pins
//! each cell's deterministic counts (requests, probes, records, ...), so a
//! change to the simulated traffic fails the gate even where the report
//! rows do not move.

use std::path::Path;

use lab::experiments::{fig16, megacell, resilience, table1};
use lab::{AttackRun, Fidelity, Report, RunOpts, Scenario, WarmProfiled};

use crate::trace::Tracer;
use crate::workloads::{self, CellOut, Ctx, RepOut, Workload, COUNT_FIELDS};

const FIG16: &str = include_str!("../expected/fig16_accuracy.md");
const PARAM_SWEEP: &str = include_str!("../expected/table1_param_sweep.md");
const DEFENSE: &str = include_str!("../expected/attack_fork_defense.md");
const MEGACELL: &str = include_str!("../expected/megacell_population.md");
const RESILIENCE: &str = include_str!("../expected/resilience_policies.md");
const COUNTS: &str = include_str!("../expected/counts.md");

/// Data rows of every markdown table in `markdown`, in order: lines that
/// start with `|`, minus separator lines and the header line above each.
pub fn data_rows(markdown: &str) -> Vec<String> {
    let lines: Vec<&str> = markdown.lines().collect();
    let is_sep = |l: &str| l.starts_with("|---");
    lines
        .iter()
        .enumerate()
        .filter(|&(i, l)| {
            l.starts_with('|') && !is_sep(l) && !lines.get(i + 1).is_some_and(|n| is_sep(n))
        })
        .map(|(_, l)| (*l).to_string())
        .collect()
}

/// Zips the data rows of several reports into per-cell row lists: cell `i`
/// expects row `i` of each report.
fn zip_cells(reports: &[&str]) -> Vec<Vec<String>> {
    let tables: Vec<Vec<String>> = reports.iter().map(|r| data_rows(r)).collect();
    let cells = tables.iter().map(Vec::len).min().unwrap_or(0);
    (0..cells)
        .map(|i| tables.iter().map(|t| t[i].clone()).collect())
        .collect()
}

/// The rows each cell of `workload` must produce at the default seed.
pub fn expected_cells(workload: Workload) -> Vec<Vec<String>> {
    match workload {
        Workload::ProfileSweep => zip_cells(&[FIG16]),
        Workload::AttackFork => zip_cells(&[PARAM_SWEEP, DEFENSE]),
        Workload::Population100k => zip_cells(&[MEGACELL]),
        Workload::ResilienceStorm => zip_cells(&[RESILIENCE]),
    }
}

/// The committed counts rows of `workload` at the default seed: one per
/// cell, then the prefix's, as [`RepOut::count_rows`] renders them.
pub fn expected_counts(workload: Workload) -> Vec<String> {
    let lead = format!("| {} |", workload.name());
    data_rows(COUNTS)
        .into_iter()
        .filter(|r| r.starts_with(&lead))
        .collect()
}

/// What every rep of a run must reproduce: each cell's rows and each
/// cell's (and the prefix's) counts rows.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Report rows per cell.
    pub rows: Vec<Vec<String>>,
    /// Counts rows: one per cell, then the prefix's.
    pub counts: Vec<String>,
}

impl Reference {
    /// The committed reference of `workload` at the default seed.
    pub fn committed(workload: Workload) -> Reference {
        Reference {
            rows: expected_cells(workload),
            counts: expected_counts(workload),
        }
    }

    /// A rep's own output as the reference.
    pub fn of(workload: Workload, rep: &RepOut) -> Reference {
        Reference {
            rows: rep
                .cells
                .iter()
                .map(|c| c.rows.clone().unwrap_or_default())
                .collect(),
            counts: rep.count_rows(workload),
        }
    }

    /// Whether each cell of `rep` passed: its rows and counts equal the
    /// reference's for the same cell, and the prefix's counts do too.
    pub fn passed(&self, workload: Workload, rep: &RepOut) -> Vec<bool> {
        let counts = rep.count_rows(workload);
        let prefix_ok = counts.last() == self.counts.last();
        cell_passed(&self.rows, &rep.cells)
            .into_iter()
            .enumerate()
            .map(|(i, ok)| ok && prefix_ok && counts.get(i) == self.counts.get(i))
            .collect()
    }
}

/// Whether each cell passed: it did not panic and its rows equal the
/// reference rows of the same cell.
pub fn cell_passed(reference: &[Vec<String>], cells: &[CellOut]) -> Vec<bool> {
    (0..cells.len().max(reference.len()))
        .map(|i| match (cells.get(i), reference.get(i)) {
            (Some(cell), Some(want)) => cell.rows.as_ref().is_ok_and(|rows| rows == want),
            _ => false,
        })
        .collect()
}

/// Regenerates every expected file under `dir` from the lab's own
/// functions at the default seeds.
pub fn write_all(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let write = |name: &str, report: &Report| std::fs::write(dir.join(name), report.to_markdown());

    write("fig16_accuracy.md", &fig16::run(Fidelity::Fast))?;
    write(
        "table1_param_sweep.md",
        &table1::param_sweep_report(RunOpts::new(Fidelity::Fast)),
    )?;
    write("resilience_policies.md", &resilience::run(Fidelity::Fast))?;

    write("megacell_population.md", &megacell::run(Fidelity::Full))?;
    write("attack_fork_defense.md", &defense_report())?;
    write("counts.md", &counts_report()?)?;
    Ok(())
}

/// Every workload's counts rows from one serial rep at the default seed.
fn counts_report() -> std::io::Result<Report> {
    let tracer = Tracer::new(false);
    let mut rows = Vec::new();
    for w in workloads::ALL {
        let rep = w.run(Ctx {
            tracer: &tracer,
            seed: 0,
            jobs: 1,
        });
        if let Some(Err(msg)) = rep.cells.iter().map(|c| &c.rows).find(|r| r.is_err()) {
            return Err(std::io::Error::other(format!("{}: {msg}", w.name())));
        }
        rows.extend(rep.count_rows(w).iter().map(|r| cells_of(r)));
    }
    let mut report = Report::new(
        "counts",
        "Deterministic counts of each benchmark cell at the default seed",
    );
    report.paragraph(
        "One row per sweep cell, then one for the shared prefix (zero where a \
         workload has none), from a serial rep with `--seed 0`. Every rep of a \
         seed-0 run must reproduce them exactly.",
    );
    let mut headers = vec!["workload", "cell"];
    headers.extend(COUNT_FIELDS);
    report.table(&headers, rows);
    Ok(report)
}

/// Splits a rendered row back into its cells.
fn cells_of(row: &str) -> Vec<String> {
    row.trim_matches(|c| c == '|' || c == ' ')
        .split(" | ")
        .map(str::to_string)
        .collect()
}

/// IDS and shield verdicts over each damage-goal variant's attack window,
/// computed on the lab's own `WarmProfiled` + `AttackRun::forked` path.
fn defense_report() -> Report {
    let (label, platform, users, provision) = &table1::settings()[0];
    let scenario = Scenario::social_network(
        label,
        platform.clone(),
        *users,
        *provision,
        0x7AB1 ^ *users as u64,
    );
    let config = grunt::CampaignConfig::default();
    let fidelity = Fidelity::Fast;
    let warm = WarmProfiled::new(&scenario, config.profiler.clone(), fidelity.secs(120, 40));
    let tracer = Tracer::new(false);
    let rows = table1::PARAM_SWEEP_GOALS
        .iter()
        .map(|&goal| {
            let commander = grunt::CommanderConfig {
                damage_goal_ms: goal,
                ..config.commander.clone()
            };
            let run = AttackRun::forked(&warm, commander, fidelity.secs(1_200, 180));
            cells_of(&workloads::attack_rows(&tracer, goal, &run)[1])
        })
        .collect();
    let mut report = Report::new(
        "attack_fork_defense",
        "IDS and rate-shield verdicts over each table1 param-sweep attack window",
    );
    report.paragraph(
        "Digest: FNV-1a of the Debug rendering of the IDS alert list and the \
         shield verdict map.",
    );
    report.table(
        &[
            "Damage goal (ms)",
            "IDS alerts",
            "IDS attacker hits",
            "Shield IPs",
            "Shield blocked",
            "Verdict digest",
        ],
        rows,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Counts;

    fn cell(rows: &[&str]) -> CellOut {
        CellOut {
            rows: Ok(rows.iter().map(|r| (*r).to_string()).collect()),
            counts: Counts::default(),
            policy: false,
        }
    }

    #[test]
    fn data_rows_skip_headers_and_separators() {
        let md = "# T\n\n| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n\ntext\n| c |\n|---|\n| 5 |\n";
        assert_eq!(data_rows(md), vec!["| 1 | 2 |", "| 3 | 4 |", "| 5 |"]);
    }

    #[test]
    fn every_workload_has_expected_rows() {
        let sizes: Vec<(usize, usize)> = workloads::ALL
            .iter()
            .map(|&w| {
                let cells = expected_cells(w);
                (cells.len(), cells.first().map_or(0, Vec::len))
            })
            .collect();
        assert_eq!(sizes, vec![(3, 1), (4, 2), (1, 1), (3, 1)]);
    }

    #[test]
    fn mutated_expected_row_fails_its_cell() {
        let reference = expected_cells(Workload::AttackFork);
        let cells: Vec<CellOut> = reference
            .iter()
            .map(|rows| cell(&rows.iter().map(String::as_str).collect::<Vec<_>>()))
            .collect();
        assert_eq!(cell_passed(&reference, &cells), vec![true; 4]);

        let mut mutated = reference.clone();
        mutated[2][1].push_str(" 0 |");
        assert_eq!(cell_passed(&mutated, &cells), vec![true, true, false, true]);
    }

    #[test]
    fn every_workload_has_expected_counts() {
        for w in workloads::ALL {
            let counts = expected_counts(w);
            assert_eq!(counts.len(), expected_cells(w).len() + 1, "{}", w.name());
            assert!(counts.last().is_some_and(|r| r.contains("| prefix |")));
        }
    }

    #[test]
    fn mutated_counts_fail_their_cell_and_a_mutated_prefix_fails_all() {
        let rep = RepOut {
            cells: vec![cell(&["| a |"]), cell(&["| b |"]), cell(&["| c |"])],
            prefix: Counts::default(),
        };
        let w = Workload::ProfileSweep;
        let reference = Reference::of(w, &rep);
        assert_eq!(reference.passed(w, &rep), vec![true; 3]);

        let mut drifted = rep.clone();
        drifted.cells[1].counts.probe_requests += 1;
        assert_eq!(reference.passed(w, &drifted), vec![true, false, true]);

        let mut drifted = rep.clone();
        drifted.prefix.request_records = 1;
        assert_eq!(reference.passed(w, &drifted), vec![false; 3]);
    }

    #[test]
    fn panicked_or_missing_cells_fail() {
        let reference = vec![vec!["| 1 |".to_string()], vec!["| 2 |".to_string()]];
        let panicked = CellOut {
            rows: Err("boom".into()),
            counts: Counts::default(),
            policy: false,
        };
        assert_eq!(cell_passed(&reference, &[panicked]), vec![false, false]);
    }

    #[test]
    fn rendered_rows_round_trip() {
        let row = workloads::render(&["a".into(), "b c".into()]);
        assert_eq!(row, "| a | b c |");
        assert_eq!(cells_of(&row), vec!["a", "b c"]);
    }
}
