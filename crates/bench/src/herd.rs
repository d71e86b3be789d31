//! Fleet-scale campaign orchestration: the `penny-herd` shard driver.
//!
//! A conformance campaign is embarrassingly parallel across the
//! sample-position partition ([`Shard`]), but a single process can only
//! scale to one machine's cores — and a fleet of shard processes needs
//! supervision: crashes, hangs, and lost output must degrade the
//! campaign, not corrupt it. This module runs a campaign as `N`
//! independent `penny-eval` shard processes and supervises them:
//!
//! * each shard gets a per-attempt wall-clock **timeout** (hung shards
//!   are killed, not waited on forever);
//! * a crashed or killed shard, or one whose report is incomplete, is
//!   **retried** with exponential backoff, up to a bounded attempt count — determinism
//!   makes retries safe, since a shard re-run reproduces its report
//!   byte-for-byte;
//! * a shard that exhausts its retries is dropped and the campaign
//!   **degrades gracefully**: the surviving shards merge via
//!   [`merge_reports_allow_missing`] into a report *labelled* partial,
//!   with the missing shard indices named, rather than failing the
//!   whole campaign;
//! * progress is observable as `campaign`/`shard` spans through
//!   [`crate::obs::recorder`].
//!
//! Shard processes exchange data through files: each writes its
//! reports as versioned JSON (`--report-json`, [`crate::json`]) which
//! the driver parses and merges with [`merge_reports`]. The exit status
//! says whether the file is whole: 0 or [`EXIT_VERDICT`] (sites failed
//! or a static claim was contradicted, and the reports record it) are
//! merged; any other status, such as [`EXIT_INCOMPLETE`], a crash or a
//! kill, is retried. So is a mergeable status with a missing or
//! unparsable report file — the merge layer never sees half-written
//! data. With a shared `--recording-store` directory the
//! shards also share fault-free recordings content-addressed by
//! [`penny_cache::recording_key`]. Concurrent cold shards may each
//! record the same (workload, scheme) pair: nothing coordinates them
//! across processes, and the temp-file rename that publishes a recording
//! keeps the store consistent whichever shard finishes last. A warm
//! store skips every record.
//!
//! The command template is pluggable ([`CommandTemplate`]): tests wrap
//! the real `penny-eval` in a crash-injecting shell script, and a
//! deployment could substitute `ssh host penny-eval` to fan out across
//! machines — the driver only assumes "argv in, report file + exit
//! status out".

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use penny_obs::SpanTimer;

use crate::conformance::{
    merge_reports, merge_reports_allow_missing, ConformanceReport, MergeError,
};
use crate::runner::SchemeId;

/// `penny-eval` exit status when every report is complete but records a
/// failed site or a contradicted static claim: the reports merge, and
/// their failures with them.
pub const EXIT_VERDICT: i32 = 1;

/// `penny-eval` exit status when a report did not answer exactly the
/// positions its shard owns: its counts cannot merge.
pub const EXIT_INCOMPLETE: i32 = 3;

/// What to run: the campaign matrix plus the supervision policy.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workload abbreviations (each must be in the registry).
    pub workloads: Vec<String>,
    /// Schemes to sweep each workload under.
    pub schemes: Vec<SchemeId>,
    /// Sample budget per (workload, scheme) pair, split across shards.
    pub budget: u64,
    /// Shard processes to fan out (the `N` of `--shard I/N`).
    pub shards: u32,
    /// `--jobs` forwarded to each shard process.
    pub jobs_per_shard: usize,
    /// Per-attempt wall-clock limit; a shard exceeding it is killed
    /// (and the attempt counts as failed).
    pub timeout: Duration,
    /// Failed attempts re-run up to this many times (so a shard runs at
    /// most `retries + 1` times).
    pub retries: u32,
    /// Delay before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Directory for shard report/observability files (created).
    pub out_dir: PathBuf,
    /// Shared content-addressed recording store, forwarded to every
    /// shard as `--recording-store`.
    pub recording_store: Option<PathBuf>,
    /// Ask each shard to write an `--obs-jsonl` span stream next to its
    /// report (`shard_<i>.obs.jsonl`).
    pub shard_obs: bool,
}

/// How to start a shard process. [`CommandTemplate::penny_eval`] is the
/// local default; tests substitute wrapper scripts, deployments can
/// substitute remote launchers.
#[derive(Debug, Clone)]
pub struct CommandTemplate {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments prepended before the driver's own shard arguments.
    pub args: Vec<String>,
}

impl CommandTemplate {
    /// The `penny-eval` binary next to the currently running executable
    /// (the layout `cargo build` produces for sibling binaries).
    pub fn penny_eval() -> CommandTemplate {
        let program = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("penny-eval")))
            .unwrap_or_else(|| PathBuf::from("penny-eval"));
        CommandTemplate { program, args: Vec::new() }
    }
}

/// Supervision result for one shard.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index (`0..spec.shards`).
    pub index: u32,
    /// Attempts actually started (1 = first try succeeded).
    pub attempts: u32,
    /// Whether any attempt produced a parsable report file.
    pub ok: bool,
    /// The shard's reports, one per (workload, scheme) pair; empty when
    /// the shard permanently failed.
    pub reports: Vec<ConformanceReport>,
}

/// One merged (workload, scheme) pair of the campaign.
#[derive(Debug)]
pub struct MergedPair {
    /// The merged report (full or partial).
    pub report: ConformanceReport,
    /// Whether any owning shard is missing from the merge.
    pub partial: bool,
    /// The missing shard indices (sorted; empty when `!partial`).
    pub missing_shards: Vec<u32>,
}

/// The whole campaign's outcome.
#[derive(Debug)]
pub struct HerdOutcome {
    /// Per-shard supervision results, indexed by shard.
    pub shards: Vec<ShardOutcome>,
    /// Merged reports, one per (workload, scheme) pair, in campaign
    /// matrix order.
    pub merged: Vec<MergedPair>,
    /// Whether any pair merged partially.
    pub partial: bool,
}

impl HerdOutcome {
    /// Shards that exhausted their retries.
    pub fn failed_shards(&self) -> Vec<u32> {
        self.shards.iter().filter(|s| !s.ok).map(|s| s.index).collect()
    }
}

/// A supervised shard attempt in flight.
enum SlotState {
    /// Waiting (for its first launch, or for a retry backoff to lapse).
    Pending { at: Instant },
    /// Process running since `started`.
    Running { child: Child, started: Instant, timer: SpanTimer },
    /// Permanently finished (succeeded or retries exhausted).
    Done,
}

struct Slot {
    index: u32,
    attempts: u32,
    state: SlotState,
    outcome: Option<ShardOutcome>,
}

/// The report file a shard writes (and the driver deletes before every
/// attempt, so a stale file from a timed-out attempt can't be mistaken
/// for fresh output).
fn report_path(out_dir: &Path, index: u32) -> PathBuf {
    out_dir.join(format!("shard_{index}.json"))
}

/// The shard's observability stream, when `shard_obs` is on.
fn obs_path(out_dir: &Path, index: u32) -> PathBuf {
    out_dir.join(format!("shard_{index}.obs.jsonl"))
}

/// Builds the argv for one shard attempt.
fn shard_command(spec: &CampaignSpec, template: &CommandTemplate, index: u32) -> Command {
    let mut cmd = Command::new(&template.program);
    cmd.args(&template.args);
    cmd.arg("conformance");
    cmd.arg("--budget").arg(spec.budget.to_string());
    cmd.arg("--shard").arg(format!("{index}/{}", spec.shards));
    cmd.arg("--jobs").arg(spec.jobs_per_shard.to_string());
    cmd.arg("--workloads").arg(spec.workloads.join(","));
    cmd.arg("--schemes")
        .arg(spec.schemes.iter().map(|s| s.token()).collect::<Vec<_>>().join(","));
    cmd.arg("--report-json").arg(report_path(&spec.out_dir, index));
    if let Some(store) = &spec.recording_store {
        cmd.arg("--recording-store").arg(store);
    }
    if spec.shard_obs {
        cmd.arg("--obs-jsonl").arg(obs_path(&spec.out_dir, index));
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null()).stdin(Stdio::null());
    cmd
}

/// Spawn attempts made while the program file is busy.
const BUSY_SPAWN_ATTEMPTS: u32 = 50;

/// Pause between spawn attempts on a busy program file.
const BUSY_SPAWN_PAUSE: Duration = Duration::from_millis(10);

/// Spawns `cmd`, retrying while its program file is busy (`ETXTBSY`):
/// a script written just before the campaign stays busy while any
/// process holds it open for writing, and a child forked by another
/// thread inherits such a handle until it execs, so the error clears on
/// its own. Any other spawn error is returned at once.
fn spawn_retrying(cmd: &mut Command) -> io::Result<Child> {
    let mut attempt = 1;
    loop {
        match cmd.spawn() {
            Err(e)
                if e.kind() == io::ErrorKind::ExecutableFileBusy
                    && attempt < BUSY_SPAWN_ATTEMPTS =>
            {
                attempt += 1;
                std::thread::sleep(BUSY_SPAWN_PAUSE);
            }
            spawned => return spawned,
        }
    }
}

/// Validates a spec before any process is spawned.
fn check_spec(spec: &CampaignSpec) -> Result<(), String> {
    if spec.shards == 0 {
        return Err("campaign needs at least one shard".into());
    }
    if spec.workloads.is_empty() || spec.schemes.is_empty() {
        return Err("campaign needs at least one workload and one scheme".into());
    }
    for w in &spec.workloads {
        if penny_workloads::by_abbr(w).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("creating {}: {e}", spec.out_dir.display()))?;
    if let Some(store) = &spec.recording_store {
        std::fs::create_dir_all(store)
            .map_err(|e| format!("creating {}: {e}", store.display()))?;
    }
    Ok(())
}

/// How one finished attempt ended (for the retry decision and the
/// shard span).
enum AttemptEnd {
    /// Exit 0 or [`EXIT_VERDICT`], and a parsable report file.
    Ok(Vec<ConformanceReport>),
    /// Anything else, with a human-readable cause.
    Failed(String),
}

/// Harvests a finished attempt: checks the exit status, then parses the
/// report file — a mergeable status with missing/corrupt output is a
/// failure too (and therefore retried).
fn harvest(
    spec: &CampaignSpec,
    index: u32,
    status: std::process::ExitStatus,
) -> AttemptEnd {
    match status.code() {
        Some(0 | EXIT_VERDICT) => {}
        Some(code) => return AttemptEnd::Failed(format!("exit code {code}")),
        None => return AttemptEnd::Failed("killed by signal".into()),
    }
    let path = report_path(&spec.out_dir, index);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return AttemptEnd::Failed(format!("no report file: {e}")),
    };
    match crate::json::reports_from_json(&text) {
        Ok(reports) if reports.is_empty() => {
            AttemptEnd::Failed("report file holds no reports".into())
        }
        Ok(reports) => AttemptEnd::Ok(reports),
        Err(e) => AttemptEnd::Failed(format!("unparsable report file: {e}")),
    }
}

/// Runs the campaign: fans out the shards, supervises them to
/// completion, merges the survivors.
///
/// # Errors
///
/// Only on driver-level problems — an invalid spec, an unspawnable
/// command, or survivors whose reports cannot merge (a
/// [`MergeError`], which indicates template misconfiguration, e.g.
/// shards that ran a different matrix). Shard crashes and timeouts are
/// **not** errors: they degrade into [`HerdOutcome::partial`].
pub fn run_campaign(
    spec: &CampaignSpec,
    template: &CommandTemplate,
) -> Result<HerdOutcome, String> {
    check_spec(spec)?;
    let rec = crate::obs::recorder();
    let campaign_timer = SpanTimer::start(rec.as_ref());
    let mut slots: Vec<Slot> = (0..spec.shards)
        .map(|index| Slot {
            index,
            attempts: 0,
            state: SlotState::Pending { at: Instant::now() },
            outcome: None,
        })
        .collect();

    while slots.iter().any(|s| !matches!(s.state, SlotState::Done)) {
        for slot in &mut slots {
            match &mut slot.state {
                SlotState::Done => {}
                SlotState::Pending { at } => {
                    if Instant::now() < *at {
                        continue;
                    }
                    slot.attempts += 1;
                    // A leftover report from a previous (e.g. timed
                    // out) attempt must not satisfy this one.
                    let _ = std::fs::remove_file(report_path(&spec.out_dir, slot.index));
                    let mut cmd = shard_command(spec, template, slot.index);
                    match spawn_retrying(&mut cmd) {
                        Ok(child) => {
                            eprintln!(
                                "penny-herd: shard {}/{} attempt {} started",
                                slot.index, spec.shards, slot.attempts
                            );
                            slot.state = SlotState::Running {
                                child,
                                started: Instant::now(),
                                timer: SpanTimer::start(rec.as_ref()),
                            };
                        }
                        Err(e) => {
                            // Apart from a busy program file, which
                            // `spawn_retrying` waits out, unspawnable
                            // commands never improve with retries; fail
                            // the whole campaign loudly.
                            return Err(format!(
                                "spawning {}: {e}",
                                template.program.display()
                            ));
                        }
                    }
                }
                SlotState::Running { child, started, timer } => {
                    let attempt_timer = *timer;
                    let status = match child.try_wait() {
                        Ok(Some(status)) => Some(status),
                        Ok(None) => {
                            if started.elapsed() > spec.timeout {
                                let _ = child.kill();
                                // Reap; kill is asynchronous.
                                let _ = child.wait();
                                None
                            } else {
                                continue;
                            }
                        }
                        Err(e) => {
                            return Err(format!("waiting on shard {}: {e}", slot.index));
                        }
                    };
                    let end = match status {
                        Some(status) => harvest(spec, slot.index, status),
                        None => AttemptEnd::Failed(format!(
                            "timed out after {:?}",
                            spec.timeout
                        )),
                    };
                    match end {
                        AttemptEnd::Ok(reports) => {
                            eprintln!(
                                "penny-herd: shard {}/{} done ({} reports, attempt {})",
                                slot.index,
                                spec.shards,
                                reports.len(),
                                slot.attempts
                            );
                            penny_obs::record(
                                rec.as_ref(),
                                penny_obs::SpanKind::Shard,
                                &format!("shard {}/{}", slot.index, spec.shards),
                                "ok",
                                attempt_timer.elapsed_ns(),
                                &[
                                    ("attempt", slot.attempts as u64),
                                    ("reports", reports.len() as u64),
                                ],
                            );
                            slot.outcome = Some(ShardOutcome {
                                index: slot.index,
                                attempts: slot.attempts,
                                ok: true,
                                reports,
                            });
                            slot.state = SlotState::Done;
                        }
                        AttemptEnd::Failed(why) => {
                            penny_obs::record(
                                rec.as_ref(),
                                penny_obs::SpanKind::Shard,
                                &format!("shard {}/{}", slot.index, spec.shards),
                                "failed",
                                attempt_timer.elapsed_ns(),
                                &[("attempt", slot.attempts as u64)],
                            );
                            if slot.attempts <= spec.retries {
                                let delay = spec.backoff * 2u32.pow(slot.attempts - 1);
                                eprintln!(
                                    "penny-herd: shard {}/{} attempt {} failed ({why}); \
                                     retrying in {delay:?}",
                                    slot.index, spec.shards, slot.attempts
                                );
                                slot.state =
                                    SlotState::Pending { at: Instant::now() + delay };
                            } else {
                                eprintln!(
                                    "penny-herd: shard {}/{} failed permanently after \
                                     {} attempts ({why})",
                                    slot.index, spec.shards, slot.attempts
                                );
                                slot.outcome = Some(ShardOutcome {
                                    index: slot.index,
                                    attempts: slot.attempts,
                                    ok: false,
                                    reports: Vec::new(),
                                });
                                slot.state = SlotState::Done;
                            }
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let shards: Vec<ShardOutcome> =
        slots.into_iter().map(|s| s.outcome.expect("done slot has outcome")).collect();
    let merged = merge_survivors(spec, &shards)?;
    // A lost shard makes the campaign partial even when no merged pair
    // exists to carry the flag (e.g. every shard failed).
    let partial = merged.iter().any(|m| m.partial) || shards.iter().any(|s| !s.ok);
    penny_obs::record(
        rec.as_ref(),
        penny_obs::SpanKind::Campaign,
        "herd",
        if partial { "partial" } else { "complete" },
        campaign_timer.elapsed_ns(),
        &[
            ("shards", spec.shards as u64),
            ("failed_shards", shards.iter().filter(|s| !s.ok).count() as u64),
            ("attempts", shards.iter().map(|s| s.attempts as u64).sum()),
            ("pairs", merged.len() as u64),
        ],
    );
    Ok(HerdOutcome { shards, merged, partial })
}

/// Groups the surviving shards' reports by (workload, scheme) pair and
/// merges each group — strictly when every shard survived, tolerantly
/// (flagging the pair partial) otherwise.
fn merge_survivors(
    spec: &CampaignSpec,
    shards: &[ShardOutcome],
) -> Result<Vec<MergedPair>, String> {
    let all_ok = shards.iter().all(|s| s.ok);
    let mut groups: BTreeMap<(String, String), Vec<ConformanceReport>> = BTreeMap::new();
    let mut order: Vec<(String, String)> = Vec::new();
    for s in shards {
        for r in &s.reports {
            let key = (r.workload.to_string(), r.variant.to_string());
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(r.clone());
        }
    }
    let expected_pairs = spec.workloads.len() * spec.schemes.len();
    if order.len() != expected_pairs && all_ok {
        return Err(format!(
            "expected {expected_pairs} (workload, scheme) pairs, shards returned {}",
            order.len()
        ));
    }
    let mut merged = Vec::with_capacity(order.len());
    for key in order {
        let group = &groups[&key];
        if all_ok {
            let report = merge_reports(group)
                .map_err(|e: MergeError| format!("merging {}/{}: {e}", key.0, key.1))?;
            merged.push(MergedPair { report, partial: false, missing_shards: Vec::new() });
        } else {
            let (report, missing_shards) = merge_reports_allow_missing(group)
                .map_err(|e: MergeError| format!("merging {}/{}: {e}", key.0, key.1))?;
            let partial = !missing_shards.is_empty();
            merged.push(MergedPair { report, partial, missing_shards });
        }
    }
    Ok(merged)
}

#[cfg(all(test, unix))]
mod tests {
    use std::os::unix::fs::PermissionsExt;

    use super::*;

    #[test]
    fn a_busy_program_file_is_spawned_once_released() {
        let dir =
            std::env::temp_dir().join(format!("penny-herd-busy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let script = dir.join("busy.sh");
        std::fs::write(&script, "#!/bin/sh\nexit 0\n").expect("write script");
        let mut perms = std::fs::metadata(&script).expect("stat script").permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&script, perms).expect("chmod script");

        // While a write handle is open, every exec fails with ETXTBSY.
        let handle = std::fs::OpenOptions::new().write(true).open(&script).expect("open");
        let err = Command::new(&script).spawn().expect_err("a busy file does not exec");
        assert_eq!(err.kind(), io::ErrorKind::ExecutableFileBusy);
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(handle);
        });
        let mut child = spawn_retrying(&mut Command::new(&script))
            .expect("the spawn succeeds once the handle is dropped");
        assert!(child.wait().expect("wait").success());
        release.join().expect("release thread");

        // Other spawn errors are not retried.
        let missing = spawn_retrying(&mut Command::new(dir.join("missing.sh")))
            .expect_err("a missing program cannot spawn");
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
