//! Where and how a result was taken: the first thing in every result
//! file, so two files are only compared when they are comparable.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Removes every `RLCHOL_*` variable, so the program runs on its
/// defaults, and returns the names it removed. Must run before any other
/// thread exists.
pub fn clear_rlchol_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RLCHOL_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cache_sizes() -> Json {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size")) {
            out.push(Json::str(format!("L{level} {kind} {size}")));
        }
    }
    Json::Arr(out)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn envelope(seed: u64, seconds: f64, cleared: &[String]) -> Json {
    let unknown = || "unknown".to_string();
    let git_rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("git_rev", Json::Str(git_rev.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "cpu_model",
            Json::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpus_allowed_list",
            Json::Str(proc_field("/proc/self/status", "Cpus_allowed_list").unwrap_or_else(unknown)),
        ),
        ("caches", cache_sizes()),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "cleared_env",
            Json::Arr(cleared.iter().map(Json::str).collect()),
        ),
        (
            "start_unix_s",
            Json::Num(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0.0, |d| d.as_secs() as f64),
            ),
        ),
    ])
}
