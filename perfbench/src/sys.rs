//! What a result is stamped with (source revision, toolchain, host), plus
//! resident-set and heap measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The system allocator, counting net bytes while [`heap_delta`] runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        NET_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and never influence what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns the heap bytes it left allocated (allocations
/// minus frees, on every thread, while it ran).
pub fn heap_delta<T>(f: impl FnOnce() -> T) -> (T, i64) {
    NET_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, NET_BYTES.load(Ordering::Relaxed))
}

/// Resident-set size of this process in bytes (0 where unavailable).
pub fn rss_bytes() -> u64 {
    wf_bench::current_rss_bytes().unwrap_or(0)
}

/// The facts a result is stamped with.
pub struct Stamp {
    pub git_rev: String,
    pub source_digest: String,
    pub rustc: String,
    pub nproc: usize,
    pub llc: String,
}

impl Stamp {
    pub fn collect() -> Self {
        let git_rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self { git_rev, source_digest: source_digest(), rustc, nproc, llc: last_level_cache() }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The largest CPU cache the kernel reports, as `L<level> <size>`.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(l, s)| format!("L{l} {s}"))
}

/// FNV-1a digest over the repository's sources and manifests (relative
/// path and contents of every file, in path order), so a result names the
/// code it measured even outside a git checkout.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}/{}files", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = path.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        collect_files(&p, out);
    }
}
