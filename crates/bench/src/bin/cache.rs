//! Run-cache maintenance: `cache verify`, `cache repair`, and
//! `cache evict`.
//!
//! * `verify` — scan every entry in the cache directory and report
//!   `ok / stale / corrupt / stray tmp` counts, listing each damaged
//!   file. Exits 1 when anything needs repair, 0 when clean.
//! * `repair` — same scan, then evict every corrupt entry and stray
//!   `.tmp` staging file (stale entries are left alone — they are
//!   replaced lazily on the next store of their key). Exits 0.
//! * `evict` — trim the cache to a size budget, least-recently-used
//!   entries first: `--max-bytes N` and/or `--max-entries N` set the
//!   budget (omitting both just prints current usage). Foreign files
//!   (the quarantine ledger, the flight journal) are never evicted.
//!   A *running* daemon enforces its own budget with in-flight pins;
//!   this offline pass is for cold caches.
//!
//! All accept `--cache-dir DIR` (default `results/cache`).

#![forbid(unsafe_code)]

use std::path::PathBuf;

use bw_core::{CacheBudget, RunCache};

fn usage() -> ! {
    eprintln!(
        "usage: cache <verify|repair|evict> [--cache-dir DIR] [--max-bytes N] [--max-entries N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut budget = CacheBudget::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "verify" | "repair" | "evict" if mode.is_none() => mode = Some(args[i].clone()),
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => dir = Some(PathBuf::from(p)),
                    None => usage(),
                }
            }
            "--max-bytes" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => budget.max_bytes = Some(n),
                    None => usage(),
                }
            }
            "--max-entries" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => budget.max_entries = Some(n),
                    None => usage(),
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(mode) = mode else { usage() };
    if !budget.is_unbounded() && mode != "evict" {
        eprintln!("--max-bytes/--max-entries only apply to `evict`");
        usage();
    }
    let cache = RunCache::new(dir.unwrap_or_else(RunCache::default_dir));
    println!("cache dir: {}", cache.dir().display());

    if mode == "evict" {
        let (bytes, entries) = cache.usage();
        println!("usage: {entries} entr(ies), {bytes} bytes");
        if budget.is_unbounded() {
            println!("no budget given (--max-bytes/--max-entries); nothing to evict");
            return;
        }
        // Offline maintenance: no daemon, no in-flight runs to pin.
        let report = cache.evict_to_budget(&budget, &|_| false);
        println!("evict: {}", report.summary());
        return;
    }

    let audit = match mode.as_str() {
        "verify" => cache.verify_dir(),
        _ => cache.repair(),
    };
    for p in &audit.corrupt {
        println!("  corrupt: {}", p.display());
    }
    for p in &audit.stray_tmp {
        println!("  stray tmp: {}", p.display());
    }
    println!("{}: {}", mode, audit.summary());
    if mode == "repair" {
        println!(
            "evicted {} file(s)",
            audit.corrupt.len() + audit.stray_tmp.len()
        );
    } else if !audit.is_clean() {
        std::process::exit(1);
    }
}
