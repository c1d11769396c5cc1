//! Atomic filesystem helpers shared by every crate that persists
//! state (the run cache, the quarantine file, trace files, CSV
//! exports).
//!
//! The repo-wide rule (`raw-fs-write` in the xtask lint pass) is that
//! nothing outside this module calls `std::fs::write` directly: a
//! bare write that is interrupted — or raced by a concurrent writer —
//! leaves a truncated file that every future reader must detect and
//! survive. [`atomic_write`] removes the problem at the source:
//! readers observe either the old complete file or the new complete
//! file, never a torn intermediate state.

use std::path::{Path, PathBuf};

/// The temp-file sibling `atomic_write` stages its bytes in before
/// renaming over `path`. The process id keeps concurrent *processes*
/// from staging into the same temp file; within one process, callers
/// that race on one path must serialize themselves (the run cache
/// dedups keys, so its writers never do).
#[must_use]
pub fn staging_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map_or_else(|| "unnamed".into(), |n| n.to_string_lossy().into_owned());
    path.with_file_name(format!("{name}.{}.tmp", std::process::id()))
}

/// Writes `bytes` to `path` atomically: stage into a `.tmp` sibling,
/// then `rename` over the destination. POSIX rename is atomic within a
/// filesystem, so readers never observe a partially written file, and
/// an interrupted writer leaves only a stray `.tmp` (never a truncated
/// destination).
///
/// Parent directories are created as needed.
///
/// # Errors
///
/// Propagates filesystem errors; on a failed rename the staged temp
/// file is removed before returning.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = staging_path(path);
    // The one sanctioned raw write in the workspace: it targets the
    // staging file, which is never read by anyone.
    creating_parents(path, || std::fs::write(&tmp, bytes))?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Runs `op`, a write that creates `path` or a sibling of it, and runs
/// it once more after creating `path`'s parent directories if it failed
/// for want of one. A write into an existing directory thus costs no
/// `mkdir`.
fn creating_parents<T>(
    path: &Path,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    match op() {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => {
                std::fs::create_dir_all(parent)?;
                op()
            }
            _ => Err(e),
        },
        done => done,
    }
}

/// Appends `line` (a newline is added) to the file at `path`, creating
/// it and its parents as needed — the sanctioned append primitive for
/// append-only journals.
///
/// Appends are *not* atomic the way [`atomic_write`] is: a crash can
/// leave a torn final line. The contract is therefore different —
/// every complete earlier line survives untouched (O_APPEND never
/// rewrites), and readers must validate each line and tolerate a torn
/// tail (the flight journal checksums every line for exactly this).
/// The write is flushed and fsynced before returning so a completed
/// append survives power loss.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = creating_parents(path, || {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
    })?;
    // One write_all of the whole line: with O_APPEND each write
    // positions atomically at the end, so concurrent appenders
    // interleave whole lines, never halves of two.
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    f.write_all(&buf)?;
    f.flush()?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bw-fsutil-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_create_parents_and_leave_no_staging_files() {
        let dir = temp_dir("basic");
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, b"{\"ok\": true}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"ok\": true}");
        let entries: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["out.json"], "no stray .tmp after success");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_whole_content() {
        let dir = temp_dir("overwrite");
        let path = dir.join("out.txt");
        atomic_write(&path, b"a much longer first version").unwrap();
        atomic_write(&path, b"short").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"short");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_line_creates_parents_and_accumulates() {
        let dir = temp_dir("append");
        let path = dir.join("nested").join("journal.log");
        append_line(&path, "one").unwrap();
        append_line(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\ntwo\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staging_path_is_a_sibling_with_pid() {
        let p = staging_path(Path::new("results/cache/x.json"));
        let s = p.to_string_lossy();
        assert!(s.starts_with("results/cache/x.json."));
        assert!(s.ends_with(".tmp"));
    }
}
