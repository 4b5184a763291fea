//! Crash-safe file primitives, with the disk-fault injection points.
//!
//! Every byte the persistent cache puts on or takes off disk goes
//! through this module, for two reasons:
//!
//! 1. **Atomicity in one place.** [`write_atomic`] is the only writer:
//!    payload → temp file (same directory) → `sync_all` → `rename`.
//!    POSIX rename is atomic, so a reader (or a restarted daemon) sees
//!    either the complete old state or the complete new state of the
//!    final path — never a half-written file *at that path*. What a
//!    crash can still leave behind is a stale temp file (harmless,
//!    swept on startup) or, on filesystems that reorder data vs.
//!    rename, a renamed file with truncated payload — which is exactly
//!    what the store's checksum exists to catch.
//! 2. **Faults are injectable.** The four disk faults of the one
//!    registry, `fcc_analysis::fault`, model the failure classes a
//!    durable store must survive; with none armed, each file operation
//!    pays one relaxed atomic load for them:
//!
//!    | fault | models | observable state |
//!    |---|---|---|
//!    | [`Fault::TornWrite`] | crash/reorder between rename and data blocks | renamed file with truncated payload |
//!    | [`Fault::ShortWrite`] | crash before rename | stale temp file, final path untouched |
//!    | [`Fault::Enospc`] | disk full | write fails with `ENOSPC`, nothing renamed |
//!    | [`Fault::BitFlip`] | media corruption | one payload bit flipped on read |
//!
//! Tests (and the CI fault matrix, via `fcc serve --inject FAULT`) arm a
//! fault, drive the daemon, and assert the store's invariant: a faulted
//! entry is either invisible or detected and quarantined — never served.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

use fcc_analysis::fault::{self, Fault};

/// Write `bytes` to `path` via temp-file + `sync_all` + atomic rename.
/// The temp file lives in `path`'s directory (rename must not cross a
/// filesystem) and is named after the destination plus the process id,
/// so concurrent daemons sharing a cache dir cannot collide.
///
/// Under an armed disk fault this misbehaves exactly as the module
/// documentation says; the caller treats any `Err` as a failed (skipped)
/// store, never as fatal.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match fault::disk() {
        Some(Fault::Enospc) => {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        Some(Fault::TornWrite) => {
            // The crash window that atomic rename cannot close: the
            // rename is durable but the data blocks never all landed.
            let tmp = temp_path(path);
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            return Ok(());
        }
        Some(Fault::ShortWrite) => {
            // Crash before rename: the abandoned temp file is the only
            // trace; the final path is never touched.
            let tmp = temp_path(path);
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("injected short write"));
        }
        _ => {}
    }
    let tmp = temp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Read the whole file at `path`, applying an armed [`Fault::BitFlip`]
/// (one bit of the middle byte flips).
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if fault::disk() == Some(Fault::BitFlip) && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    }
    Ok(bytes)
}

fn temp_path(path: &Path) -> std::path::PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "entry".to_string());
    path.with_file_name(format!(".tmp-{}-{name}", std::process::id()))
}

/// Is `name` one of [`write_atomic`]'s temp files? Startup sweeps these:
/// they are the debris of a crash between create and rename.
pub fn is_temp_name(name: &str) -> bool {
    name.starts_with(".tmp-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_analysis::fault::Guard;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fcc-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp() {
        let _g = Guard::lock();
        let dir = tmpdir("clean");
        let p = dir.join("x.fnc");
        write_atomic(&p, b"hello world").unwrap();
        assert_eq!(read(&p).unwrap(), b"hello world");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| is_temp_name(&e.as_ref().unwrap().file_name().to_string_lossy()))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_fault_leaves_its_documented_state() {
        let dir = tmpdir("faults");

        {
            let _g = Guard::arm(Fault::Enospc);
            let p = dir.join("enospc.fnc");
            assert!(write_atomic(&p, b"0123456789").is_err());
            assert!(!p.exists(), "ENOSPC must not touch the final path");
        }
        {
            let _g = Guard::arm(Fault::ShortWrite);
            let p = dir.join("short.fnc");
            assert!(write_atomic(&p, b"0123456789").is_err());
            assert!(!p.exists(), "short write dies before rename");
            let temps = fs::read_dir(&dir)
                .unwrap()
                .filter(|e| is_temp_name(&e.as_ref().unwrap().file_name().to_string_lossy()))
                .count();
            assert_eq!(temps, 1, "the abandoned temp file is the only trace");
        }
        {
            let _g = Guard::arm(Fault::TornWrite);
            let p = dir.join("torn.fnc");
            write_atomic(&p, b"0123456789").unwrap();
            fault::clear();
            assert_eq!(read(&p).unwrap(), b"01234", "half the payload landed");
        }
        {
            let _g = Guard::lock();
            let p = dir.join("flip.fnc");
            write_atomic(&p, b"0123456789").unwrap();
            fault::inject(Fault::BitFlip);
            let corrupt = read(&p).unwrap();
            fault::clear();
            assert_ne!(corrupt, b"0123456789");
            assert_eq!(corrupt.len(), 10, "bit flip corrupts, never truncates");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
