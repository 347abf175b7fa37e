//! The file system, as `silo-log` uses it: the one module that touches it,
//! so the order that makes a write durable is written once (paper §4.10,
//! "acked means durable").
//!
//! Under POSIX a file's bytes reach the device only with its `fdatasync`,
//! and a directory entry — a name created, renamed or removed — only with an
//! `fsync` of its parent directory. The provided methods of [`Fs`] state the
//! rule over the trait's primitives:
//!
//! * [`Fs::create`] creates a file that must not exist and fsyncs its parent
//!   directory, so the name is durable before any of its bytes can be;
//! * [`Fs::create_dir`] creates each missing directory of a path and fsyncs
//!   the parent of each;
//! * [`Fs::publish`] writes a temp file, syncs it, renames it into place and
//!   fsyncs the parent: once it returns, the file is whole and durable.
//!
//! A directory fsync returns its error; nothing here drops one. [`RealFs`] is
//! the one implementation outside tests. The crash-state test records the
//! primitives' calls and builds the states a power loss could leave.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A file open for writing, written sequentially.
pub(crate) trait FsFile: Write + Send {
    /// `fdatasync`: the bytes written so far survive a power loss.
    fn sync_data(&self) -> io::Result<()>;
    /// Cuts the file to `len` bytes and goes on writing there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// How [`Fs::open`] opens a file for writing.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Open {
    /// Creates the file, which must not exist.
    New,
    /// Creates the file, or empties it if it exists.
    Replace,
    /// Opens an existing file.
    Existing,
}

/// The file-system calls of the log, the checkpointer and recovery.
pub(crate) trait Fs: Send + Sync {
    /// Opens `path` for writing. A created name is not durable yet.
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn FsFile>>;
    /// Opens `path` for reading.
    fn read(&self, path: &Path) -> io::Result<Box<dyn Read>>;
    /// The length of the file at `path`.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// The names in the directory `dir` that are UTF-8.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates the directory `path`, whose parent exists.
    fn mkdir(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to` in the same directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Removes the directory `path` and everything in it, if it exists.
    fn remove_dir(&self, path: &Path) -> io::Result<()>;
    /// `fsync`s the directory `dir`: the names created, renamed or removed in
    /// it so far survive a power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Creates `path`, which must not exist, and makes its name durable.
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let file = self.open(path, Open::New)?;
        self.sync_dir(parent(path))?;
        Ok(file)
    }

    /// Creates the directory `path` and its missing ancestors, each name
    /// durable before the next is created under it.
    fn create_dir(&self, path: &Path) -> io::Result<()> {
        if path.is_dir() {
            return Ok(());
        }
        self.create_dir(parent(path))?;
        self.mkdir(path)?;
        self.sync_dir(parent(path))
    }

    /// Replaces `path` with `bytes` atomically and durably: a power loss
    /// leaves the old file or the whole new one.
    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut file = self.open(&tmp, Open::Replace)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        self.rename(&tmp, path)?;
        self.sync_dir(parent(path))
    }
}

/// The directory holding `path`.
fn parent(path: &Path) -> &Path {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    dir.unwrap_or(Path::new("."))
}

/// The operating system's file system.
pub(crate) struct RealFs;

impl Fs for RealFs {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn FsFile>> {
        let mut options = OpenOptions::new();
        options.write(true);
        match how {
            Open::New => options.create_new(true),
            Open::Replace => options.create(true).truncate(true),
            Open::Existing => &mut options,
        };
        Ok(Box::new(options.open(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Box<dyn Read>> {
        Ok(Box::new(File::open(path)?))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.extend(entry?.file_name().into_string().ok());
        }
        Ok(names)
    }

    fn mkdir(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_dir_all(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            result => result,
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

impl FsFile for File {
    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}
