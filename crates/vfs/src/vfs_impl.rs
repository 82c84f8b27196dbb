//! The virtual filesystem proper.

use std::collections::{BTreeMap, BTreeSet};

use cia_crypto::{Digest, HashAlgorithm};
use serde::{Deserialize, Serialize};

use crate::error::VfsError;
use crate::inode::{FileId, Inode, Metadata, Mode};
use crate::mount::{FilesystemId, FilesystemKind, MountTable};
use crate::path::VfsPath;

/// An in-memory filesystem tree with POSIX mount and rename semantics.
///
/// See the [crate-level documentation](crate) for why these semantics
/// matter to the reproduction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vfs {
    mounts: MountTable,
    inodes: BTreeMap<FileId, Inode>,
    files: BTreeMap<VfsPath, FileId>,
    dirs: BTreeSet<VfsPath>,
    next_ino: BTreeMap<FilesystemId, u64>,
}

impl Vfs {
    /// Creates an empty filesystem with nothing mounted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a filesystem with the standard Ubuntu-like layout mounted:
    /// ext4 root and `/boot`, tmpfs at `/run` and `/dev/shm`, procfs,
    /// sysfs, debugfs, securityfs, devtmpfs, plus the usual directory
    /// skeleton (`/usr/bin`, `/etc`, `/lib/modules`, ...).
    ///
    /// Note `/tmp` is a plain directory on the root ext4, matching Ubuntu
    /// 22.04's default — which is why IMA *does* measure `/tmp` while the
    /// studied Keylime policy excludes it (P1/P4 in the paper).
    pub fn with_standard_layout() -> Self {
        let mut vfs = Self::new();
        let p = |s: &str| VfsPath::new(s).expect("static path");
        vfs.mount(&VfsPath::root(), FilesystemKind::Ext4)
            .expect("mount root");
        for dir in [
            "/bin",
            "/sbin",
            "/boot",
            "/dev",
            "/etc",
            "/home",
            "/lib",
            "/lib/modules",
            "/opt",
            "/proc",
            "/root",
            "/run",
            "/snap",
            "/srv",
            "/sys",
            "/tmp",
            "/usr",
            "/usr/bin",
            "/usr/sbin",
            "/usr/lib",
            "/usr/local",
            "/usr/local/bin",
            "/usr/share",
            "/var",
            "/var/lib",
            "/var/log",
            "/var/tmp",
        ] {
            vfs.mkdir_p(&p(dir)).expect("mkdir standard layout");
        }
        vfs.mount(&p("/boot"), FilesystemKind::Ext4)
            .expect("mount /boot");
        vfs.mount(&p("/run"), FilesystemKind::Tmpfs)
            .expect("mount /run");
        vfs.mount(&p("/dev"), FilesystemKind::Devtmpfs)
            .expect("mount /dev");
        vfs.mkdir_p(&p("/dev/shm")).expect("mkdir /dev/shm");
        vfs.mount(&p("/dev/shm"), FilesystemKind::Tmpfs)
            .expect("mount /dev/shm");
        vfs.mount(&p("/proc"), FilesystemKind::Procfs)
            .expect("mount /proc");
        vfs.mount(&p("/sys"), FilesystemKind::Sysfs)
            .expect("mount /sys");
        vfs.mkdir_p(&p("/sys/kernel")).expect("mkdir /sys/kernel");
        vfs.mkdir_p(&p("/sys/kernel/debug")).expect("mkdir debug");
        vfs.mkdir_p(&p("/sys/kernel/security"))
            .expect("mkdir security");
        vfs.mount(&p("/sys/kernel/debug"), FilesystemKind::Debugfs)
            .expect("mount debugfs");
        vfs.mount(&p("/sys/kernel/security"), FilesystemKind::Securityfs)
            .expect("mount securityfs");
        vfs
    }

    // ----- mounts ---------------------------------------------------------

    /// Mounts a filesystem of `kind` at `mount_point` (the directory must
    /// exist unless it is the root).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] when the mount-point directory is missing;
    /// [`VfsError::MountError`] when it is already a mount point.
    pub fn mount(
        &mut self,
        mount_point: &VfsPath,
        kind: FilesystemKind,
    ) -> Result<FilesystemId, VfsError> {
        if mount_point.is_root() {
            self.dirs.insert(VfsPath::root());
        } else if !self.dirs.contains(mount_point) {
            return Err(VfsError::NotFound {
                path: mount_point.to_string(),
            });
        }
        self.mounts.mount(mount_point.clone(), kind)
    }

    /// Unmounts `mount_point`, discarding every file that lived on that
    /// filesystem instance.
    ///
    /// # Errors
    ///
    /// [`VfsError::MountError`] when nothing is mounted there.
    pub fn unmount(&mut self, mount_point: &VfsPath) -> Result<(), VfsError> {
        // Identify what belongs to this mount while it is still in the
        // table, then detach it.
        let fs_id = self
            .mounts
            .iter()
            .find(|m| &m.mount_point == mount_point)
            .map(|m| m.fs_id)
            .ok_or_else(|| VfsError::MountError {
                reason: format!("`{mount_point}` is not a mount point"),
            })?;
        let doomed_dirs: Vec<VfsPath> = self
            .dirs
            .range(mount_point.clone()..)
            .take_while(|p| p.starts_with(mount_point))
            .filter(|p| *p != mount_point)
            .filter(|p| self.dir_owned_by(p, fs_id))
            .cloned()
            .collect();
        let mount = self.mounts.unmount(mount_point)?;
        let doomed: Vec<VfsPath> = self
            .files
            .range(mount_point.clone()..)
            .take_while(|(p, _)| p.starts_with(mount_point))
            .filter(|(_, id)| id.fs == mount.fs_id)
            .map(|(p, _)| p.clone())
            .collect();
        for path in doomed {
            self.unlink_entry(&path);
        }
        for d in doomed_dirs {
            self.dirs.remove(&d);
        }
        Ok(())
    }

    /// True when `dir` belongs to the filesystem `fs_id` (it resolves to
    /// that mount and is not itself another filesystem's mount point).
    fn dir_owned_by(&self, dir: &VfsPath, fs_id: FilesystemId) -> bool {
        match self.mounts.resolve(dir) {
            Some(m) => m.fs_id == fs_id && &m.mount_point != dir,
            None => false,
        }
    }

    /// The mount table.
    pub fn mounts(&self) -> &MountTable {
        &self.mounts
    }

    /// Resolves the filesystem kind backing `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] when no root filesystem is mounted.
    pub fn filesystem_of(
        &self,
        path: &VfsPath,
    ) -> Result<(FilesystemId, FilesystemKind), VfsError> {
        let mount = self
            .mounts
            .resolve(path)
            .ok_or_else(|| VfsError::NotFound {
                path: path.to_string(),
            })?;
        Ok((mount.fs_id, mount.kind))
    }

    // ----- directories ----------------------------------------------------

    /// Creates a single directory; the parent must already exist.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`], [`VfsError::NotFound`] (missing
    /// parent), or [`VfsError::NotADirectory`] (parent is a file).
    pub fn mkdir(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        if self.dirs.contains(path) || self.files.contains_key(path) {
            return Err(VfsError::AlreadyExists {
                path: path.to_string(),
            });
        }
        self.check_parent_dir(path)?;
        self.dirs.insert(path.clone());
        Ok(())
    }

    /// Creates `path` and any missing ancestors.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] when an ancestor exists as a file.
    pub fn mkdir_p(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        let mut ancestors: Vec<VfsPath> = Vec::new();
        let mut cur = Some(path.clone());
        while let Some(c) = cur {
            if c.is_root() {
                break;
            }
            cur = c.parent();
            ancestors.push(c);
        }
        self.dirs.insert(VfsPath::root());
        for dir in ancestors.into_iter().rev() {
            if self.files.contains_key(&dir) {
                return Err(VfsError::NotADirectory {
                    path: dir.to_string(),
                });
            }
            self.dirs.insert(dir);
        }
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`], [`VfsError::DirectoryNotEmpty`], or
    /// [`VfsError::NotADirectory`].
    pub fn remove_dir(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        if !self.dirs.contains(path) {
            if self.files.contains_key(path) {
                return Err(VfsError::NotADirectory {
                    path: path.to_string(),
                });
            }
            return Err(VfsError::NotFound {
                path: path.to_string(),
            });
        }
        if self.has_children(path) {
            return Err(VfsError::DirectoryNotEmpty {
                path: path.to_string(),
            });
        }
        self.dirs.remove(path);
        Ok(())
    }

    /// Removes `path` and everything beneath it.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] when `path` does not exist.
    pub fn remove_dir_all(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        if !self.dirs.contains(path) {
            return Err(VfsError::NotFound {
                path: path.to_string(),
            });
        }
        let files: Vec<VfsPath> = self
            .files
            .range(path.clone()..)
            .take_while(|(p, _)| p.starts_with(path))
            .map(|(p, _)| p.clone())
            .collect();
        for f in files {
            self.unlink_entry(&f);
        }
        let dirs: Vec<VfsPath> = self
            .dirs
            .range(path.clone()..)
            .take_while(|p| p.starts_with(path))
            .cloned()
            .collect();
        for d in dirs {
            self.dirs.remove(&d);
        }
        Ok(())
    }

    // ----- files ----------------------------------------------------------

    /// Creates a new file with `content` and `mode`.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] when the path is occupied;
    /// [`VfsError::NotFound`]/[`VfsError::NotADirectory`] for bad parents.
    pub fn create_file(
        &mut self,
        path: &VfsPath,
        content: Vec<u8>,
        mode: Mode,
    ) -> Result<FileId, VfsError> {
        if self.files.contains_key(path) || self.dirs.contains(path) {
            return Err(VfsError::AlreadyExists {
                path: path.to_string(),
            });
        }
        self.check_parent_dir(path)?;
        let (fs, _) = self.filesystem_of(path)?;
        let id = self.alloc_inode(fs);
        self.inodes.insert(
            id,
            Inode {
                content,
                mode,
                iversion: 1,
                nlink: 1,
                xattrs: Default::default(),
            },
        );
        self.files.insert(path.clone(), id);
        Ok(id)
    }

    /// Creates the file or overwrites an existing one in place.
    ///
    /// Overwriting keeps the inode and bumps `i_version` (this is how a
    /// package upgrade rewriting `/usr/bin/x` looks to IMA). The mode of an
    /// existing file is preserved; `mode` applies only on creation.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] or parent-related errors.
    pub fn write_file(
        &mut self,
        path: &VfsPath,
        content: Vec<u8>,
        mode: Mode,
    ) -> Result<FileId, VfsError> {
        if self.dirs.contains(path) {
            return Err(VfsError::IsADirectory {
                path: path.to_string(),
            });
        }
        if let Some(&id) = self.files.get(path) {
            let inode = self.inodes.get_mut(&id).expect("inode for mapped file");
            inode.content = content;
            inode.iversion += 1;
            return Ok(id);
        }
        self.create_file(path, content, mode)
    }

    /// Reads a file's content.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn read(&self, path: &VfsPath) -> Result<&[u8], VfsError> {
        let id = self.file_id(path)?;
        Ok(&self.inodes[&id].content)
    }

    /// Appends `bytes` to the end of a file, creating it (with `mode`)
    /// when absent — `open(O_APPEND)` semantics for log-structured
    /// writers. Appending keeps the inode and bumps `i_version`, so the
    /// grown file still reads as the same object to watchers.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] or parent-related errors.
    pub fn append_file(
        &mut self,
        path: &VfsPath,
        bytes: &[u8],
        mode: Mode,
    ) -> Result<FileId, VfsError> {
        if self.dirs.contains(path) {
            return Err(VfsError::IsADirectory {
                path: path.to_string(),
            });
        }
        if let Some(&id) = self.files.get(path) {
            let inode = self.inodes.get_mut(&id).expect("inode for mapped file");
            inode.content.extend_from_slice(bytes);
            inode.iversion += 1;
            return Ok(id);
        }
        self.create_file(path, bytes.to_vec(), mode)
    }

    /// Truncates a file to `len` bytes (`ftruncate`). A `len` at or past
    /// the current size is a no-op; shrinking bumps `i_version`. This is
    /// how crash recovery discards a torn tail: everything after the last
    /// intact record boundary is cut, never rewritten.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn truncate_file(&mut self, path: &VfsPath, len: usize) -> Result<(), VfsError> {
        let id = self.file_id(path)?;
        let inode = self.inodes.get_mut(&id).expect("inode for mapped file");
        if len < inode.content.len() {
            inode.content.truncate(len);
            inode.iversion += 1;
        }
        Ok(())
    }

    /// Sets or clears the executable bits (`chmod ±x`).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn chmod_exec(&mut self, path: &VfsPath, executable: bool) -> Result<(), VfsError> {
        let id = self.file_id(path)?;
        let inode = self.inodes.get_mut(&id).expect("inode for mapped file");
        inode.mode = inode.mode.with_executable(executable);
        Ok(())
    }

    /// Sets an extended attribute on a file (`setfattr`). The kernel's
    /// `security.ima` xattr is where IMA-appraisal signatures live.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn set_xattr(
        &mut self,
        path: &VfsPath,
        name: impl Into<String>,
        value: Vec<u8>,
    ) -> Result<(), VfsError> {
        let id = self.file_id(path)?;
        self.inodes
            .get_mut(&id)
            .expect("inode for mapped file")
            .xattrs
            .insert(name.into(), value);
        Ok(())
    }

    /// Reads an extended attribute (`getfattr`), `None` when unset.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn get_xattr(&self, path: &VfsPath, name: &str) -> Result<Option<&[u8]>, VfsError> {
        let id = self.file_id(path)?;
        Ok(self.inodes[&id].xattrs.get(name).map(|v| v.as_slice()))
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn remove_file(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        self.file_id(path)?;
        self.unlink_entry(path);
        Ok(())
    }

    /// POSIX `rename(2)`: atomically moves a file within one filesystem,
    /// preserving its inode. Replaces an existing destination file.
    ///
    /// # Errors
    ///
    /// [`VfsError::CrossDevice`] when source and destination are on
    /// different filesystems (the caller must copy, as `mv` does);
    /// [`VfsError::NotFound`]/[`VfsError::IsADirectory`] otherwise.
    pub fn rename(&mut self, from: &VfsPath, to: &VfsPath) -> Result<(), VfsError> {
        let id = self.file_id(from)?;
        if self.dirs.contains(to) {
            return Err(VfsError::IsADirectory {
                path: to.to_string(),
            });
        }
        self.check_parent_dir(to)?;
        let (to_fs, _) = self.filesystem_of(to)?;
        if to_fs != id.fs {
            return Err(VfsError::CrossDevice {
                from: from.to_string(),
                to: to.to_string(),
            });
        }
        self.unlink_entry(to);
        self.files.remove(from);
        self.files.insert(to.clone(), id);
        Ok(())
    }

    /// Moves a file like `mv`: tries [`Vfs::rename`] and falls back to
    /// copy + unlink (fresh inode) across filesystems. Returns the file id
    /// at the destination.
    ///
    /// # Errors
    ///
    /// Propagates lookup/parent errors from the underlying operations.
    pub fn move_entry(&mut self, from: &VfsPath, to: &VfsPath) -> Result<FileId, VfsError> {
        match self.rename(from, to) {
            Ok(()) => Ok(self.file_id(to).expect("renamed file exists")),
            Err(VfsError::CrossDevice { .. }) => {
                let id = self.copy_file(from, to)?;
                self.remove_file(from)?;
                Ok(id)
            }
            Err(e) => Err(e),
        }
    }

    /// Creates a hard link: `link` becomes a second name for `target`'s
    /// inode (`ln target link`). Both paths share content, mode and
    /// `i_version` — and, crucially for attestation, the same
    /// measurement-cache identity.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] when `link` is occupied;
    /// [`VfsError::CrossDevice`] when `link` would live on a different
    /// filesystem; lookup/parent errors otherwise.
    pub fn hardlink(&mut self, target: &VfsPath, link: &VfsPath) -> Result<FileId, VfsError> {
        let id = self.file_id(target)?;
        if self.files.contains_key(link) || self.dirs.contains(link) {
            return Err(VfsError::AlreadyExists {
                path: link.to_string(),
            });
        }
        self.check_parent_dir(link)?;
        let (link_fs, _) = self.filesystem_of(link)?;
        if link_fs != id.fs {
            return Err(VfsError::CrossDevice {
                from: target.to_string(),
                to: link.to_string(),
            });
        }
        self.files.insert(link.clone(), id);
        self.inodes
            .get_mut(&id)
            .expect("inode for mapped file")
            .nlink += 1;
        Ok(id)
    }

    /// Copies a file, allocating a new inode at `to` (overwrites in place
    /// if `to` exists).
    ///
    /// # Errors
    ///
    /// Propagates lookup/parent errors.
    pub fn copy_file(&mut self, from: &VfsPath, to: &VfsPath) -> Result<FileId, VfsError> {
        let id = self.file_id(from)?;
        let (content, mode) = {
            let inode = &self.inodes[&id];
            (inode.content.clone(), inode.mode)
        };
        if self.files.contains_key(to) {
            self.remove_file(to)?;
        }
        self.create_file(to, content, mode)
    }

    // ----- queries ----------------------------------------------------------

    /// True when a file or directory exists at `path`.
    pub fn exists(&self, path: &VfsPath) -> bool {
        self.files.contains_key(path) || self.dirs.contains(path)
    }

    /// True when `path` is a directory.
    pub fn is_dir(&self, path: &VfsPath) -> bool {
        self.dirs.contains(path)
    }

    /// True when `path` is a file.
    pub fn is_file(&self, path: &VfsPath) -> bool {
        self.files.contains_key(path)
    }

    /// Metadata for the file at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn metadata(&self, path: &VfsPath) -> Result<Metadata, VfsError> {
        let id = self.file_id(path)?;
        let inode = &self.inodes[&id];
        let kind = self
            .mounts
            .iter()
            .find(|m| m.fs_id == id.fs)
            .map(|m| m.kind)
            .unwrap_or(FilesystemKind::Ext4);
        Ok(Metadata {
            file_id: id,
            fs_kind: kind,
            mode: inode.mode,
            size: inode.content.len() as u64,
            iversion: inode.iversion,
        })
    }

    /// Digest of the file content under `algorithm`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::IsADirectory`].
    pub fn file_digest(
        &self,
        path: &VfsPath,
        algorithm: HashAlgorithm,
    ) -> Result<Digest, VfsError> {
        Ok(algorithm.digest(self.read(path)?))
    }

    /// Direct children (files and directories) of `dir`, sorted.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] or [`VfsError::NotADirectory`].
    pub fn list_dir(&self, dir: &VfsPath) -> Result<Vec<VfsPath>, VfsError> {
        if !self.dirs.contains(dir) {
            if self.files.contains_key(dir) {
                return Err(VfsError::NotADirectory {
                    path: dir.to_string(),
                });
            }
            return Err(VfsError::NotFound {
                path: dir.to_string(),
            });
        }
        let want_depth = dir.depth() + 1;
        let mut out: Vec<VfsPath> = Vec::new();
        for p in self
            .files
            .range(dir.clone()..)
            .map(|(p, _)| p)
            .take_while(|p| p.starts_with(dir))
        {
            if p.depth() == want_depth {
                out.push(p.clone());
            }
        }
        for p in self
            .dirs
            .range(dir.clone()..)
            .take_while(|p| p.starts_with(dir))
        {
            if p.depth() == want_depth {
                out.push(p.clone());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Iterates over every file path under `prefix` (inclusive), sorted.
    pub fn walk_files<'a>(&'a self, prefix: &'a VfsPath) -> impl Iterator<Item = &'a VfsPath> + 'a {
        self.files
            .range(prefix.clone()..)
            .map(|(p, _)| p)
            .take_while(move |p| p.starts_with(prefix))
    }

    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Sum of all file sizes in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inodes.values().map(|i| i.content.len() as u64).sum()
    }

    // ----- reboot -----------------------------------------------------------

    /// Applies reboot semantics: contents of volatile filesystems (tmpfs,
    /// procfs, ramfs, ...) are discarded; persistent filesystems survive.
    pub fn reboot_clear_volatile(&mut self) {
        let volatile: Vec<(VfsPath, FilesystemId)> = self
            .mounts
            .iter()
            .filter(|m| !m.kind.is_persistent())
            .map(|m| (m.mount_point.clone(), m.fs_id))
            .collect();
        for (mount_point, fs_id) in volatile {
            let files: Vec<VfsPath> = self
                .files
                .range(mount_point.clone()..)
                .take_while(|(p, _)| p.starts_with(&mount_point))
                .filter(|(_, id)| id.fs == fs_id)
                .map(|(p, _)| p.clone())
                .collect();
            for f in files {
                self.unlink_entry(&f);
            }
            let dirs: Vec<VfsPath> = self
                .dirs
                .range(mount_point.clone()..)
                .take_while(|p| p.starts_with(&mount_point))
                .filter(|p| *p != &mount_point)
                .filter(|p| self.dir_owned_by(p, fs_id))
                .cloned()
                .collect();
            for d in dirs {
                self.dirs.remove(&d);
            }
        }
    }

    // ----- helpers ----------------------------------------------------------

    /// Removes one path's directory entry, dropping the inode only when
    /// its last link goes away.
    fn unlink_entry(&mut self, path: &VfsPath) {
        if let Some(id) = self.files.remove(path) {
            if let Some(inode) = self.inodes.get_mut(&id) {
                if inode.nlink > 1 {
                    inode.nlink -= 1;
                } else {
                    self.inodes.remove(&id);
                }
            }
        }
    }

    fn has_children(&self, dir: &VfsPath) -> bool {
        let file_child = self
            .files
            .range(dir.clone()..)
            .take_while(|(p, _)| p.starts_with(dir))
            .any(|(p, _)| p != dir);
        let dir_child = self
            .dirs
            .range(dir.clone()..)
            .take_while(|p| p.starts_with(dir))
            .any(|p| p != dir);
        file_child || dir_child
    }

    fn file_id(&self, path: &VfsPath) -> Result<FileId, VfsError> {
        if let Some(&id) = self.files.get(path) {
            return Ok(id);
        }
        if self.dirs.contains(path) {
            return Err(VfsError::IsADirectory {
                path: path.to_string(),
            });
        }
        Err(VfsError::NotFound {
            path: path.to_string(),
        })
    }

    fn check_parent_dir(&self, path: &VfsPath) -> Result<(), VfsError> {
        let parent = path.parent().ok_or_else(|| VfsError::InvalidPath {
            path: path.to_string(),
        })?;
        if self.dirs.contains(&parent) {
            return Ok(());
        }
        if self.files.contains_key(&parent) {
            return Err(VfsError::NotADirectory {
                path: parent.to_string(),
            });
        }
        Err(VfsError::NotFound {
            path: parent.to_string(),
        })
    }

    fn alloc_inode(&mut self, fs: FilesystemId) -> FileId {
        let counter = self.next_ino.entry(fs).or_insert(1);
        let ino = *counter;
        *counter += 1;
        FileId { fs, ino }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VfsPath {
        VfsPath::new(s).unwrap()
    }

    fn standard() -> Vfs {
        Vfs::with_standard_layout()
    }

    #[test]
    fn standard_layout_mounts() {
        let vfs = standard();
        assert_eq!(
            vfs.filesystem_of(&p("/usr/bin/ls")).unwrap().1,
            FilesystemKind::Ext4
        );
        assert_eq!(
            vfs.filesystem_of(&p("/tmp/x")).unwrap().1,
            FilesystemKind::Ext4
        );
        assert_eq!(
            vfs.filesystem_of(&p("/proc/self")).unwrap().1,
            FilesystemKind::Procfs
        );
        assert_eq!(
            vfs.filesystem_of(&p("/sys/kernel/debug/x")).unwrap().1,
            FilesystemKind::Debugfs
        );
        assert_eq!(
            vfs.filesystem_of(&p("/dev/shm/x")).unwrap().1,
            FilesystemKind::Tmpfs
        );
    }

    #[test]
    fn create_read_write() {
        let mut vfs = standard();
        let f = p("/usr/bin/tool");
        let id = vfs.create_file(&f, b"v1".to_vec(), Mode::EXEC).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"v1");
        assert_eq!(vfs.metadata(&f).unwrap().iversion, 1);

        // Overwrite keeps the inode, bumps i_version.
        let id2 = vfs.write_file(&f, b"v2".to_vec(), Mode::REGULAR).unwrap();
        assert_eq!(id, id2);
        assert_eq!(vfs.read(&f).unwrap(), b"v2");
        let meta = vfs.metadata(&f).unwrap();
        assert_eq!(meta.iversion, 2);
        // Mode preserved from creation.
        assert!(meta.mode.is_executable());
    }

    #[test]
    fn append_and_truncate() {
        let mut vfs = standard();
        let f = p("/var/lib/journal.log");
        // Append creates the file when absent...
        let id = vfs.append_file(&f, b"aaa", Mode::REGULAR).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"aaa");
        // ...and extends in place (same inode, bumped i_version) after.
        let id2 = vfs.append_file(&f, b"bbb", Mode::REGULAR).unwrap();
        assert_eq!(id, id2);
        assert_eq!(vfs.read(&f).unwrap(), b"aaabbb");
        assert_eq!(vfs.metadata(&f).unwrap().iversion, 2);

        // Truncate cuts the tail; growing lengths are a no-op.
        vfs.truncate_file(&f, 4).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"aaab");
        let v = vfs.metadata(&f).unwrap().iversion;
        vfs.truncate_file(&f, 100).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"aaab");
        assert_eq!(
            vfs.metadata(&f).unwrap().iversion,
            v,
            "no-op keeps i_version"
        );
        vfs.truncate_file(&f, 0).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"");

        // Directories reject both, like every other file op.
        assert!(vfs
            .append_file(&p("/var/lib"), b"x", Mode::REGULAR)
            .is_err());
        assert!(vfs.truncate_file(&p("/var/lib"), 0).is_err());
        assert!(vfs.truncate_file(&p("/var/lib/ghost"), 0).is_err());
    }

    #[test]
    fn create_requires_parent() {
        let mut vfs = standard();
        let err = vfs
            .create_file(&p("/no/such/dir/file"), vec![], Mode::REGULAR)
            .unwrap_err();
        assert!(matches!(err, VfsError::NotFound { .. }));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut vfs = standard();
        let f = p("/etc/conf");
        vfs.create_file(&f, vec![], Mode::REGULAR).unwrap();
        assert!(matches!(
            vfs.create_file(&f, vec![], Mode::REGULAR),
            Err(VfsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn rename_same_fs_preserves_inode() {
        let mut vfs = standard();
        let a = p("/usr/bin/a");
        let b = p("/usr/lib/b");
        let id = vfs.create_file(&a, b"x".to_vec(), Mode::EXEC).unwrap();
        let before = vfs.metadata(&a).unwrap();
        vfs.rename(&a, &b).unwrap();
        let after = vfs.metadata(&b).unwrap();
        assert_eq!(before.file_id, after.file_id);
        assert_eq!(after.file_id, id);
        assert_eq!(
            after.iversion, before.iversion,
            "rename must not bump i_version"
        );
        assert!(!vfs.exists(&a));
    }

    #[test]
    fn rename_cross_fs_is_exdev() {
        let mut vfs = standard();
        let a = p("/dev/shm/payload");
        vfs.create_file(&a, b"x".to_vec(), Mode::EXEC).unwrap();
        let err = vfs.rename(&a, &p("/usr/bin/payload")).unwrap_err();
        assert!(matches!(err, VfsError::CrossDevice { .. }));
    }

    #[test]
    fn move_entry_cross_fs_allocates_new_inode() {
        let mut vfs = standard();
        let a = p("/dev/shm/payload");
        let b = p("/usr/bin/payload");
        vfs.create_file(&a, b"x".to_vec(), Mode::EXEC).unwrap();
        let before = vfs.metadata(&a).unwrap().file_id;
        let after = vfs.move_entry(&a, &b).unwrap();
        assert_ne!(before, after);
        assert!(!vfs.exists(&a));
        assert_eq!(vfs.read(&b).unwrap(), b"x");
    }

    #[test]
    fn move_entry_same_fs_preserves_inode() {
        let mut vfs = standard();
        // /tmp is on the root ext4 (Ubuntu default) — the P4 staging dir.
        let a = p("/tmp/payload");
        let b = p("/usr/bin/payload");
        vfs.create_file(&a, b"x".to_vec(), Mode::EXEC).unwrap();
        let before = vfs.metadata(&a).unwrap().file_id;
        let after = vfs.move_entry(&a, &b).unwrap();
        assert_eq!(before, after, "same-fs mv must keep the inode (P4)");
    }

    #[test]
    fn rename_replaces_destination() {
        let mut vfs = standard();
        let a = p("/usr/bin/new");
        let b = p("/usr/bin/old");
        vfs.create_file(&a, b"new".to_vec(), Mode::EXEC).unwrap();
        vfs.create_file(&b, b"old".to_vec(), Mode::EXEC).unwrap();
        vfs.rename(&a, &b).unwrap();
        assert_eq!(vfs.read(&b).unwrap(), b"new");
        assert!(!vfs.exists(&a));
    }

    #[test]
    fn copy_allocates_new_inode() {
        let mut vfs = standard();
        let a = p("/usr/bin/orig");
        let b = p("/usr/bin/copy");
        vfs.create_file(&a, b"x".to_vec(), Mode::EXEC).unwrap();
        let id = vfs.copy_file(&a, &b).unwrap();
        assert_ne!(id, vfs.metadata(&a).unwrap().file_id);
        assert!(vfs.metadata(&b).unwrap().mode.is_executable());
    }

    #[test]
    fn chmod_exec() {
        let mut vfs = standard();
        let f = p("/tmp/script");
        vfs.create_file(&f, b"#!/bin/sh".to_vec(), Mode::REGULAR)
            .unwrap();
        assert!(!vfs.metadata(&f).unwrap().mode.is_executable());
        vfs.chmod_exec(&f, true).unwrap();
        assert!(vfs.metadata(&f).unwrap().mode.is_executable());
    }

    #[test]
    fn list_dir_children_only() {
        let mut vfs = standard();
        vfs.create_file(&p("/etc/a"), vec![], Mode::REGULAR)
            .unwrap();
        vfs.mkdir_p(&p("/etc/sub")).unwrap();
        vfs.create_file(&p("/etc/sub/nested"), vec![], Mode::REGULAR)
            .unwrap();
        let listing = vfs.list_dir(&p("/etc")).unwrap();
        assert_eq!(listing, vec![p("/etc/a"), p("/etc/sub")]);
    }

    #[test]
    fn walk_files_under_prefix() {
        let mut vfs = standard();
        vfs.create_file(&p("/usr/bin/x"), vec![], Mode::EXEC)
            .unwrap();
        vfs.create_file(&p("/usr/lib/y"), vec![], Mode::EXEC)
            .unwrap();
        vfs.create_file(&p("/etc/z"), vec![], Mode::REGULAR)
            .unwrap();
        let under_usr: Vec<_> = vfs
            .walk_files(&p("/usr"))
            .map(|q| q.as_str().to_string())
            .collect();
        assert_eq!(under_usr, ["/usr/bin/x", "/usr/lib/y"]);
    }

    #[test]
    fn reboot_clears_tmpfs_not_ext4() {
        let mut vfs = standard();
        vfs.mkdir_p(&p("/dev/shm/dir")).unwrap();
        vfs.create_file(&p("/dev/shm/volatile"), vec![], Mode::EXEC)
            .unwrap();
        vfs.create_file(&p("/tmp/on-disk"), vec![], Mode::EXEC)
            .unwrap();
        vfs.create_file(&p("/usr/bin/persistent"), vec![], Mode::EXEC)
            .unwrap();
        vfs.reboot_clear_volatile();
        assert!(!vfs.exists(&p("/dev/shm/volatile")));
        assert!(!vfs.exists(&p("/dev/shm/dir")));
        assert!(vfs.exists(&p("/dev/shm")), "mount point itself survives");
        assert!(vfs.exists(&p("/tmp/on-disk")), "/tmp is on the root ext4");
        assert!(vfs.exists(&p("/usr/bin/persistent")));
    }

    #[test]
    fn unmount_discards_files() {
        let mut vfs = standard();
        vfs.mkdir_p(&p("/snap/core20/1234")).unwrap();
        vfs.mount(&p("/snap/core20/1234"), FilesystemKind::Squashfs)
            .unwrap();
        vfs.mkdir_p(&p("/snap/core20/1234/usr/bin")).unwrap();
        vfs.create_file(
            &p("/snap/core20/1234/usr/bin/python3"),
            b"py".to_vec(),
            Mode::EXEC,
        )
        .unwrap();
        vfs.unmount(&p("/snap/core20/1234")).unwrap();
        assert!(!vfs.exists(&p("/snap/core20/1234/usr/bin/python3")));
        assert!(
            vfs.exists(&p("/snap/core20/1234")),
            "mount point dir remains"
        );
    }

    #[test]
    fn remove_dir_semantics() {
        let mut vfs = standard();
        vfs.mkdir_p(&p("/opt/app")).unwrap();
        vfs.create_file(&p("/opt/app/bin"), vec![], Mode::EXEC)
            .unwrap();
        assert!(matches!(
            vfs.remove_dir(&p("/opt/app")),
            Err(VfsError::DirectoryNotEmpty { .. })
        ));
        vfs.remove_dir_all(&p("/opt/app")).unwrap();
        assert!(!vfs.exists(&p("/opt/app")));
    }

    #[test]
    fn digest_matches_content() {
        let mut vfs = standard();
        let f = p("/usr/bin/hashme");
        vfs.create_file(&f, b"content".to_vec(), Mode::EXEC)
            .unwrap();
        assert_eq!(
            vfs.file_digest(&f, HashAlgorithm::Sha256).unwrap(),
            HashAlgorithm::Sha256.digest(b"content")
        );
    }

    #[test]
    fn counts() {
        let mut vfs = standard();
        assert_eq!(vfs.file_count(), 0);
        vfs.create_file(&p("/etc/a"), b"12345".to_vec(), Mode::REGULAR)
            .unwrap();
        vfs.create_file(&p("/etc/b"), b"123".to_vec(), Mode::REGULAR)
            .unwrap();
        assert_eq!(vfs.file_count(), 2);
        assert_eq!(vfs.total_bytes(), 8);
    }
}

#[cfg(test)]
mod hardlink_tests {
    use super::*;

    fn p(s: &str) -> VfsPath {
        VfsPath::new(s).unwrap()
    }

    #[test]
    fn hardlink_shares_inode_and_content() {
        let mut vfs = Vfs::with_standard_layout();
        let target = p("/usr/bin/tool");
        let link = p("/usr/sbin/tool-alias");
        vfs.create_file(&target, b"v1".to_vec(), Mode::EXEC)
            .unwrap();
        let id = vfs.hardlink(&target, &link).unwrap();
        assert_eq!(vfs.metadata(&target).unwrap().file_id, id);
        assert_eq!(vfs.metadata(&link).unwrap().file_id, id);

        // Writes through either name are visible through both.
        vfs.write_file(&link, b"v2".to_vec(), Mode::EXEC).unwrap();
        assert_eq!(vfs.read(&target).unwrap(), b"v2");
        assert_eq!(vfs.metadata(&target).unwrap().iversion, 2);
    }

    #[test]
    fn hardlink_cross_device_rejected() {
        let mut vfs = Vfs::with_standard_layout();
        let target = p("/usr/bin/tool");
        vfs.create_file(&target, b"x".to_vec(), Mode::EXEC).unwrap();
        assert!(matches!(
            vfs.hardlink(&target, &p("/dev/shm/alias")),
            Err(VfsError::CrossDevice { .. })
        ));
    }

    #[test]
    fn hardlink_occupied_destination_rejected() {
        let mut vfs = Vfs::with_standard_layout();
        let a = p("/usr/bin/a");
        let b = p("/usr/bin/b");
        vfs.create_file(&a, b"a".to_vec(), Mode::EXEC).unwrap();
        vfs.create_file(&b, b"b".to_vec(), Mode::EXEC).unwrap();
        assert!(matches!(
            vfs.hardlink(&a, &b),
            Err(VfsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn unlink_one_name_keeps_the_other() {
        let mut vfs = Vfs::with_standard_layout();
        let target = p("/usr/bin/tool");
        let link = p("/usr/sbin/alias");
        vfs.create_file(&target, b"x".to_vec(), Mode::EXEC).unwrap();
        vfs.hardlink(&target, &link).unwrap();

        vfs.remove_file(&target).unwrap();
        assert!(!vfs.exists(&target));
        assert_eq!(
            vfs.read(&link).unwrap(),
            b"x",
            "content survives via the link"
        );

        vfs.remove_file(&link).unwrap();
        assert_eq!(vfs.file_count(), 0);
    }

    #[test]
    fn rename_over_hardlinked_name_decrements_not_destroys() {
        let mut vfs = Vfs::with_standard_layout();
        let target = p("/usr/bin/tool");
        let link = p("/usr/sbin/alias");
        let newcomer = p("/usr/bin/newcomer");
        vfs.create_file(&target, b"old".to_vec(), Mode::EXEC)
            .unwrap();
        vfs.hardlink(&target, &link).unwrap();
        vfs.create_file(&newcomer, b"new".to_vec(), Mode::EXEC)
            .unwrap();

        // Rename over one of the two names: the other keeps the content.
        vfs.rename(&newcomer, &target).unwrap();
        assert_eq!(vfs.read(&target).unwrap(), b"new");
        assert_eq!(vfs.read(&link).unwrap(), b"old");
    }
}
