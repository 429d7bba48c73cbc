//! Framed binary images — the one on-disk layout of this workspace:
//!
//! ```text
//! magic (4 bytes) | version (u32 LE) | payload | FNV-1a of all before (u64 LE)
//! ```
//!
//! The cost-model cache snapshot (`MLRC`) and the network weight snapshot
//! (`MLRW`) differ only in their payload. A writer [`begin`]s an image,
//! appends its payload and [`seal`]s it; a reader [`open`]s it — length,
//! checksum, magic and version are all checked before the first payload
//! byte is handed out — and decodes through the bounds-checked [`Reader`],
//! so no declared length can index past the image. [`write_atomic`] is how
//! an image reaches a file. Like [`Fnv1a`], the frame guards against
//! accidents (truncation, bit rot, a torn write), not adversaries.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Fnv1a;

const HEADER: usize = 8;
const TRAILER: usize = 8;

/// Why an image was refused. Nothing is decoded from a refused image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than header + trailer, or the payload ended before a read.
    Truncated,
    /// The trailer is not the FNV-1a hash of the bytes before it.
    Checksum,
    /// The first four bytes are not the expected magic tag.
    BadMagic,
    /// The image declares this version, not the expected one.
    BadVersion(u32),
    /// Payload bytes remain after the decoder read everything it expected.
    Trailing,
}

impl FrameError {
    /// The refusal in words.
    pub fn what(self) -> &'static str {
        match self {
            Self::Truncated => "image truncated",
            Self::Checksum => "checksum mismatch",
            Self::BadMagic => "bad magic",
            Self::BadVersion(_) => "unknown format version",
            Self::Trailing => "trailing bytes after the payload",
        }
    }
}

/// Starts an image: the header, ready for the payload to be appended.
pub fn begin(magic: [u8; 4], version: u32) -> Vec<u8> {
    let mut image = Vec::with_capacity(64);
    image.extend_from_slice(&magic);
    image.extend_from_slice(&version.to_le_bytes());
    image
}

/// Finishes an image started by [`begin`]: appends the checksum trailer.
pub fn seal(mut image: Vec<u8>) -> Vec<u8> {
    let checksum = Fnv1a::hash(&image);
    image.extend_from_slice(&checksum.to_le_bytes());
    image
}

/// Validates the frame of `image` and returns a reader over its payload.
pub fn open(image: &[u8], magic: [u8; 4], version: u32) -> Result<Reader<'_>, FrameError> {
    if image.len() < HEADER + TRAILER {
        return Err(FrameError::Truncated);
    }
    let (body, trailer) = image.split_at(image.len() - TRAILER);
    if Fnv1a::hash(body) != u64::from_le_bytes(trailer.try_into().expect("8-byte trailer")) {
        return Err(FrameError::Checksum);
    }
    let mut reader = Reader(body);
    if reader.take(4)? != magic {
        return Err(FrameError::BadMagic);
    }
    let found = reader.u32()?;
    if found != version {
        return Err(FrameError::BadVersion(found));
    }
    Ok(reader)
}

/// Bounds-checked little-endian reader over an opened image's payload.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes, or [`FrameError::Truncated`] if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.0.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    /// The next `f64`, from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Payload bytes not yet read — the bound to hold a declared count
    /// against before allocating for it.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Ends decoding: [`FrameError::Trailing`] unless every byte was read.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Trailing)
        }
    }
}

/// Writes `image` to `path` so that `path` always holds one whole image,
/// the old or the new: the bytes go to a temporary sibling in the same
/// directory, are flushed to disk and then renamed over `path`. The
/// sibling is named per call (process id + a process-wide counter), so two
/// writers of one path — in one process or two — never share it. On any
/// error the sibling is removed and `path` is untouched.
pub fn write_atomic(path: &Path, image: &[u8]) -> std::io::Result<()> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = PathBuf::from(temp);
    let written = File::create(&temp).and_then(|mut file| {
        file.write_all(image)?;
        file.sync_all()?;
        std::fs::rename(&temp, path)
    });
    if let Err(err) = written {
        std::fs::remove_file(&temp).ok();
        return Err(err);
    }
    // Best effort: make the rename itself durable. Whether or not this
    // succeeds, `path` holds one whole image.
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        dir.sync_all().ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Vec<u8> {
        let mut image = begin(*b"TEST", 3);
        image.extend_from_slice(&7u64.to_le_bytes());
        image.push(9);
        seal(image)
    }

    #[test]
    fn a_sealed_image_opens_and_reads_back() {
        let image = image();
        let mut reader = open(&image, *b"TEST", 3).expect("valid frame");
        assert_eq!(reader.remaining(), 9);
        assert_eq!(reader.u64(), Ok(7));
        assert_eq!(reader.finish(), Err(FrameError::Trailing));
        assert_eq!(reader.u8(), Ok(9));
        assert_eq!(reader.u8(), Err(FrameError::Truncated));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn the_frame_is_checked_in_order_length_checksum_magic_version() {
        let image = image();
        let refused = |bytes: &[u8]| open(bytes, *b"TEST", 3).expect_err("refused");
        for len in 0..image.len() {
            let want = if len < HEADER + TRAILER {
                FrameError::Truncated
            } else {
                FrameError::Checksum
            };
            assert_eq!(refused(&image[..len]), want, "cut at {len}");
        }
        for at in 0..image.len() {
            let mut flipped = image.clone();
            flipped[at] ^= 0x20;
            assert_eq!(refused(&flipped), FrameError::Checksum, "flip at {at}");
        }
        assert_eq!(
            open(&image, *b"TSET", 3).expect_err("magic"),
            FrameError::BadMagic
        );
        assert_eq!(
            open(&image, *b"TEST", 4).expect_err("version"),
            FrameError::BadVersion(3)
        );
    }

    #[test]
    fn concurrent_writers_of_one_path_leave_one_whole_image() {
        let dir = std::env::temp_dir().join(format!("mlir-rl-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let path = dir.join("image");
        let images: Vec<Vec<u8>> = (0..4u8)
            .map(|i| {
                let mut image = begin(*b"TEST", 3);
                image.extend(std::iter::repeat_n(i, 1 << 16));
                seal(image)
            })
            .collect();
        let barrier = std::sync::Barrier::new(images.len());
        std::thread::scope(|scope| {
            for image in &images {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..8 {
                        write_atomic(&path, image).expect("write");
                        // Every reader in between sees a whole image too.
                        let seen = std::fs::read(&path).expect("published");
                        open(&seen, *b"TEST", 3).expect("never half-written");
                    }
                });
            }
        });
        let last = std::fs::read(&path).expect("published");
        assert!(images.contains(&last));
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch directory")
            .map(|entry| entry.expect("entry").file_name())
            .collect();
        assert_eq!(left, ["image"], "no temp sibling survives");
        std::fs::remove_dir_all(&dir).ok();
    }
}
