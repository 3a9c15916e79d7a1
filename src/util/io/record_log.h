// util/io/record_log.h -- CRC32C-framed append-only record log, the storage
// primitive under both the write-ahead batch journal (serve/journal.h) and
// the checkpoint files (serve/checkpoint.h). DESIGN.md S14 documents the
// format and the crash-consistency argument.
//
// On-disk frame, little-endian, no alignment padding:
//
//     [u32 payload_len][u32 crc32c(payload)][payload_len bytes]
//
// A log is a sequence of frames; the *valid prefix* is the longest run of
// frames from offset 0 whose lengths are sane, whose bytes are all present,
// and whose checksums match. Everything after the valid prefix is garbage by
// definition -- a torn append (crash mid-write), a corrupted tail, or noise
// from a recycled block -- and both ends of the API treat it that way:
//
//   * RecordWriter::open() scans the existing file, ftruncate()s it to the
//     valid prefix, and appends from there. A crash that tore the last
//     record therefore heals on the next open instead of poisoning the log.
//   * RecordReader::next() returns records sequentially and reports
//     end-of-log at the first invalid frame (standard WAL semantics: a bad
//     frame terminates replay, it never aborts the process).
//
// Durability contract: append() only buffers into the OS page cache;
// sync() (fdatasync) is the group-commit barrier. The journal layer above
// decides *when* to call sync() -- that is the whole off/async/commit
// policy knob -- so this layer deliberately has no policy of its own.
//
// Fault-injection hooks: AppendFault lets the caller (serve/journal.h, when
// a PARMATCH_FI_* knob is set) flip a payload byte after the CRC was
// computed, or write only a prefix of the frame, exercising exactly the
// corruption classes the open-time scan must tolerate.
//
// POSIX-only by design (open/pread/write/fdatasync/ftruncate); the repo's
// toolchain and CI are Linux. No allocation on the append hot path after
// the frame scratch buffer reaches steady-state size.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "crc32c.h"

namespace parmatch::util::io {

// Frames larger than this are treated as corruption by the prefix scan: a
// torn length field can decode as anything, and without a cap a 4 GiB
// garbage length would make the scan "wait" for bytes that never existed.
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 28;  // 256 MiB

inline constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

namespace detail {

// Full-write loop: POSIX write() may write short; loop until done or error.
inline bool write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

inline bool read_exact(int fd, std::uint64_t off, void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF before len bytes
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// Longest valid frame prefix of the file at `fd` (see file comment).
// Returns the byte offset one past the last valid frame; `nrecords` gets
// the number of valid frames. O(file) with one payload read per frame.
inline std::uint64_t scan_valid_prefix(int fd, std::uint64_t file_size,
                                       std::uint64_t* nrecords = nullptr) {
  std::uint64_t off = 0, count = 0;
  std::vector<unsigned char> payload;
  while (off + kFrameHeaderBytes <= file_size) {
    std::uint32_t hdr[2];
    if (!read_exact(fd, off, hdr, sizeof hdr)) break;
    const std::uint32_t len = hdr[0], crc = hdr[1];
    if (len > kMaxRecordBytes) break;
    if (off + kFrameHeaderBytes + len > file_size) break;  // torn payload
    payload.resize(len);
    if (len > 0 && !read_exact(fd, off + kFrameHeaderBytes, payload.data(), len))
      break;
    if (crc32c(payload.data(), len) != crc) break;
    off += kFrameHeaderBytes + len;
    ++count;
  }
  if (nrecords) *nrecords = count;
  return off;
}

}  // namespace detail

// Optional corruption to apply to a single append (fault injection only).
struct AppendFault {
  // Flip one bit-complemented byte of the payload at this index, *after*
  // the CRC was computed over the clean payload (checksum mismatch on read).
  std::int64_t flip_byte = -1;
  // Write only the first `torn_after` bytes of the full frame
  // (header + payload), simulating a crash mid-append.
  std::int64_t torn_after = -1;
};

// Appender with open-time truncate-to-last-valid-record.
class RecordWriter {
 public:
  RecordWriter() = default;
  ~RecordWriter() { close(); }
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  // Opens (creating if absent) `path`, scans the existing contents, and
  // truncates to the valid prefix so appends continue from the last intact
  // record. Returns false on I/O error; `*this` is then closed.
  bool open(const std::string& path) {
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) return false;
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      close();
      return false;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    std::uint64_t nrec = 0;
    const std::uint64_t valid = detail::scan_valid_prefix(fd_, size, &nrec);
    if (valid < size) {
      if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0) {
        close();
        return false;
      }
      truncated_bytes_ = size - valid;
    }
    if (::lseek(fd_, static_cast<off_t>(valid), SEEK_SET) < 0) {
      close();
      return false;
    }
    bytes_ = valid;
    records_ = nrec;
    return true;
  }

  bool is_open() const { return fd_ >= 0; }

  // Appends one framed record. Not durable until sync(). Returns false on
  // I/O error (the log may then hold a torn frame -- exactly the state the
  // next open() heals).
  bool append(const void* payload, std::size_t len,
              const AppendFault* fault = nullptr) {
    if (fd_ < 0 || len > kMaxRecordBytes) return false;
    frame_.resize(kFrameHeaderBytes + len);
    const std::uint32_t len32 = static_cast<std::uint32_t>(len);
    const std::uint32_t crc = crc32c(payload, len);
    std::memcpy(frame_.data(), &len32, 4);
    std::memcpy(frame_.data() + 4, &crc, 4);
    if (len > 0) std::memcpy(frame_.data() + kFrameHeaderBytes, payload, len);
    std::size_t nwrite = frame_.size();
    if (fault) {
      if (fault->flip_byte >= 0 &&
          static_cast<std::uint64_t>(fault->flip_byte) < len)
        frame_[kFrameHeaderBytes + static_cast<std::size_t>(fault->flip_byte)] ^=
            0xFF;
      if (fault->torn_after >= 0 &&
          static_cast<std::size_t>(fault->torn_after) < nwrite)
        nwrite = static_cast<std::size_t>(fault->torn_after);
    }
    if (!detail::write_all(fd_, frame_.data(), nwrite)) return false;
    bytes_ += nwrite;
    ++records_;
    return true;
  }

  // Group-commit barrier: everything appended so far reaches the device
  // (fdatasync -- record frames carry their own integrity check, so file
  // metadata beyond size is not worth a full fsync).
  bool sync() { return fd_ >= 0 && ::fdatasync(fd_) == 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t records() const { return records_; }
  // Bytes discarded by the open-time truncate (0 when the log was clean).
  std::uint64_t truncated_bytes() const { return truncated_bytes_; }

 private:
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  std::vector<unsigned char> frame_;
};

// Sequential reader; next() yields payloads until the first invalid frame.
class RecordReader {
 public:
  RecordReader() = default;
  ~RecordReader() { close(); }
  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  bool open(const std::string& path) {
    close();
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return false;
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      close();
      return false;
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    off_ = 0;
    return true;
  }

  bool is_open() const { return fd_ >= 0; }

  // Reads the next record's payload into `out`, as bytes (the journal) or
  // as whole words (a checkpoint reads u64s it can view in place). Returns
  // false at end of log -- including at the first torn or corrupt frame,
  // whose bytes are deliberately indistinguishable from "no more records",
  // and at a payload that is not a whole number of T.
  template <class T>
  bool next(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (fd_ < 0 || off_ + kFrameHeaderBytes > size_) return false;
    std::uint32_t hdr[2];
    if (!detail::read_exact(fd_, off_, hdr, sizeof hdr)) return false;
    const std::uint32_t len = hdr[0], crc = hdr[1];
    if (len > kMaxRecordBytes || len % sizeof(T) != 0) return false;
    if (off_ + kFrameHeaderBytes + len > size_) return false;
    out.resize(len / sizeof(T));
    if (len > 0 &&
        !detail::read_exact(fd_, off_ + kFrameHeaderBytes, out.data(), len))
      return false;
    if (crc32c(out.data(), len) != crc) return false;
    off_ += kFrameHeaderBytes + len;
    ++records_read_;
    return true;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint64_t records_read() const { return records_read_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t off_ = 0;
  std::uint64_t records_read_ = 0;
};

}  // namespace parmatch::util::io
