// Write-ahead log + snapshot codecs for KvStore durability (DESIGN.md §12.4).
//
// Layout on disk (one directory per store, `Options::wal_dir`):
//   <dir>/wal       append-only mutation log
//   <dir>/snapshot  full-state checkpoint (written atomically via tmp+rename)
//
// WAL file:
//   header  "VCWAL001" | i64 start_revision
//   record* u32 payload_len | payload | u32 crc32(payload)
//   payload u8 type (1=put 2=delete) | i64 revision | u32 klen | u32 vlen
//           | key bytes | value bytes
// Records are strictly revision-ordered (the store mints each revision and
// appends its record under one commit lock). Recovery reads until EOF, a short read, or a CRC
// mismatch — everything after the first damaged record is a torn tail from a
// crash mid-write and is discarded, making the recovered state an exact
// prefix of the committed history.
//
// Snapshot file:
//   header  "VCSNAP01" | i64 revision | i64 compacted | u64 entry_count
//   entry*  u32 klen | u32 vlen | i64 create_revision | i64 mod_revision
//           | i64 version | key bytes | value bytes | u32 crc32(entry bytes)
//
// Writer performs no internal buffering: the store batches records itself
// (Options::wal_buffer_bytes) and hands one encoded batch to WriteBatch(),
// which issues a single write(2). That keeps "crash" semantics honest in
// tests — abandoning the store drops exactly the un-flushed batches, while
// everything already flushed survives byte-exact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "kv/kvstore.h"

namespace vc::kv::wal {

inline constexpr char kWalFile[] = "wal";
inline constexpr char kSnapshotFile[] = "snapshot";

// CRC-32 (IEEE, reflected) over `n` bytes. Chainable via `seed`.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

struct Record {
  uint8_t type = 1;  // 1 = put, 2 = delete
  int64_t revision = 0;
  std::string key;
  Blob value;  // shares the store's allocation; empty for deletes
};

// Appends the wire encoding of `r` to `out`.
void EncodeRecord(const Record& r, std::string* out);

// Append-only WAL file handle. NOT thread-safe; the store serializes all
// calls under its WAL IO mutex.
class Writer {
 public:
  // Opens (creating the directory entry if needed) for appending. When
  // `truncate` is true, or the file is missing/empty, the file is reset to a
  // fresh header carrying `start_revision`; otherwise the existing header is
  // validated and kept.
  static Result<std::unique_ptr<Writer>> Open(const std::string& path,
                                              int64_t start_revision,
                                              bool truncate);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // One write(2) of an already-encoded run of records.
  Status WriteBatch(const std::string& bytes);

  size_t file_bytes() const { return file_bytes_; }
  int64_t start_revision() const { return start_revision_; }

 private:
  Writer(int fd, size_t file_bytes, int64_t start_revision)
      : fd_(fd), file_bytes_(file_bytes), start_revision_(start_revision) {}

  int fd_ = -1;
  size_t file_bytes_ = 0;
  int64_t start_revision_ = 0;
};

struct ReplayStats {
  int64_t start_revision = 0;  // from the header
  size_t records = 0;
  // True when the file ended in a damaged record (crash mid-append); the
  // damaged suffix was ignored.
  bool torn_tail = false;
};

// Streams every intact record (in file order) into `fn`. A missing file
// replays zero records successfully. Fails only on IO errors or a corrupt
// header — a torn tail is normal crash debris and reported via the stats.
Result<ReplayStats> Replay(const std::string& path,
                           const std::function<void(Record)>& fn);

struct SnapshotData {
  int64_t revision = 0;
  int64_t compacted = 0;
  std::vector<Entry> entries;
};

// Writes atomically: encode to <path>.tmp, then rename over <path>.
Status WriteSnapshot(const std::string& path, const SnapshotData& snap);

// Reads a snapshot written by WriteSnapshot. Missing file → ok() result with
// revision 0 and no entries. Any damage → error (snapshots are written
// atomically, so unlike the WAL a partial snapshot means real corruption).
Result<SnapshotData> ReadSnapshot(const std::string& path);

}  // namespace vc::kv::wal
