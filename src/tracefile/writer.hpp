// Streaming .ecctrace writer.
//
// Buffers records and flushes them as independently CRC-protected chunks
// (format.hpp), so memory stays bounded at ops_per_chunk regardless of
// trace length.  Output is byte-deterministic: the header carries no
// timestamps and the codec no floats, which is what lets CI pin golden
// traces by SHA-256 (the golden rows of scripts/identity_check.sh).
//
// close() appends the footer; a file missing it is detected as truncated
// by every reader.  The destructor closes implicitly but swallows I/O
// errors, so callers that care (everything except stack unwinding) should
// close() explicitly.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "tracefile/format.hpp"

namespace eccsim::tracefile {

/// Cumulative writer-side tallies, exported as tracefile.* stats by
/// sim::SystemSim when recording under --stats.
struct WriterCounters {
  std::uint64_t ops = 0;
  std::uint64_t chunks = 0;
  std::uint64_t payload_bytes = 0;  ///< encoded payload, pre-framing
  std::uint64_t file_bytes = 0;     ///< total bytes written incl. framing
};

class TraceWriter {
 public:
  /// Creates `path` (parent directories included) and writes the header.
  /// Throws TraceError if the file cannot be created.
  TraceWriter(const std::string& path, const TraceMeta& meta,
              std::size_t ops_per_chunk = kDefaultOpsPerChunk);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one pre-LLC record; meta().point must be kPreLlc.
  void append(const trace::MemOp& op, std::uint32_t core);
  /// Appends one post-LLC record; meta().point must be kPostLlc.
  void append(const PostOp& op);

  /// Flushes the partial chunk and writes the footer.  Idempotent.
  /// Throws TraceError if the stream reports failure.
  void close();
  bool closed() const { return closed_; }

  const TraceMeta& meta() const { return meta_; }
  const std::string& path() const { return path_; }
  const WriterCounters& counters() const { return counters_; }

 private:
  void flush_chunk();
  void write_bytes(const std::string& bytes);

  std::string path_;
  TraceMeta meta_;
  std::size_t ops_per_chunk_;
  std::ofstream out_;
  std::vector<PreOp> pre_buf_;
  std::vector<PostOp> post_buf_;
  WriterCounters counters_;
  bool closed_ = false;
};

}  // namespace eccsim::tracefile
