// The one genome a gnumapd serves: its resident MappingSession plus the
// storage the session borrows.
//
// A daemon maps exactly one genome (DESIGN.md §13).  The loader builds it
// from an externally owned Genome — the hash index is built in process —
// or from a fleet index file (index_file.hpp), which is mmap()ed for an
// instant start.  Either source is served whole or as shard I of N: the
// index then covers the shard's store range (core range plus the overlap
// margin) and mapping is restricted to diagonals in the core range.
//
// An index file is checked against the daemon before anything serves from
// it.  A file built with another k, over another shard's store range, or
// as a shard file on a whole-genome daemon is refused with a typed
// ConfigError; a damaged file is refused with the loader's ParseError.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gnumap/core/config.hpp"
#include "gnumap/core/session.hpp"
#include "gnumap/fleet/index_file.hpp"
#include "gnumap/genome/genome.hpp"

namespace gnumap::fleet {

/// Shard mode: the daemon owns segment `index` of `count` (index < 0 =
/// whole-genome daemon).
struct ShardSpec {
  int index = -1;
  int count = 0;
  /// Longest read the shard overlap margin must absorb.
  std::uint32_t max_read_len = 512;
};

/// The shard overlap margin for `config`: the longest read plus window pad
/// plus seeder band slack — every genome window the PHMM would extract for
/// a candidate whose diagonal a shard owns lies within its store range.
std::uint64_t shard_margin(const PipelineConfig& config,
                           std::uint32_t shard_max_read_len);

class ResidentGenome {
 public:
  /// Builds the index over `genome` in process (gnumapd --ref, tests,
  /// perfbench).  `genome` must outlive the result.
  static ResidentGenome build(const Genome& genome,
                              const PipelineConfig& config,
                              const ShardSpec& shard = {});

  /// Maps a gnumap_index file (gnumapd --index).  Throws ParseError for a
  /// damaged file and ConfigError for one this daemon cannot serve.
  static ResidentGenome load(const std::string& index_path,
                             const PipelineConfig& config,
                             const ShardSpec& shard = {});

  const MappingSession& session() const { return *session_; }
  /// Shard ownership in global coordinates; [0, 0) = whole genome.
  GenomePos core_begin() const { return core_begin_; }
  GenomePos core_end() const { return core_end_; }
  /// Genome array plus index arrays (the file size for an index file).
  std::uint64_t resident_bytes() const { return resident_bytes_; }
  /// Wall-clock seconds the index build or the index-file load took.
  double load_seconds() const { return session_->index_seconds(); }

 private:
  /// The one loader: `loaded` is null when `genome` is external, else it
  /// owns `genome` and the index to validate and adopt.
  ResidentGenome(const Genome& genome, std::unique_ptr<LoadedIndex> loaded,
                 const std::string& index_path, const PipelineConfig& config,
                 const ShardSpec& shard);

  std::unique_ptr<LoadedIndex> loaded_;  ///< heap-stable: session borrows it
  std::unique_ptr<MappingSession> session_;
  GenomePos core_begin_ = 0;
  GenomePos core_end_ = 0;
  std::uint64_t resident_bytes_ = 0;
};

}  // namespace gnumap::fleet
