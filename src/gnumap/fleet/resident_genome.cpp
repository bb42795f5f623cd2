#include "gnumap/fleet/resident_genome.hpp"

#include <optional>
#include <utility>

#include "gnumap/genome/partition.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::fleet {

namespace {

std::uint64_t index_bytes(const HashIndex& index) {
  return index.offsets_span().size() * sizeof(std::uint64_t) +
         index.positions_span().size() * sizeof(GenomePos) +
         index.mask_span().size();
}

std::string range_text(GenomePos begin, GenomePos end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
}

}  // namespace

std::uint64_t shard_margin(const PipelineConfig& config,
                           std::uint32_t shard_max_read_len) {
  return static_cast<std::uint64_t>(shard_max_read_len) +
         static_cast<std::uint64_t>(config.window_pad) +
         static_cast<std::uint64_t>(config.seeder.band_width);
}

ResidentGenome ResidentGenome::build(const Genome& genome,
                                     const PipelineConfig& config,
                                     const ShardSpec& shard) {
  return ResidentGenome(genome, nullptr, "", config, shard);
}

ResidentGenome ResidentGenome::load(const std::string& index_path,
                                    const PipelineConfig& config,
                                    const ShardSpec& shard) {
  auto loaded = std::make_unique<LoadedIndex>(load_index_file(index_path));
  const Genome& genome = loaded->genome;  // heap-stable across the move
  return ResidentGenome(genome, std::move(loaded), index_path, config, shard);
}

ResidentGenome::ResidentGenome(const Genome& genome,
                               std::unique_ptr<LoadedIndex> loaded,
                               const std::string& index_path,
                               const PipelineConfig& config,
                               const ShardSpec& shard)
    : loaded_(std::move(loaded)) {
  std::optional<GenomeSegment> segment;
  if (shard.index >= 0) {
    require(shard.count > shard.index,
            "shard " + std::to_string(shard.index) + "/" +
                std::to_string(shard.count) +
                ": shard index must be < shard count");
    segment = partition_genome(genome, shard.count,
                               shard_margin(config, shard.max_read_len))
        [static_cast<std::size_t>(shard.index)];
    core_begin_ = segment->core_begin;
    core_end_ = segment->core_end;
  }

  if (loaded_ != nullptr) {
    const IndexFileInfo& info = loaded_->info;
    const std::string what = "fleet index " + index_path + ": ";
    require(info.k == config.index.k,
            what + "built with k=" + std::to_string(info.k) +
                " but the daemon runs k=" + std::to_string(config.index.k));
    if (segment.has_value()) {
      require(info.build_begin == segment->store_begin &&
                  info.build_end == segment->store_end,
              what + "built over " +
                  range_text(info.build_begin, info.build_end) + " but shard " +
                  std::to_string(shard.index) + "/" +
                  std::to_string(shard.count) + " stores " +
                  range_text(segment->store_begin, segment->store_end));
    } else {
      require(info.build_begin == 0 && info.build_end == 0,
              what + "is a shard index (build range " +
                  range_text(info.build_begin, info.build_end) +
                  ") but this daemon is not in shard mode");
    }
    // The session adopts the HashIndex by move; its spans keep viewing the
    // mmap inside loaded_->file, which this object keeps alive.
    session_ = std::make_unique<MappingSession>(
        genome, config, std::move(loaded_->index), loaded_->load_seconds);
  } else if (segment.has_value()) {
    Timer timer;
    HashIndex index = HashIndex::build_shard(
        genome, config.index, segment->store_begin, segment->store_end);
    session_ = std::make_unique<MappingSession>(genome, config,
                                                std::move(index),
                                                timer.seconds());
  } else {
    session_ = std::make_unique<MappingSession>(genome, config);
  }
  resident_bytes_ =
      loaded_ != nullptr
          ? loaded_->info.file_bytes
          : genome.padded_size() + index_bytes(session_->index());

  obs::registry()
      .gauge("gnumap_index_load_seconds",
             "Wall-clock seconds the most recent index load/build took")
      .set(load_seconds());
}

}  // namespace gnumap::fleet
