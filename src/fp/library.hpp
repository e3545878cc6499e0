// Server-side content library: the database of known content (movies, ads,
// live feeds) that uploaded fingerprints are matched against (Figure 1).
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fp/content.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {

/// Reads are not thread-safe: reference_audio_at() advances its entry's
/// stream memo, so a library must be read from one thread at a time (every
/// testbed owns its library on its simulator thread).
class ContentLibrary {
  public:
    /// Reference fingerprints are sampled at this cadence.
    static constexpr SimTime kReferencePeriod = SimTime::millis(500);

    /// Registers content and precomputes its reference hash track.
    void add(const ContentInfo& info);

    [[nodiscard]] const ContentInfo* find(std::uint64_t content_id) const;
    [[nodiscard]] std::span<const VideoHash> reference_hashes(std::uint64_t content_id) const;
    /// audio_hash of the reference audio at `step` x kReferencePeriod,
    /// computed on demand (only Samsung batches carry audio, and the matcher
    /// probes a few steps of the winning content). 0, which no audio_hash
    /// equals, for an unknown id or a step outside the hash track.
    [[nodiscard]] std::uint32_t reference_audio_at(std::uint64_t content_id,
                                                   std::int64_t step) const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

    struct Entry {
        ContentInfo info;
        ContentStream stream;           // info's stream, kept for its audio
        std::vector<VideoHash> hashes;  // one per kReferencePeriod step
    };
    [[nodiscard]] const std::unordered_map<std::uint64_t, Entry>& entries() const noexcept {
        return entries_;
    }

  private:
    std::unordered_map<std::uint64_t, Entry> entries_;
};

/// A small builtin catalog spanning the genres and kinds the scenarios use;
/// deterministic given `seed`.
[[nodiscard]] std::vector<ContentInfo> builtin_catalog(std::uint64_t seed);

}  // namespace tvacr::fp
