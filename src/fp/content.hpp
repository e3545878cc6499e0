// Deterministic synthetic audio/video content.
//
// The paper's testbed displays real content (antenna broadcast, FAST
// channels, Netflix, an HDMI laptop/console). We cannot ship that, so each
// scenario's screen output is synthesized with the *temporal statistics*
// that drive fingerprint behaviour: scene-change cadence, fraction of
// fully-static intervals (menus, paused screens, desktops), and per-frame
// motion noise. The same generator seeds both the TV's ACR client and the
// server-side content library, so matching genuinely works end-to-end.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "fp/frame.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {

enum class ContentKind {
    kLiveBroadcast,  // linear/antenna channel feed
    kFastChannel,    // internet-streamed linear (Samsung TV+, LG Channels)
    kOttStream,      // third-party app (Netflix/YouTube)
    kHdmiDesktop,    // laptop browsing over HDMI (long static dwell)
    kHdmiConsole,    // gaming console over HDMI (near-constant motion)
    kScreenCast,     // mirrored phone/laptop screen
    kHomeScreen,     // TV launcher UI
    kAdvertisement,  // ad creative inside a break
};

enum class Genre { kNews, kSports, kDrama, kKids, kGaming, kShopping, kOther };

[[nodiscard]] std::string to_string(ContentKind kind);
[[nodiscard]] std::string to_string(Genre genre);

/// Temporal statistics of a content class. These, not hard-coded byte
/// counts, are what make per-scenario ACR traffic differ.
struct ContentDynamics {
    SimTime mean_scene_length = SimTime::seconds(4);
    /// Probability that a scene is fully static (no motion noise at all).
    double static_scene_fraction = 0.02;
    /// Per-frame probability that motion perturbs the frame within a
    /// non-static scene (live video ~1.0; desktops much lower).
    double motion_rate = 1.0;

    [[nodiscard]] static ContentDynamics for_kind(ContentKind kind);
};

/// What the ACR client keeps of one screen capture.
struct CaptureFingerprint {
    VideoHash video = 0;       // dhash of the frame
    std::uint16_t detail = 0;  // frame_detail of the frame
};

/// A deterministic A/V stream: frame and audio content depend only on
/// (seed, time), so the client and the reference library agree bit-for-bit.
class ContentStream {
  public:
    ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width = 36, int height = 16);

    [[nodiscard]] Frame frame_at(SimTime t) const;
    [[nodiscard]] AudioWindow audio_at(SimTime t) const;

    /// {dhash(frame_at(t)), frame_detail(frame_at(t))}, bit for bit, without
    /// building the frame: the scene memo's cell sums and FNV-1a prefix
    /// states are patched with the frame's motion edits.
    [[nodiscard]] CaptureFingerprint fingerprint_at(SimTime t) const;
    /// dhash(frame_at(t)), for callers that never read the detail.
    [[nodiscard]] VideoHash video_hash_at(SimTime t) const;

    /// Index of the scene containing `t` (scene boundaries are part of the
    /// deterministic schedule).
    [[nodiscard]] std::size_t scene_index_at(SimTime t) const;
    [[nodiscard]] bool scene_is_static(std::size_t scene_index) const;
    /// Start time of a scene (0 for the first scene).
    [[nodiscard]] SimTime scene_start(std::size_t scene_index) const;

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] const ContentDynamics& dynamics() const noexcept { return dynamics_; }
    [[nodiscard]] int width() const noexcept { return width_; }
    [[nodiscard]] int height() const noexcept { return height_; }

  private:
    // dhash's downsample grid.
    static constexpr int kGridWidth = 9;
    static constexpr int kGridHeight = 8;
    static constexpr std::size_t kCells = kGridWidth * kGridHeight;

    /// What the motion step makes of frame `t` relative to its scene's base
    /// frame: no pixel, or one or two distinct row-major pixel indices in
    /// ascending order with their new values (the two perturbations of a
    /// frame may land on the same pixel).
    struct MotionEdits {
        int count = 0;
        std::size_t pixel[2] = {};
        std::uint8_t value[2] = {};
    };

    /// Extends the cached scene schedule to cover `t`.
    void ensure_schedule(SimTime t) const;
    /// Rebuilds the scene memo when `scene` is not the memoised one.
    void ensure_scene(std::size_t scene, std::uint64_t scene_seed) const;
    /// Brings the scene memo to the scene of `t` and returns that frame's
    /// motion edits.
    [[nodiscard]] MotionEdits motion_edits(SimTime t) const;
    [[nodiscard]] VideoHash edited_hash(const MotionEdits& edits) const;
    [[nodiscard]] std::uint16_t edited_detail(const MotionEdits& edits) const;

    std::uint64_t seed_;
    ContentDynamics dynamics_;
    int width_;
    int height_;
    // Lazily-grown deterministic scene schedule: start time of scene i+1.
    mutable std::vector<SimTime> scene_ends_;
    mutable Rng schedule_rng_;
    // Onset-aligned audio windows are scene-constant: cache the analysis.
    mutable std::vector<std::pair<std::size_t, AudioWindow>> audio_cache_;
    // dhash cell (gx, gy) pools [cell_x0_[gx], cell_x1_[gx]) x
    // [cell_y0_[gy], cell_y1_[gy]), as downsample() bounds it; cells overlap
    // when the grid is wider or taller than the frame.
    std::array<int, kGridWidth> cell_x0_{};
    std::array<int, kGridWidth> cell_x1_{};
    std::array<int, kGridHeight> cell_y0_{};
    std::array<int, kGridHeight> cell_y1_{};
    // A scene's motion-free frame depends only on (seed, scene), and a frame
    // differs from it in at most two pixels. The memo keeps the last scene's
    // base frame, its dhash cell sums, cell values and hash, and (built on
    // the first fingerprint_at of the scene) the FNV-1a state of
    // frame_detail before each pixel.
    mutable std::size_t frame_scene_ = 0;
    mutable Frame frame_base_;
    mutable std::array<int, kCells> cell_sum_{};
    mutable std::array<std::uint8_t, kCells> cell_value_{};
    mutable VideoHash base_hash_ = 0;
    mutable std::vector<std::uint32_t> fnv_prefix_;
};

/// Catalog entry for the ACR backend's reference library.
struct ContentInfo {
    std::uint64_t id = 0;
    std::string title;
    Genre genre = Genre::kOther;
    ContentKind kind = ContentKind::kLiveBroadcast;
    SimTime duration = SimTime::minutes(30);
    std::uint64_t seed = 0;  // drives the ContentStream
    ContentDynamics dynamics;
};

}  // namespace tvacr::fp
