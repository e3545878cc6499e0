#include "fp/content.hpp"

#include "fp/audio.hpp"

#include <algorithm>
#include <cmath>

namespace tvacr::fp {

std::string to_string(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast: return "live-broadcast";
        case ContentKind::kFastChannel: return "fast-channel";
        case ContentKind::kOttStream: return "ott-stream";
        case ContentKind::kHdmiDesktop: return "hdmi-desktop";
        case ContentKind::kHdmiConsole: return "hdmi-console";
        case ContentKind::kScreenCast: return "screen-cast";
        case ContentKind::kHomeScreen: return "home-screen";
        case ContentKind::kAdvertisement: return "advertisement";
    }
    return "unknown";
}

std::string to_string(Genre genre) {
    switch (genre) {
        case Genre::kNews: return "news";
        case Genre::kSports: return "sports";
        case Genre::kDrama: return "drama";
        case Genre::kKids: return "kids";
        case Genre::kGaming: return "gaming";
        case Genre::kShopping: return "shopping";
        case Genre::kOther: return "other";
    }
    return "unknown";
}

ContentDynamics ContentDynamics::for_kind(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast:
            // Fast cutting with ad breaks: short scenes, almost never static.
            return {SimTime::millis(3500), 0.02, 1.0};
        case ContentKind::kFastChannel:
            // FAST carries even more ad creative than linear: slightly
            // shorter scenes.
            return {SimTime::millis(3000), 0.02, 1.0};
        case ContentKind::kOttStream:
            return {SimTime::millis(4500), 0.03, 1.0};
        case ContentKind::kHdmiDesktop:
            // Laptop browsing: long dwell on pages, frequent fully static
            // intervals, sparse motion while reading.
            return {SimTime::seconds(9), 0.20, 0.45};
        case ContentKind::kHdmiConsole:
            // Console gameplay: HUD-heavy but in near-constant motion.
            return {SimTime::seconds(6), 0.05, 0.82};
        case ContentKind::kScreenCast:
            return {SimTime::seconds(7), 0.25, 0.7};
        case ContentKind::kHomeScreen:
            // Launcher: essentially a still image with a rare carousel tick.
            return {SimTime::seconds(45), 0.90, 0.05};
        case ContentKind::kAdvertisement:
            return {SimTime::millis(1800), 0.01, 1.0};
    }
    return {};
}

ContentStream::ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width, int height)
    : seed_(seed),
      dynamics_(dynamics),
      width_(width),
      height_(height),
      schedule_rng_(derive_seed(seed, /*label=*/0x5CEDu)) {}

void ContentStream::ensure_schedule(SimTime t) const {
    while (scene_ends_.empty() || scene_ends_.back() <= t) {
        const SimTime previous_end = scene_ends_.empty() ? SimTime{} : scene_ends_.back();
        // Scene lengths: exponential-ish around the mean, floored at 400 ms.
        const double mean_us = static_cast<double>(dynamics_.mean_scene_length.as_micros());
        double draw = -mean_us * std::log(1.0 - schedule_rng_.uniform01());
        draw = std::max(draw, 400'000.0);
        scene_ends_.push_back(previous_end + SimTime::micros(static_cast<std::int64_t>(draw)));
    }
}

std::size_t ContentStream::scene_index_at(SimTime t) const {
    ensure_schedule(t);
    const auto it = std::upper_bound(scene_ends_.begin(), scene_ends_.end(), t);
    return static_cast<std::size_t>(it - scene_ends_.begin());
}

bool ContentStream::scene_is_static(std::size_t scene_index) const {
    const std::uint64_t h = splitmix64(seed_ ^ (scene_index * 0x9E3779B97F4A7C15ULL) ^ 0x57A7);
    return (static_cast<double>(h >> 11) * 0x1.0p-53) < dynamics_.static_scene_fraction;
}

Frame ContentStream::frame_at(SimTime t) const {
    const std::size_t scene = scene_index_at(t);
    const std::uint64_t scene_seed = splitmix64(seed_ ^ (scene * 0xD1B54A32D192ED03ULL));

    if (frame_base_.luma.empty() || frame_scene_ != scene) {
        frame_base_ = make_frame(width_, height_);
        for (int y = 0; y < height_; ++y) {
            for (int x = 0; x < width_; ++x) {
                // Coarse blocks give the frame spatial structure a perceptual
                // hash keys on; the fine term adds texture.
                const std::uint64_t block =
                    splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x / 4) << 16) ^
                               static_cast<std::uint64_t>(y / 4));
                const std::uint64_t fine =
                    splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x) << 20) ^
                               (static_cast<std::uint64_t>(y) << 8) ^ 1);
                frame_base_.at(x, y) =
                    static_cast<std::uint8_t>(((block & 0xFF) * 3 + (fine & 0xFF)) / 4);
            }
        }
        frame_scene_ = scene;
    }
    Frame frame = frame_base_;

    // Motion: within non-static scenes, most frames get a handful of
    // deterministic pixel perturbations, so consecutive hashes differ
    // slightly (as real video does) while staying within matching distance
    // of the scene's reference hash.
    if (!scene_is_static(scene)) {
        const std::uint64_t frame_index = static_cast<std::uint64_t>(t.as_millis() / 10);
        const std::uint64_t motion_seed = splitmix64(scene_seed ^ frame_index ^ 0x4070104Eu);
        const double gate = static_cast<double>(splitmix64(motion_seed) >> 11) * 0x1.0p-53;
        if (gate < dynamics_.motion_rate) {
            // Perceptually small perturbation: two pixels shift slightly, so
            // the perceptual hash moves by at most a couple of bits (real
            // ACR hashes are similarly robust to inter-frame motion) while
            // the fine-grained frame digest always changes.
            std::uint64_t h = motion_seed;
            for (int k = 0; k < 2; ++k) {
                h = splitmix64(h);
                const int x = static_cast<int>(h % static_cast<std::uint64_t>(width_));
                const int y = static_cast<int>((h >> 16) % static_cast<std::uint64_t>(height_));
                frame.at(x, y) = static_cast<std::uint8_t>(frame.at(x, y) + 25);
            }
        }
    }
    return frame;
}

SimTime ContentStream::scene_start(std::size_t scene_index) const {
    if (scene_index == 0) return SimTime{};
    ensure_schedule(SimTime{});
    while (scene_ends_.size() < scene_index) ensure_schedule(scene_ends_.back());
    return scene_ends_[scene_index - 1];
}

AudioWindow ContentStream::audio_at(SimTime t) const {
    // The client aligns its analysis window to the last audio onset (the
    // scene boundary), so captures within one scene analyze the same window
    // — a real PCM -> Goertzel filter-bank pass, not a lookup table.
    const std::size_t scene = scene_index_at(t);
    for (const auto& [cached_scene, window] : audio_cache_) {
        if (cached_scene == scene) return window;
    }
    const PcmChunk pcm = synthesize_audio(*this, scene_start(scene), SimTime::millis(100));
    const AudioWindow window = analyze_window(pcm.samples);
    if (audio_cache_.size() >= 8) audio_cache_.erase(audio_cache_.begin());
    audio_cache_.emplace_back(scene, window);
    return window;
}

}  // namespace tvacr::fp
