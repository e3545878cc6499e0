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
      schedule_rng_(derive_seed(seed, /*label=*/0x5CEDu)) {
    for (int gx = 0; gx < kGridWidth; ++gx) {
        const auto i = static_cast<std::size_t>(gx);
        cell_x0_[i] = gx * width_ / kGridWidth;
        cell_x1_[i] = std::max((gx + 1) * width_ / kGridWidth, cell_x0_[i] + 1);
    }
    for (int gy = 0; gy < kGridHeight; ++gy) {
        const auto i = static_cast<std::size_t>(gy);
        cell_y0_[i] = gy * height_ / kGridHeight;
        cell_y1_[i] = std::max((gy + 1) * height_ / kGridHeight, cell_y0_[i] + 1);
    }
}

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

namespace {

// frame_detail's FNV-1a.
constexpr std::uint32_t kFnvOffset = 2166136261U;
constexpr std::uint32_t kFnvPrime = 16777619U;

std::uint32_t fnv1a(std::uint32_t h, const std::uint8_t* bytes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint16_t fold_detail(std::uint32_t h) { return static_cast<std::uint16_t>(h ^ (h >> 16)); }

/// dhash's 8 bits of one grid row: bit x is set when cell x is darker than
/// cell x + 1.
std::uint64_t row_bits(const std::uint8_t* row) {
    std::uint64_t bits = 0;
    for (int x = 0; x < 8; ++x) bits |= static_cast<std::uint64_t>(row[x] < row[x + 1]) << x;
    return bits;
}

}  // namespace

void ContentStream::ensure_scene(std::size_t scene, std::uint64_t scene_seed) const {
    if (!frame_base_.luma.empty() && frame_scene_ == scene) return;
    frame_base_ = make_frame(width_, height_);
    // Coarse 4x4 blocks give the frame spatial structure a perceptual hash
    // keys on; the per-pixel fine term adds texture. The block term is drawn
    // once per block, not once per pixel.
    for (int y0 = 0; y0 < height_; y0 += 4) {
        for (int x0 = 0; x0 < width_; x0 += 4) {
            const std::uint64_t block =
                splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x0 / 4) << 16) ^
                           static_cast<std::uint64_t>(y0 / 4));
            const std::uint64_t coarse = (block & 0xFF) * 3;
            for (int y = y0; y < std::min(y0 + 4, height_); ++y) {
                for (int x = x0; x < std::min(x0 + 4, width_); ++x) {
                    const std::uint64_t fine =
                        splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x) << 20) ^
                                   (static_cast<std::uint64_t>(y) << 8) ^ 1);
                    frame_base_.at(x, y) = static_cast<std::uint8_t>((coarse + (fine & 0xFF)) / 4);
                }
            }
        }
    }
    base_hash_ = 0;
    for (std::size_t gy = 0; gy < kGridHeight; ++gy) {
        for (std::size_t gx = 0; gx < kGridWidth; ++gx) {
            int sum = 0;
            for (int y = cell_y0_[gy]; y < cell_y1_[gy]; ++y) {
                for (int x = cell_x0_[gx]; x < cell_x1_[gx]; ++x) sum += frame_base_.at(x, y);
            }
            const std::size_t cell = gy * kGridWidth + gx;
            cell_sum_[cell] = sum;
            cell_value_[cell] = static_cast<std::uint8_t>(
                sum / ((cell_x1_[gx] - cell_x0_[gx]) * (cell_y1_[gy] - cell_y0_[gy])));
        }
        base_hash_ |= row_bits(&cell_value_[gy * kGridWidth]) << (8 * gy);
    }
    fnv_prefix_.clear();
    frame_scene_ = scene;
}

ContentStream::MotionEdits ContentStream::motion_edits(SimTime t) const {
    // Replays frame_at's motion step, merging two perturbations of one pixel.
    const std::size_t scene = scene_index_at(t);
    const std::uint64_t scene_seed = splitmix64(seed_ ^ (scene * 0xD1B54A32D192ED03ULL));
    ensure_scene(scene, scene_seed);
    MotionEdits edits;
    if (scene_is_static(scene)) return edits;
    const std::uint64_t frame_index = static_cast<std::uint64_t>(t.as_millis() / 10);
    const std::uint64_t motion_seed = splitmix64(scene_seed ^ frame_index ^ 0x4070104Eu);
    const double gate = static_cast<double>(splitmix64(motion_seed) >> 11) * 0x1.0p-53;
    if (gate >= dynamics_.motion_rate) return edits;
    std::uint64_t h = motion_seed;
    for (int k = 0; k < 2; ++k) {
        h = splitmix64(h);
        const auto x = static_cast<std::size_t>(h % static_cast<std::uint64_t>(width_));
        const auto y = static_cast<std::size_t>((h >> 16) % static_cast<std::uint64_t>(height_));
        const std::size_t pixel = y * static_cast<std::size_t>(width_) + x;
        if (edits.count == 1 && edits.pixel[0] == pixel) {
            edits.value[0] = static_cast<std::uint8_t>(edits.value[0] + 25);
            continue;
        }
        edits.pixel[edits.count] = pixel;
        edits.value[edits.count] = static_cast<std::uint8_t>(frame_base_.luma[pixel] + 25);
        ++edits.count;
    }
    if (edits.count == 2 && edits.pixel[1] < edits.pixel[0]) {
        std::swap(edits.pixel[0], edits.pixel[1]);
        std::swap(edits.value[0], edits.value[1]);
    }
    return edits;
}

VideoHash ContentStream::edited_hash(const MotionEdits& edits) const {
    // Only the cells covering an edited pixel change. Each is recomputed
    // once, from its base sum and the deltas of every edit inside it.
    int x[2] = {};
    int y[2] = {};
    int delta[2] = {};
    for (int k = 0; k < edits.count; ++k) {
        x[k] = static_cast<int>(edits.pixel[k] % static_cast<std::size_t>(width_));
        y[k] = static_cast<int>(edits.pixel[k] / static_cast<std::size_t>(width_));
        delta[k] = edits.value[k] - frame_base_.luma[edits.pixel[k]];
    }
    const auto covers = [&](int k, std::size_t gx, std::size_t gy) {
        return x[k] >= cell_x0_[gx] && x[k] < cell_x1_[gx] && y[k] >= cell_y0_[gy] &&
               y[k] < cell_y1_[gy];
    };
    std::array<std::uint8_t, kCells> value = cell_value_;
    unsigned changed_rows = 0;
    for (int k = 0; k < edits.count; ++k) {
        for (std::size_t gy = 0; gy < kGridHeight; ++gy) {
            if (y[k] < cell_y0_[gy] || y[k] >= cell_y1_[gy]) continue;
            for (std::size_t gx = 0; gx < kGridWidth; ++gx) {
                if (x[k] < cell_x0_[gx] || x[k] >= cell_x1_[gx]) continue;
                if (k == 1 && covers(0, gx, gy)) continue;  // updated with edit 0
                const std::size_t cell = gy * kGridWidth + gx;
                int sum = cell_sum_[cell] + delta[k];
                if (k == 0 && edits.count == 2 && covers(1, gx, gy)) sum += delta[1];
                value[cell] = static_cast<std::uint8_t>(
                    sum / ((cell_x1_[gx] - cell_x0_[gx]) * (cell_y1_[gy] - cell_y0_[gy])));
                changed_rows |= 1U << gy;
            }
        }
    }
    VideoHash hash = base_hash_;
    for (std::size_t gy = 0; gy < kGridHeight; ++gy) {
        if (((changed_rows >> gy) & 1U) == 0) continue;
        hash = (hash & ~(VideoHash{0xFF} << (8 * gy))) |
               (row_bits(&value[gy * kGridWidth]) << (8 * gy));
    }
    return hash;
}

std::uint16_t ContentStream::edited_detail(const MotionEdits& edits) const {
    const std::uint8_t* base = frame_base_.luma.data();
    const std::size_t size = frame_base_.luma.size();
    if (fnv_prefix_.empty()) {
        fnv_prefix_.resize(size + 1);
        fnv_prefix_[0] = kFnvOffset;
        for (std::size_t i = 0; i < size; ++i) {
            fnv_prefix_[i + 1] = fnv1a(fnv_prefix_[i], base + i, 1);
        }
    }
    if (edits.count == 0) return fold_detail(fnv_prefix_[size]);
    // FNV-1a folds one byte at a time through a multiply, so no state after
    // an edited pixel can be reused: resume at the first edit and fold the
    // rest of the plane.
    std::size_t at = edits.pixel[0];
    std::uint32_t h = fnv_prefix_[at];
    for (int k = 0; k < edits.count; ++k) {
        h = fnv1a(h, base + at, edits.pixel[k] - at);
        h = fnv1a(h, &edits.value[k], 1);
        at = edits.pixel[k] + 1;
    }
    return fold_detail(fnv1a(h, base + at, size - at));
}

Frame ContentStream::frame_at(SimTime t) const {
    const std::size_t scene = scene_index_at(t);
    const std::uint64_t scene_seed = splitmix64(seed_ ^ (scene * 0xD1B54A32D192ED03ULL));
    ensure_scene(scene, scene_seed);
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

CaptureFingerprint ContentStream::fingerprint_at(SimTime t) const {
    const MotionEdits edits = motion_edits(t);
    return {edited_hash(edits), edited_detail(edits)};
}

VideoHash ContentStream::video_hash_at(SimTime t) const {
    return edited_hash(motion_edits(t));
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
