// Tests for the audio fingerprinting pipeline: PCM synthesis, the Goertzel
// filter bank, landmark hashing, and audio-only content identification.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "fp/audio.hpp"
#include "fp/library.hpp"

namespace tvacr::fp {
namespace {

ContentStream broadcast_stream(std::uint64_t seed) {
    return ContentStream(seed, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
}

// --------------------------------------------------------------- synthesis

TEST(AudioSynthesisTest, ProducesRequestedDuration) {
    const auto stream = broadcast_stream(1);
    const PcmChunk pcm = synthesize_audio(stream, SimTime{}, SimTime::seconds(2));
    EXPECT_EQ(pcm.samples.size(), 2U * PcmChunk::kSampleRate);
    EXPECT_EQ(pcm.duration(), SimTime::seconds(2));
}

TEST(AudioSynthesisTest, DeterministicAndSeedSensitive) {
    const auto a = synthesize_audio(broadcast_stream(1), SimTime::seconds(3), SimTime::millis(500));
    const auto b = synthesize_audio(broadcast_stream(1), SimTime::seconds(3), SimTime::millis(500));
    const auto c = synthesize_audio(broadcast_stream(2), SimTime::seconds(3), SimTime::millis(500));
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_NE(a.samples, c.samples);
}

TEST(AudioSynthesisTest, BoundedAmplitude) {
    const auto pcm = synthesize_audio(broadcast_stream(5), SimTime{}, SimTime::seconds(1));
    for (const float sample : pcm.samples) {
        EXPECT_LE(std::abs(sample), 1.0F);
    }
}

// Synthesis with the chord and the recurrence coefficients recomputed for
// every 10 ms burst: the specification synthesize_audio() must reproduce bit
// for bit.
PcmChunk synthesize_audio_by_burst(const ContentStream& stream, SimTime t, SimTime duration) {
    constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
    PcmChunk pcm;
    const auto count = static_cast<std::size_t>(duration.as_micros() * PcmChunk::kSampleRate /
                                                1'000'000);
    pcm.samples.resize(count);
    std::size_t i = 0;
    while (i < count) {
        const SimTime now =
            t + SimTime::micros(static_cast<std::int64_t>(i) * 1'000'000 / PcmChunk::kSampleRate);
        const std::size_t scene = stream.scene_index_at(now);
        const std::uint64_t scene_seed =
            splitmix64(stream.seed() ^ (scene * 0x9E3779B97F4A7C15ULL) ^ 0xA0D);
        std::array<double, 4> partials{};
        for (std::size_t p = 0; p < partials.size(); ++p) {
            const double unit = static_cast<double>(splitmix64(scene_seed ^ p) >> 11) * 0x1.0p-53;
            partials[p] = 150.0 * std::pow(4000.0 / 150.0, unit);
        }
        const std::size_t burst = std::min<std::size_t>(count - i, PcmChunk::kSampleRate / 100);
        const double t0_s =
            (t.as_micros() / 1e6) + static_cast<double>(i) / PcmChunk::kSampleRate;
        double coeff[4];
        double s1[4];
        double s2[4];
        for (std::size_t p = 0; p < partials.size(); ++p) {
            const double omega = kTwoPi * partials[p] / PcmChunk::kSampleRate;
            coeff[p] = 2.0 * std::cos(omega);
            s1[p] = std::sin(kTwoPi * partials[p] * t0_s - omega);
            s2[p] = std::sin(kTwoPi * partials[p] * t0_s - 2.0 * omega);
        }
        for (std::size_t k = 0; k < burst; ++k, ++i) {
            double sample = 0.0;
            double amplitude = 0.5;
            for (std::size_t p = 0; p < partials.size(); ++p) {
                const double value = coeff[p] * s1[p] - s2[p];
                s2[p] = s1[p];
                s1[p] = value;
                sample += amplitude * value;
                amplitude *= 0.6;
            }
            pcm.samples[i] = static_cast<float>(sample * 0.4);
        }
    }
    return pcm;
}

TEST(AudioSynthesisTest, SceneHoistBitEqualsPerBurstSynthesis) {
    // Starts inside a burst, spans scene changes, and ends on a partial
    // burst; advertisements change scene every 1.8 s on average.
    for (const ContentKind kind : {ContentKind::kAdvertisement, ContentKind::kHomeScreen}) {
        const ContentStream stream(19, ContentDynamics::for_kind(kind));
        for (const auto& [from_us, length_us] :
             {std::pair<std::int64_t, std::int64_t>{0, 0}, {0, 100'000}, {3'333, 10'001'000},
              {47'000'000, 25'550'000}, {600'000'017, 100'000}}) {
            SCOPED_TRACE(::testing::Message() << to_string(kind) << " from " << from_us << "us");
            const PcmChunk got =
                synthesize_audio(stream, SimTime::micros(from_us), SimTime::micros(length_us));
            const PcmChunk want = synthesize_audio_by_burst(stream, SimTime::micros(from_us),
                                                            SimTime::micros(length_us));
            ASSERT_EQ(got.samples.size(), want.samples.size());
            for (std::size_t i = 0; i < got.samples.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got.samples[i]),
                          std::bit_cast<std::uint32_t>(want.samples[i]))
                    << "sample " << i;
            }
        }
    }
}

// ---------------------------------------------------------------- goertzel

TEST(GoertzelTest, DetectsPureTone) {
    constexpr int kRate = 16000;
    std::vector<float> tone(1600);
    for (std::size_t i = 0; i < tone.size(); ++i) {
        tone[i] = std::sin(2.0F * 3.14159265F * 990.0F * static_cast<float>(i) / kRate);
    }
    const double at_tone = goertzel(tone, 990.0, kRate);
    const double off_tone = goertzel(tone, 2860.0, kRate);
    EXPECT_GT(at_tone, 100.0 * off_tone);
}

TEST(GoertzelTest, SilenceIsZeroEnergy) {
    const std::vector<float> silence(1600, 0.0F);
    EXPECT_DOUBLE_EQ(goertzel(silence, 990.0, 16000), 0.0);
}

TEST(AnalyzeWindowTest, NormalizedToStrongestBand) {
    const auto pcm = synthesize_audio(broadcast_stream(7), SimTime::seconds(1),
                                      SimTime::millis(100));
    const AudioWindow window = analyze_window(pcm.samples);
    float peak = 0.0F;
    for (const float e : window.band_energy) {
        EXPECT_GE(e, 0.0F);
        EXPECT_LE(e, 1.0F);
        peak = std::max(peak, e);
    }
    EXPECT_FLOAT_EQ(peak, 1.0F);
}

TEST(AnalyzeWindowTest, DifferentScenesDifferentSpectra) {
    const auto stream = broadcast_stream(9);
    // Find two distinct scenes.
    const std::size_t first = stream.scene_index_at(SimTime::seconds(1));
    SimTime later = SimTime::seconds(40);
    ASSERT_NE(stream.scene_index_at(later), first);
    const auto a = stream.audio_at(SimTime::seconds(1));
    const auto b = stream.audio_at(later);
    bool differs = false;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        if (std::abs(a.band_energy[band] - b.band_energy[band]) > 0.05F) differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(AnalyzeWindowTest, StableWithinScene) {
    const auto stream = broadcast_stream(11);
    const SimTime t = SimTime::millis(1200);
    const std::size_t scene = stream.scene_index_at(t);
    const SimTime later = t + SimTime::millis(40);
    if (stream.scene_index_at(later) == scene) {
        const auto a = stream.audio_at(t);
        const auto b = stream.audio_at(later);
        for (int band = 0; band < AudioWindow::kBands; ++band) {
            EXPECT_FLOAT_EQ(a.band_energy[band], b.band_energy[band]);
        }
    }
}

// The filter bank as one goertzel() call per band, normalised to the
// strongest band: the specification the one-pass analyze_window() must
// reproduce bit for bit.
AudioWindow analyze_window_by_band(std::span<const float> samples) {
    const auto& bands = band_frequencies();
    double energies[AudioWindow::kBands];
    double peak = 1e-12;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        energies[band] =
            goertzel(samples, bands[static_cast<std::size_t>(band)], PcmChunk::kSampleRate);
        peak = std::max(peak, energies[band]);
    }
    AudioWindow window;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        window.band_energy[band] = static_cast<float>(energies[band] / peak);
    }
    return window;
}

void expect_bit_equal(const AudioWindow& got, const AudioWindow& want) {
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.band_energy[band]),
                  std::bit_cast<std::uint32_t>(want.band_energy[band]))
            << "band " << band;
    }
}

TEST(AnalyzeWindowTest, OnePassBankBitEqualsPerBandGoertzelOnRandomPcm) {
    Rng rng(0x6E27);
    const auto& bands = band_frequencies();
    for (const std::size_t length : {0, 1, 2, 7, 1599, 1600, 1601}) {
        SCOPED_TRACE(length);
        std::vector<float> pcm(length);
        for (auto& sample : pcm) sample = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
        const auto energies = band_energies(pcm);
        for (std::size_t band = 0; band < bands.size(); ++band) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(energies[band]),
                      std::bit_cast<std::uint64_t>(
                          goertzel(pcm, bands[band], PcmChunk::kSampleRate)))
                << "band " << band;
        }
        expect_bit_equal(analyze_window(pcm), analyze_window_by_band(pcm));
    }
}

TEST(AnalyzeWindowTest, OnePassBankBitEqualsPerBandGoertzelOnContentAudio) {
    const auto stream = broadcast_stream(13);
    for (int second = 0; second < 30; second += 3) {
        SCOPED_TRACE(second);
        const auto pcm = synthesize_audio(stream, SimTime::seconds(second), SimTime::millis(100));
        expect_bit_equal(analyze_window(pcm.samples), analyze_window_by_band(pcm.samples));
    }
}

// --------------------------------------------------------------- landmarks

TEST(AudioFingerprintTest, LandmarksAreSparseOnsetPairs) {
    // 90 s of broadcast audio: scene changes every ~3.5 s, but only changes
    // of the *stable strongest band* become onsets, so landmarks are sparse.
    const auto pcm = synthesize_audio(broadcast_stream(13), SimTime{}, SimTime::seconds(90));
    const auto fingerprint = audio_fingerprint(pcm);
    EXPECT_GT(fingerprint.entries.size(), 6U);
    EXPECT_LT(fingerprint.entries.size(), 250U);  // sparse, not per-window
    for (const auto& entry : fingerprint.entries) {
        EXPECT_GE(entry.hash & 0xFF, 1U);            // inter-onset delta >= 1 window
        EXPECT_LT(entry.hash >> 17, 8U);             // band fields in range
    }
}

TEST(AudioFingerprintTest, PeakSequenceMatchesStreamAnalysis) {
    const auto stream = broadcast_stream(14);
    const auto direct = analyze_peaks(stream, SimTime::seconds(5), SimTime::seconds(12));
    const auto via_pcm = analyze_peaks(
        synthesize_audio(stream, SimTime::seconds(5), SimTime::seconds(12)));
    // Segmented analysis equals whole-chunk analysis (window-aligned).
    EXPECT_EQ(direct.strongest, via_pcm.strongest);
    EXPECT_EQ(direct.second, via_pcm.second);
}

TEST(AudioFingerprintTest, TooShortPcmYieldsNothing) {
    PcmChunk tiny;
    tiny.samples.assign(100, 0.1F);
    EXPECT_TRUE(audio_fingerprint(tiny).entries.empty());
}

TEST(AudioFingerprintTest, DeterministicForSameAudio) {
    const auto pcm = synthesize_audio(broadcast_stream(15), SimTime::seconds(2),
                                      SimTime::seconds(3));
    const auto a = audio_fingerprint(pcm);
    const auto b = audio_fingerprint(pcm);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].hash, b.entries[i].hash);
    }
}

// ---------------------------------------------------------- audio matching

struct AudioMatchFixture : ::testing::Test {
    std::vector<ContentInfo> catalog = builtin_catalog(808);
    AudioMatchServer server;

    void SetUp() override {
        // Index a few catalog entries (full indexing is exercised once;
        // keep the fixture fast).
        for (std::size_t i = 0; i < 4; ++i) {
            ContentInfo trimmed = catalog[i];
            trimmed.duration = SimTime::minutes(5);
            server.add_reference(trimmed);
        }
    }
};

TEST_F(AudioMatchFixture, IdentifiesContentAndOffsetFromAudioAlone) {
    const ContentStream stream(catalog[1].seed, catalog[1].dynamics);
    const SimTime true_offset = SimTime::seconds(90);
    const PcmChunk probe = synthesize_audio(stream, true_offset, SimTime::seconds(25));
    const auto match = server.match(audio_fingerprint(probe));
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, catalog[1].id);
    const auto error = match->content_offset - true_offset;
    EXPECT_LE(std::abs(error.as_micros()), SimTime::seconds(10).as_micros());
    EXPECT_GE(match->hits, 4);
}

TEST_F(AudioMatchFixture, RejectsUnindexedContent) {
    const ContentStream stream(999999, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const PcmChunk probe = synthesize_audio(stream, SimTime::seconds(30), SimTime::seconds(25));
    EXPECT_FALSE(server.match(audio_fingerprint(probe)).has_value());
}

TEST_F(AudioMatchFixture, EmptyProbeDoesNotMatch) {
    EXPECT_FALSE(server.match(AudioFingerprint{}).has_value());
}

TEST_F(AudioMatchFixture, IndexIsPopulated) {
    EXPECT_GT(server.indexed_landmarks(), 200U);
}

}  // namespace
}  // namespace tvacr::fp
