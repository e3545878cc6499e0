// The benchmark's one seeded capture generator: a synthetic pcap of one
// device talking to 48 domains. Every capture_ingest path reads the file it
// writes; the program under test never sees the seed.
//
// What the workload fixes: 400k traffic frames, 48 domains, and DNS answers
// staggered through the first half, so mappings are born late. Everything
// else in the mix is an assumption made here, not a measured property of
// home traffic; no source gives these figures for a home gateway:
//   - domain popularity Zipf-like with s = 0.8 over a fixed ranking;
//   - one frame in three a bare ACK, the rest 40-1460 payload bytes, uniform;
//   - 40% of frames upstream;
//   - 50-1950 us between frames, uniform (about 1000 frames/s);
//   - one runt frame in a thousand, which no layer decodes;
//   - server addresses laid out so the domains spread evenly over shards.
// They are chosen to reach the analyzer's code paths (attributed and
// unattributed flows, empty and full payloads, both directions, undecodable
// frames) at a size where one pass takes tens of milliseconds or more.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "net/address.hpp"

namespace perfbench {

struct CaptureSpec {
    std::uint64_t seed = 1;
    std::uint64_t packets = 400'000;  // traffic frames, excluding DNS answers
    std::size_t domains = 48;
};

struct CaptureFile {
    std::uint64_t records = 0;  // every frame written, DNS answers included
    std::uint64_t bytes = 0;    // file size
};

/// The device whose traffic the capture holds.
[[nodiscard]] tvacr::net::Ipv4Address capture_device();

/// Writes the capture described by `spec` to `path`. Traffic to every
/// domain starts at once, while its DNS answer arrives at a staggered point
/// in the first half, so each domain's earlier packets stay unattributed
/// (late-born mappings). The rest of the mix is the assumptions above.
[[nodiscard]] tvacr::Result<CaptureFile> write_capture(const std::string& path,
                                                       const CaptureSpec& spec);

}  // namespace perfbench
