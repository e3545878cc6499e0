#include "capture_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/rng.hpp"
#include "dns/message.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"

namespace perfbench {

using namespace tvacr;

namespace {

const net::Ipv4Address kResolver(192, 168, 4, 1);

net::Packet dns_answer(const std::string& name, net::Ipv4Address address, SimTime t,
                       std::uint16_t id) {
    const auto domain = dns::DomainName::parse(name).value();
    const auto query = make_query(id, domain, dns::RecordType::kA);
    const auto response = make_response(query, {dns::ResourceRecord::a(domain, address)},
                                        dns::ResponseCode::kNoError);
    const net::FrameBuilder builder(net::MacAddress::local(2), net::MacAddress::local(1));
    return builder.udp(t, net::Endpoint{kResolver, dns::kDnsPort},
                       net::Endpoint{capture_device(), static_cast<std::uint16_t>(40000 + id)},
                       response.encode());
}

}  // namespace

net::Ipv4Address capture_device() { return net::Ipv4Address(192, 168, 4, 23); }

Result<CaptureFile> write_capture(const std::string& path, const CaptureSpec& spec) {
    Rng rng(derive_seed(spec.seed, 0xCA9));
    const std::size_t domains = std::max<std::size_t>(spec.domains, 1);

    std::vector<std::string> names;
    std::vector<net::Ipv4Address> servers;
    for (std::size_t d = 0; d < domains; ++d) {
        char name[64];
        std::snprintf(name, sizeof(name), "svc%02zu-%06llx.home.example", d,
                      static_cast<unsigned long long>(rng.uniform(0, 0xFFFFFF)));
        names.emplace_back(name);
        servers.emplace_back(23, 64, static_cast<std::uint8_t>(d / 16),
                             static_cast<std::uint8_t>(d % 16 * 16 + 1));
    }
    // Popularity (assumed, see capture_gen.hpp): a Zipf-like draw, s = 0.8,
    // over a fixed ranking that interleaves early- and late-resolved domains. Neither the ranking
    // nor the server addresses (which pick each domain's analyzer shard) are
    // seeded, so per-domain and per-shard volumes — and the analyzer state
    // they build — stay comparable from seed to seed; the seed varies names,
    // packet sizes, directions, timing and the DNS answer points.
    std::vector<std::size_t> rank(domains);
    for (std::size_t r = 0; r < domains; ++r) rank[r] = (r * 29 + 7) % domains;
    std::vector<double> cumulative(domains);
    double total = 0.0;
    for (std::size_t r = 0; r < domains; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.8);
        cumulative[r] = total;
    }
    // DNS answers staggered through the first half of the traffic.
    const std::uint64_t slot = std::max<std::uint64_t>(spec.packets / 2 / domains, 1);
    std::vector<std::uint64_t> answer_at(domains);
    for (std::size_t d = 0; d < domains; ++d) {
        const auto jitter = rng.uniform(0, static_cast<std::int64_t>(slot) - 1);
        answer_at[d] = d * slot + static_cast<std::uint64_t>(jitter);
    }

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) return make_error("cannot create " + path);
    CaptureFile out;
    std::vector<net::Packet> chunk;
    bool first_chunk = true;
    const auto flush = [&]() {
        const Bytes bytes = net::to_pcap_bytes(chunk);
        const std::size_t skip = first_chunk ? 0 : net::kPcapGlobalHeaderLen;
        file.write(reinterpret_cast<const char*>(bytes.data() + skip),
                   static_cast<std::streamsize>(bytes.size() - skip));
        out.bytes += bytes.size() - skip;
        first_chunk = false;
        chunk.clear();
    };

    const net::FrameBuilder up(net::MacAddress::local(1), net::MacAddress::local(2));
    const net::FrameBuilder down(net::MacAddress::local(2), net::MacAddress::local(1));
    const Bytes payload(1460, 0xEE);
    std::int64_t t_us = 0;
    std::size_t next_answer = 0;
    for (std::uint64_t i = 0; i < spec.packets; ++i) {
        // Gaps, runts, ACK share, sizes and directions: the assumptions
        // listed in capture_gen.hpp.
        t_us += rng.uniform(50, 1950);
        const SimTime t = SimTime::micros(t_us);
        while (next_answer < domains && answer_at[next_answer] <= i) {
            chunk.push_back(dns_answer(names[next_answer], servers[next_answer], t,
                                       static_cast<std::uint16_t>(next_answer + 1)));
            ++next_answer;
        }
        if (rng.chance(0.001)) {
            const auto runt = static_cast<std::size_t>(rng.uniform(6, 30));
            chunk.push_back(net::Packet{t, Bytes(runt, 0xAB)});
        } else {
            const double pick = rng.uniform01() * total;
            const auto r = static_cast<std::size_t>(
                std::lower_bound(cumulative.begin(), cumulative.end(), pick) - cumulative.begin());
            const std::size_t d = rank[std::min(r, domains - 1)];
            const std::size_t size =
                rng.chance(0.33) ? 0 : static_cast<std::size_t>(rng.uniform(40, 1460));
            const BytesView body(payload.data(), size);
            const net::Endpoint device{capture_device(), static_cast<std::uint16_t>(50000 + d)};
            const net::Endpoint server{servers[d], 443};
            chunk.push_back(rng.chance(0.4)
                                ? up.tcp(t, device, server, 1, 1, net::TcpFlags::kAck, body)
                                : down.tcp(t, server, device, 1, 1, net::TcpFlags::kAck, body));
        }
        if (chunk.size() >= 8192) flush();
    }
    if (!chunk.empty() || first_chunk) flush();
    out.records = spec.packets + next_answer;
    file.flush();
    if (!file) return make_error("write failed: " + path);
    return out;
}

}  // namespace perfbench
