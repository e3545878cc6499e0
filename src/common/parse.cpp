#include "common/parse.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace tvacr::common {

namespace {

/// Accumulates base-10 digits into an unsigned value, rejecting overflow and
/// any non-digit byte. Shared by the signed and unsigned entry points so the
/// "full string, digits only" rule lives in exactly one place.
bool accumulate_digits(std::string_view digits, std::uint64_t limit, std::uint64_t& out) {
    if (digits.empty()) return false;
    std::uint64_t value = 0;
    for (char c : digits) {
        if (c < '0' || c > '9') return false;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (value > (limit - d) / 10) return false;
        value = value * 10 + d;
    }
    out = value;
    return true;
}

std::string range_text(long long min, long long max) {
    std::string text = "[";
    text += std::to_string(min);
    text += ", ";
    text += std::to_string(max);
    text += ']';
    return text;
}

}  // namespace

Result<long long> parse_int(std::string_view text, long long min, long long max) {
    if (text.empty()) {
        return make_error("expected an integer, got empty string");
    }
    bool negative = false;
    std::string_view digits = text;
    if (digits.front() == '-') {
        negative = true;
        digits.remove_prefix(1);
    } else if (digits.front() == '+') {
        digits.remove_prefix(1);
    }
    // Magnitude limit: |LLONG_MIN| for negatives, LLONG_MAX otherwise.
    const std::uint64_t limit =
        negative ? (static_cast<std::uint64_t>(1) << 63)
                 : static_cast<std::uint64_t>(std::numeric_limits<long long>::max());
    std::uint64_t magnitude = 0;
    if (!accumulate_digits(digits, limit, magnitude)) {
        return make_error("expected an integer, got '" + std::string(text) + "'");
    }
    const long long value = negative ? static_cast<long long>(-magnitude)
                                     : static_cast<long long>(magnitude);
    if (value < min || value > max) {
        return make_error("value " + std::string(text) + " out of range " + range_text(min, max));
    }
    return value;
}

Result<std::uint64_t> parse_u64(std::string_view text) {
    if (text.empty()) {
        return make_error("expected an unsigned integer, got empty string");
    }
    std::string_view digits = text;
    if (digits.front() == '+') digits.remove_prefix(1);
    std::uint64_t value = 0;
    if (!accumulate_digits(digits, std::numeric_limits<std::uint64_t>::max(), value)) {
        return make_error("expected an unsigned integer, got '" + std::string(text) + "'");
    }
    return value;
}

long long parse_flag_int(const char* flag, std::string_view text, long long min, long long max) {
    auto parsed = parse_int(text, min, max);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s expects an integer in %s, got '%.*s'\n", flag,
                     range_text(min, max).c_str(), static_cast<int>(text.size()), text.data());
        std::exit(2);
    }
    return parsed.value();
}

std::uint64_t parse_flag_u64(const char* flag, std::string_view text) {
    auto parsed = parse_u64(text);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s expects an unsigned integer, got '%.*s'\n", flag,
                     static_cast<int>(text.size()), text.data());
        std::exit(2);
    }
    return parsed.value();
}

long long parse_env_int(const char* name, long long fallback, long long min, long long max) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    auto parsed = parse_int(raw, min, max);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s expects an integer in %s, got '%s'\n", name,
                     range_text(min, max).c_str(), raw);
        std::exit(2);
    }
    return parsed.value();
}

}  // namespace tvacr::common
