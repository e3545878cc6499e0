#include "lint/fix.hpp"

#include <algorithm>
#include <cctype>

#include "lint/lexer.hpp"

namespace tvacr::lint {
namespace {

bool is_header_path(const std::string& path) {
    return path.ends_with(".hpp") || path.ends_with(".h") || path.ends_with(".hh");
}

/// Mirrors PragmaOnceRequiredRule's detection: any preprocessor line that
/// collapses to `#pragma once`.
bool has_pragma_once(const std::string& source) {
    for (const Token& token : lex(source)) {
        if (token.kind != TokenKind::kPreprocessor) continue;
        std::string collapsed;
        for (const char c : token.text) {
            if (c == ' ' || c == '\t') {
                if (!collapsed.empty() && collapsed.back() != ' ') collapsed.push_back(' ');
            } else {
                collapsed.push_back(c);
            }
        }
        if (collapsed == "#pragma once" || collapsed == "# pragma once") return true;
    }
    return false;
}

/// Inserts `#pragma once` after the leading run of `//` comment and blank
/// lines, matching the repo's header style (doc block first, then the
/// guard). Returns true if the source changed.
bool fix_pragma_once(const std::string& path, std::string& source) {
    if (!is_header_path(path) || has_pragma_once(source)) return false;
    std::size_t insert_at = 0;
    std::size_t line_start = 0;
    while (line_start < source.size()) {
        std::size_t i = line_start;
        while (i < source.size() && (source[i] == ' ' || source[i] == '\t')) ++i;
        const bool blank = i >= source.size() || source[i] == '\n' || source[i] == '\r';
        const bool comment = i + 1 < source.size() && source[i] == '/' && source[i + 1] == '/';
        if (!blank && !comment) break;
        std::size_t eol = source.find('\n', line_start);
        if (eol == std::string::npos) {
            line_start = source.size();
        } else {
            line_start = eol + 1;
        }
        if (comment) insert_at = line_start;  // guard goes right after the doc block
    }
    source.insert(insert_at, "#pragma once\n");
    return true;
}

/// Rewrites float literals so the point has digits on both sides. Works on
/// the token stream and splices edits back by byte offset, last-first.
bool fix_float_spelling(std::string& source) {
    // Byte offset of the start of each 1-based line.
    std::vector<std::size_t> line_starts{0};
    for (std::size_t i = 0; i < source.size(); ++i) {
        if (source[i] == '\n') line_starts.push_back(i + 1);
    }

    struct Edit {
        std::size_t offset;
        std::string replacement;
        std::size_t length;
    };
    std::vector<Edit> edits;
    for (const Token& token : lex(source)) {
        if (token.kind != TokenKind::kNumber || !is_float_literal(token.text)) continue;
        const bool hex = token.text.size() > 1 && token.text[0] == '0' &&
                         (token.text[1] == 'x' || token.text[1] == 'X');
        if (hex) continue;  // hex floats have their own grammar; leave them
        const std::size_t dot = token.text.find('.');
        if (dot == std::string::npos) continue;  // exponent-only (1e9): fine as-is
        const bool digit_before =
            dot > 0 && std::isdigit(static_cast<unsigned char>(token.text[dot - 1])) != 0;
        const bool digit_after = dot + 1 < token.text.size() &&
                                 std::isdigit(static_cast<unsigned char>(token.text[dot + 1])) != 0;
        std::string fixed = token.text.substr(0, dot);
        if (!digit_before) fixed += '0';
        fixed += '.';
        if (!digit_after) fixed += '0';
        fixed.append(token.text, dot + 1);
        if (fixed == token.text) continue;
        if (token.line == 0 || token.line > line_starts.size()) continue;
        const std::size_t offset = line_starts[token.line - 1] + token.column - 1;
        if (offset + token.text.size() > source.size() ||
            source.compare(offset, token.text.size(), token.text) != 0) {
            continue;  // line/column didn't round-trip (splice inside?); skip
        }
        edits.push_back(Edit{offset, fixed, token.text.size()});
    }
    for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
        source.replace(it->offset, it->length, it->replacement);
    }
    return !edits.empty();
}

}  // namespace

FixResult fix_source(const std::string& path, const std::string& source) {
    FixResult result;
    result.content = source;
    if (fix_float_spelling(result.content)) {
        result.rules_applied.push_back("float-literal-spelling");
    }
    if (fix_pragma_once(path, result.content)) {
        result.rules_applied.push_back("pragma-once-required");
    }
    std::sort(result.rules_applied.begin(), result.rules_applied.end());
    return result;
}

}  // namespace tvacr::lint
