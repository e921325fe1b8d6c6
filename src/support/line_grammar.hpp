// The line grammar every text input shares (.mwl graphs, manifests,
// campaign and tune specs): one statement per line, its first token the
// keyword; blank lines and lines whose first token starts with '#' are
// skipped; options are `key=value` tokens split at the first '='; every
// diagnostic names its 1-based line, "<label> N: message". A grammar's
// per-line callback throws any `mwl::error` with a bare message
// (require(), support/parse_num) and `for_each_line` rethrows it as the
// grammar's own error type, located.

#ifndef MWL_SUPPORT_LINE_GRAMMAR_HPP
#define MWL_SUPPORT_LINE_GRAMMAR_HPP

#include "support/error.hpp"

#include <cstddef>
#include <istream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace mwl {

/// "<label> <line>: <message>", e.g. "spec line 3: duplicate tune line".
[[nodiscard]] inline std::string line_diagnostic(std::string_view label,
                                                 std::size_t line,
                                                 std::string_view message)
{
    std::string out(label);
    out += ' ';
    out += std::to_string(line);
    out += ": ";
    out += message;
    return out;
}

/// Calls `on_line(keyword, rest_of_line, line_no)` per statement of `in`
/// and rethrows its `mwl::error` as `Error(line_diagnostic(...))`. One
/// string and one stream serve every line.
template <typename Error, typename OnLine>
void for_each_line(std::istream& in, std::string_view label,
                   OnLine&& on_line)
{
    std::string raw;
    std::string keyword;
    std::istringstream line;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        line.clear();
        line.str(raw);
        if (!(line >> keyword) || keyword.front() == '#') {
            continue;
        }
        try {
            on_line(keyword, line, line_no);
        } catch (const error& e) {
            throw Error(line_diagnostic(label, line_no, e.what()));
        }
    }
}

/// Splits `token` at its first '=' into a non-empty key and a non-empty
/// value ("k==v" -> "k", "=v"); false for "k", "k=" and "=v".
[[nodiscard]] inline bool split_key_value(const std::string& token,
                                          std::string& key,
                                          std::string& value)
{
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
        return false;
    }
    key.assign(token, 0, eq);
    value.assign(token, eq + 1);
    return true;
}

/// Feeds every remaining token of `line` to `take(key, value, token)`,
/// which returns false for a key it does not know. Throws
/// `precondition_error`: "expected key=value, got 'T'" or
/// "unknown <section> key 'K'".
template <typename Take>
void for_each_key_value(std::istream& line, std::string_view section,
                        Take&& take)
{
    std::string token;
    std::string key;
    std::string value;
    while (line >> token) {
        if (!split_key_value(token, key, value)) {
            throw precondition_error("expected key=value, got '" + token +
                                     "'");
        }
        if (!take(key, value, token)) {
            throw precondition_error("unknown " + std::string(section) +
                                     " key '" + key + "'");
        }
    }
}

/// Sections a spec states at most once (`lambda`, `model`, ...): the
/// second `enter` of a keyword throws "duplicate <keyword> line".
class once_per_spec {
public:
    void enter(const std::string& keyword)
    {
        if (!seen_.insert(keyword).second) {
            throw precondition_error("duplicate " + keyword + " line");
        }
    }

private:
    std::set<std::string> seen_;
};

} // namespace mwl

#endif // MWL_SUPPORT_LINE_GRAMMAR_HPP
