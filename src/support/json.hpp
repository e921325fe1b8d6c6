// The JSON string escaper shared by the report writers (campaign reports,
// quality goldens) and the tools' --json outputs.
//
// It escapes only `"` and `\`: the escaped strings are scenario names,
// keys, error messages and file names, and the byte-compared reports pin
// that exact encoding. finding.cpp keeps its own, wider escaper (control
// characters too), whose bytes mwl_lint's JSON pins separately.

#ifndef MWL_SUPPORT_JSON_HPP
#define MWL_SUPPORT_JSON_HPP

#include <string>

namespace mwl {

/// `text` with every `"` and `\` preceded by a backslash.
[[nodiscard]] std::string json_escape(const std::string& text);

} // namespace mwl

#endif // MWL_SUPPORT_JSON_HPP
