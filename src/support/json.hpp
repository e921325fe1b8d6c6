// The JSON string escaper shared by every JSON writer: campaign reports,
// quality goldens, analyzer findings and the tools' --json outputs.

#ifndef MWL_SUPPORT_JSON_HPP
#define MWL_SUPPORT_JSON_HPP

#include <string>

namespace mwl {

/// `text` as the contents of a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, newline and tab become
/// `\n` and `\t`, and every other control character `\u00XX`.
[[nodiscard]] std::string json_escape(const std::string& text);

} // namespace mwl

#endif // MWL_SUPPORT_JSON_HPP
