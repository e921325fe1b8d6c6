// Checked numeric parsing for user-facing text inputs.
//
// Every tool accepts numbers from the command line, manifests or spec
// files. Raw std::stoi/stod have three failure modes that turn a typo
// into the wrong behaviour: an uncaught std::invalid_argument aborts the
// process, std::out_of_range likewise, and a partial parse ("4x" -> 4,
// "3e" -> 3) is silently *accepted*. These helpers give one contract for
// all call sites: the whole token must parse, out-of-range is rejected,
// and failures throw `precondition_error`, which the flag reader and the
// manifest parser (src/cli/) turn into a diagnostic + exit 2 and the
// serve protocol into a malformed-frame error -- never an abort. The
// unsigned variants also reject a leading '-', which stoul would
// silently wrap ("-1" -> 1.8e19).
//
// `context`, when non-empty, names the offending flag or token in the
// message ("bad numeric value in 'lambda=4x'"); when empty the raw text
// itself is quoted ("bad numeric value '4x'").

#ifndef MWL_SUPPORT_PARSE_NUM_HPP
#define MWL_SUPPORT_PARSE_NUM_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace mwl {

[[nodiscard]] int parse_int_checked(const std::string& text,
                                    const std::string& context = {});

[[nodiscard]] std::size_t parse_size_checked(const std::string& text,
                                             const std::string& context = {});

[[nodiscard]] std::uint64_t parse_u64_checked(const std::string& text,
                                              const std::string& context = {});

/// Requires a finite value (rejects "inf"/"nan" -- no budget, slack or
/// fraction in this codebase wants them).
[[nodiscard]] double parse_double_checked(const std::string& text,
                                          const std::string& context = {});

} // namespace mwl

#endif // MWL_SUPPORT_PARSE_NUM_HPP
