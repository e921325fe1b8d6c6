// The manifest grammar shared by mwl_batch, mwl_client and mwl_lint.
// One entry per line under the shared text-input rules
// (support/line_grammar.hpp):
//
//   graph FILE [DIRECTIVE]...
//   corpus ops=N count=N [seed=S] [mul-fraction=F] [min-width=W]
//          [max-width=W] [DIRECTIVE]...
//
//   lambda=N     allocate at latency constraint N
//   slack=PCT    allocate at ceil(lambda_min * (1 + PCT/100)), PCT >= 0
//   sweep=PCT    Pareto sweep over [lambda_min, that bound], PCT >= 0
//   verify=N     differential verification on N >= 1 input vectors
//
// `sweep=` and `verify=` are mutually exclusive. A corpus line expands to
// `count` entries (tgff/corpus.hpp, which bounds ops and count) named
// `tgff(ops=N,seed=S)#k`, k being the entry's index in the whole
// manifest. Numbers must parse whole (support/parse_num.hpp). The
// parser records directives; each tool decides which it honours.

#ifndef MWL_CLI_MANIFEST_HPP
#define MWL_CLI_MANIFEST_HPP

#include "dfg/sequencing_graph.hpp"
#include "support/error.hpp"

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace mwl::cli {

/// A malformed manifest, `manifest line N: ...`; bad input like a bad
/// flag, so the tools exit 2 on it.
class manifest_error : public precondition_error {
public:
    using precondition_error::precondition_error;
};

struct manifest_entry {
    std::string name;
    sequencing_graph graph;
    std::size_t line = 0; ///< 1-based
    std::optional<int> lambda;
    std::optional<double> slack; ///< fraction: slack=25 -> 0.25
    std::optional<double> sweep; ///< fraction, like slack
    std::optional<std::size_t> verify;
    /// Input-vector seed for `verify=`: from 2001 and the manifest index
    /// for a graph, from the corpus seed and the index within the corpus
    /// for a corpus entry, so `seed=` changes the inputs too.
    std::uint64_t verify_seed = 2001;
};

/// Throws `manifest_error` on the first bad line, graph files that cannot
/// be opened or parsed included.
[[nodiscard]] std::vector<manifest_entry> parse_manifest(std::istream& in);

/// Throws `manifest_error("manifest line N: message")`; for the tools'
/// own per-entry policy.
[[noreturn]] void fail_manifest_line(std::size_t line,
                                     const std::string& message);

} // namespace mwl::cli

#endif // MWL_CLI_MANIFEST_HPP
