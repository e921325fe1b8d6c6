#include "cli/manifest.hpp"

#include "io/graph_io.hpp"
#include "support/line_grammar.hpp"
#include "support/parse_num.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"

#include <fstream>
#include <istream>

namespace mwl::cli {
namespace {

/// Records `token` when it is a directive; false for anything else.
bool take_directive(const std::string& token, manifest_entry& out)
{
    std::string key;
    std::string value;
    if (!split_key_value(token, key, value)) {
        return false;
    }
    if (key == "lambda") {
        out.lambda = parse_int_checked(value, token);
    } else if (key == "slack") {
        out.slack = parse_double_checked(value, token) / 100.0;
        require(*out.slack >= 0.0, "slack must be non-negative");
    } else if (key == "sweep") {
        out.sweep = parse_double_checked(value, token) / 100.0;
        require(*out.sweep >= 0.0, "sweep must be non-negative");
    } else if (key == "verify") {
        out.verify = parse_size_checked(value, token);
        require(*out.verify >= 1, "verify needs >= 1 input");
    } else {
        return false;
    }
    return true;
}

/// Appends the entries of one statement; throws `error` with the bare
/// message, which `for_each_line` prefixes with the line number.
void parse_line(std::istream& line, const std::string& keyword,
                std::size_t line_no, std::vector<manifest_entry>& entries)
{
    const bool graph = keyword == "graph";
    require(graph || keyword == "corpus",
            "unknown keyword '" + keyword + "'");
    manifest_entry entry;
    entry.line = line_no;
    require(!graph || static_cast<bool>(line >> entry.name),
            "expected 'graph FILE ...'");
    std::vector<std::string> spec_tokens;
    std::string token;
    while (line >> token) {
        if (!take_directive(token, entry)) {
            require(!graph, "unknown graph token '" + token + "'");
            spec_tokens.push_back(token);
        }
    }
    require(!(entry.sweep && entry.verify),
            "sweep= and verify= are mutually exclusive");
    if (graph) {
        std::ifstream file(entry.name);
        require(static_cast<bool>(file),
                "cannot open graph file " + entry.name);
        entry.graph = parse_graph(file);
        entry.verify_seed = verify_input_seed(2001, entries.size());
        entries.push_back(std::move(entry));
        return;
    }
    const corpus_spec spec = corpus_spec::parse(spec_tokens);
    std::size_t k = 0;
    for (corpus_entry& e : make_corpus(spec, sonic_model{})) {
        manifest_entry item = entry;
        item.name = "tgff(ops=" + std::to_string(spec.n_ops) + ",seed=" +
                    std::to_string(spec.seed) + ")#" +
                    std::to_string(entries.size());
        item.graph = std::move(e.graph);
        item.verify_seed = verify_input_seed(spec.seed, k++);
        entries.push_back(std::move(item));
    }
}

} // namespace

std::vector<manifest_entry> parse_manifest(std::istream& in)
{
    std::vector<manifest_entry> entries;
    for_each_line<manifest_error>(
        in, "manifest line",
        [&](const std::string& keyword, std::istream& line,
            std::size_t line_no) {
            parse_line(line, keyword, line_no, entries);
        });
    return entries;
}

void fail_manifest_line(std::size_t line, const std::string& message)
{
    throw manifest_error(line_diagnostic("manifest line", line, message));
}

} // namespace mwl::cli
