// Command-line reading shared by the tools: a cursor over argv whose
// typed readers go through support/parse_num (whole token, range-checked,
// no wrapped negatives). Every usage error prints one of
//
//   <tool>: missing value for --flag
//   <tool>: unknown option --flag
//   <tool>: bad value for --flag: <parse_num message>
//
// then the tool's usage text, and exits 2. Checks that span several
// flags stay in the tool and report through `fail`.

#ifndef MWL_CLI_ARGS_HPP
#define MWL_CLI_ARGS_HPP

#include <climits>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mwl::cli {

/// Upper bound on a user-supplied thread count (`--jobs`, mwl_client's
/// `--conns`): every thread starts up front, so an unbounded value would
/// ask the OS for that many threads before any work begins.
inline constexpr std::size_t max_threads = 1024;

class args {
public:
    /// `usage(code)` prints the tool's usage text and exits with `code`.
    args(const char* tool, int argc, char** argv, void (*usage)(int))
        : tool_(tool), argc_(argc), argv_(argv), usage_(usage)
    {
    }

    /// Advances to the next argument; false once argv is exhausted.
    /// `--help` / `-h` print usage and exit 0.
    bool next();
    [[nodiscard]] const std::string& flag() const { return flag_; }
    /// Starts with '-' and is not the lone "-" (stdin).
    [[nodiscard]] bool option() const
    {
        return flag_.size() > 1 && flag_[0] == '-';
    }

    /// The argument after the current flag, consumed.
    std::string value();
    std::size_t count();
    /// A count of at most `max_threads` (0 = hardware concurrency).
    std::size_t threads();
    int integer(int lo = INT_MIN, int hi = INT_MAX);
    std::uint64_t u64();
    double real();

    [[noreturn]] void unknown() { fail("unknown option " + flag_); }
    /// `<tool>: message`, then usage, exit 2.
    [[noreturn]] void fail(const std::string& message);

private:
    template <typename Parse>
    auto checked(Parse parse);

    const char* tool_;
    int argc_;
    char** argv_;
    void (*usage_)(int);
    int at_ = 0;
    std::string flag_;
};

/// Stdin for "-", else `path` opened into `file`. On failure prints
/// `<tool>: cannot open PATH` and returns nullptr; the caller picks the
/// exit code.
std::istream* open_input(const char* tool, const std::string& path,
                         std::ifstream& file);

} // namespace mwl::cli

#endif // MWL_CLI_ARGS_HPP
