#include "cli/args.hpp"

#include "support/error.hpp"
#include "support/parse_num.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

namespace mwl::cli {

bool args::next()
{
    if (++at_ >= argc_) {
        return false;
    }
    flag_ = argv_[at_];
    if (flag_ == "--help" || flag_ == "-h") {
        usage_(0);
    }
    return true;
}

std::string args::value()
{
    if (at_ + 1 >= argc_) {
        fail("missing value for " + flag_);
    }
    return argv_[++at_];
}

template <typename Parse>
auto args::checked(Parse parse)
{
    const std::string text = value();
    try {
        return parse(text, std::string());
    } catch (const error& e) {
        fail("bad value for " + flag_ + ": " + e.what());
    }
}

std::size_t args::count()
{
    return checked(parse_size_checked);
}

std::size_t args::threads()
{
    return checked([](const std::string& text, const std::string&) {
        const std::size_t n = parse_size_checked(text);
        require(n <= max_threads, "thread count " + text +
                                      " exceeds the limit of " +
                                      std::to_string(max_threads));
        return n;
    });
}

int args::integer(int lo, int hi)
{
    return checked([lo, hi](const std::string& text, const std::string&) {
        const int n = parse_int_checked(text);
        require(n >= lo && n <= hi,
                "numeric value out of range '" + text + "'");
        return n;
    });
}

std::uint64_t args::u64()
{
    return checked(parse_u64_checked);
}

double args::real()
{
    return checked(parse_double_checked);
}

void args::fail(const std::string& message)
{
    std::cerr << tool_ << ": " << message << '\n';
    usage_(2);
    std::exit(2); // not reached: usage_ exits
}

std::istream* open_input(const char* tool, const std::string& path,
                         std::ifstream& file)
{
    if (path == "-") {
        return &std::cin;
    }
    file.open(path);
    if (!file) {
        std::cerr << tool << ": cannot open " << path << '\n';
        return nullptr;
    }
    return &file;
}

} // namespace mwl::cli
