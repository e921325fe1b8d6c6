#include "serve/protocol.hpp"

#include "support/line_grammar.hpp"
#include "support/parse_num.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

namespace mwl::serve {

namespace {

constexpr char frame_magic[4] = {'M', 'W', 'L', '1'};

/// Read exactly `n` bytes unless the stream ends first; returns the
/// number of bytes actually read (EINTR retried).
std::size_t read_exact(int fd, char* buffer, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, buffer + got, n - got);
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            return got;
        }
        if (r == 0) {
            return got;
        }
        got += static_cast<std::size_t>(r);
    }
    return got;
}

} // namespace

const char* to_string(frame_status status)
{
    switch (status) {
    case frame_status::ok: return "ok";
    case frame_status::eof: return "eof";
    case frame_status::truncated: return "truncated";
    case frame_status::malformed: return "malformed";
    case frame_status::oversized: return "oversized";
    }
    return "?";
}

frame_status read_frame(int fd, std::string& payload,
                        std::size_t max_payload)
{
    char header[frame_header_bytes];
    const std::size_t got = read_exact(fd, header, sizeof header);
    if (got == 0) {
        return frame_status::eof;
    }
    if (got < sizeof header) {
        return frame_status::truncated;
    }
    if (std::memcmp(header, frame_magic, sizeof frame_magic) != 0) {
        return frame_status::malformed;
    }
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(header[4 + i]));
    };
    const std::uint32_t length = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) |
                                 b(3);
    if (length > max_payload) {
        return frame_status::oversized;
    }
    payload.resize(length);
    if (read_exact(fd, payload.data(), length) < length) {
        return frame_status::truncated;
    }
    return frame_status::ok;
}

bool write_frame(int fd, std::string_view payload)
{
    std::string frame;
    frame.reserve(frame_header_bytes + payload.size());
    frame.append(frame_magic, sizeof frame_magic);
    const auto length = static_cast<std::uint32_t>(payload.size());
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>(length & 0xff));
    frame.append(payload);

    std::size_t sent = 0;
    while (sent < frame.size()) {
        // MSG_NOSIGNAL: a response racing a client disconnect must fail
        // with EPIPE, not kill the server. Falls back to write() for
        // non-socket fds (protocol unit tests over pipes).
        ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent,
                           MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK) {
            w = ::write(fd, frame.data() + sent, frame.size() - sent);
        }
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        sent += static_cast<std::size_t>(w);
    }
    return true;
}

// --------------------------------------------------------------- grammar --

namespace {

[[noreturn]] void bad(const std::string& message)
{
    throw protocol_error(message);
}

/// `value` through one of support/parse_num's checked parsers (whole
/// token, range-checked, finite); a bad number is a malformed frame.
template <typename Parse>
auto wire_number(Parse parse, const std::string& token,
                 const std::string& value)
{
    try {
        return parse(value, token);
    } catch (const precondition_error& e) {
        bad(e.what());
    }
}

/// First line of the payload as tokens, plus the body after it.
std::vector<std::string> split_header(const std::string& payload,
                                      std::string& body)
{
    const std::size_t newline = payload.find('\n');
    const std::string header = payload.substr(0, newline);
    body = newline == std::string::npos ? std::string()
                                        : payload.substr(newline + 1);
    std::vector<std::string> tokens;
    std::istringstream in(header);
    std::string token;
    while (in >> token) {
        tokens.push_back(token);
    }
    return tokens;
}

/// Doubles survive the wire bit-exactly: shortest round-trip formatting.
std::string wire_double(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

request parse_request(const std::string& payload)
{
    std::string body;
    const std::vector<std::string> tokens = split_header(payload, body);
    if (tokens.empty()) {
        bad("empty request");
    }
    request r;
    if (tokens[0] == "alloc") {
        r.what = request::kind::alloc;
    } else if (tokens[0] == "stats") {
        r.what = request::kind::stats;
    } else if (tokens[0] == "ping") {
        r.what = request::kind::ping;
    } else {
        bad("unknown request verb '" + tokens[0] + "'");
    }
    bool have_lambda = false;
    bool have_slack = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_key_value(tokens[i], key, value)) {
            bad("unknown request token '" + tokens[i] + "'");
        }
        if (key == "id") {
            r.id = wire_number(parse_u64_checked, tokens[i], value);
        } else if (key == "lambda" && r.what == request::kind::alloc) {
            r.lambda = wire_number(parse_int_checked, tokens[i], value);
            have_lambda = true;
        } else if (key == "slack" && r.what == request::kind::alloc) {
            r.slack =
                wire_number(parse_double_checked, tokens[i], value) / 100.0;
            if (r.slack < 0.0) {
                bad("slack must be non-negative");
            }
            have_slack = true;
        } else {
            bad("unknown request token '" + tokens[i] + "'");
        }
    }
    if (have_lambda && have_slack) {
        bad("lambda= and slack= are mutually exclusive");
    }
    if (r.what == request::kind::alloc) {
        r.graph_text = std::move(body);
    }
    return r;
}

std::string format_alloc_request(std::uint64_t id, std::optional<int> lambda,
                                 double slack, std::string_view graph_text)
{
    std::ostringstream out;
    out << "alloc id=" << id;
    if (lambda) {
        out << " lambda=" << *lambda;
    } else if (slack != 0.0) {
        out << " slack=" << wire_double(slack * 100.0);
    }
    out << '\n' << graph_text;
    return out.str();
}

std::string format_stats_request(std::uint64_t id)
{
    return "stats id=" + std::to_string(id);
}

std::string format_ping_request(std::uint64_t id)
{
    return "ping id=" + std::to_string(id);
}

std::string format_response(const response& r)
{
    std::ostringstream out;
    switch (r.what) {
    case response::status::ok:
        out << "ok id=" << r.id;
        if (r.body.empty()) {
            out << " lambda=" << r.lambda << " latency=" << r.latency
                << " area=" << wire_double(r.area)
                << " cached=" << (r.cached ? 1 : 0)
                << " coalesced=" << (r.coalesced ? 1 : 0)
                << " micros=" << wire_double(r.micros);
        } else {
            out << '\n' << r.body;
        }
        break;
    case response::status::busy:
        out << "busy id=" << r.id << " retry-after-ms=" << r.retry_after_ms;
        break;
    case response::status::error:
        out << "error id=" << r.id << ' ' << r.message;
        break;
    }
    return out.str();
}

response parse_response(const std::string& payload)
{
    std::string body;
    const std::vector<std::string> tokens = split_header(payload, body);
    if (tokens.empty()) {
        bad("empty response");
    }
    response r;
    if (tokens[0] == "ok") {
        r.what = response::status::ok;
    } else if (tokens[0] == "busy") {
        r.what = response::status::busy;
    } else if (tokens[0] == "error") {
        r.what = response::status::error;
    } else {
        bad("unknown response verb '" + tokens[0] + "'");
    }
    r.body = std::move(body);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_key_value(tokens[i], key, value)) {
            if (r.what == response::status::error) {
                // The error message is free text: everything from this
                // token to the end of the header line.
                std::string message = tokens[i];
                for (std::size_t j = i + 1; j < tokens.size(); ++j) {
                    message += ' ';
                    message += tokens[j];
                }
                r.message = std::move(message);
                break;
            }
            bad("unknown response token '" + tokens[i] + "'");
        }
        if (key == "id") {
            r.id = wire_number(parse_u64_checked, tokens[i], value);
        } else if (key == "lambda") {
            r.lambda = wire_number(parse_int_checked, tokens[i], value);
        } else if (key == "latency") {
            r.latency = wire_number(parse_int_checked, tokens[i], value);
        } else if (key == "area") {
            r.area = wire_number(parse_double_checked, tokens[i], value);
        } else if (key == "cached") {
            r.cached =
                wire_number(parse_int_checked, tokens[i], value) != 0;
        } else if (key == "coalesced") {
            r.coalesced =
                wire_number(parse_int_checked, tokens[i], value) != 0;
        } else if (key == "micros") {
            r.micros = wire_number(parse_double_checked, tokens[i], value);
        } else if (key == "retry-after-ms") {
            r.retry_after_ms =
                wire_number(parse_int_checked, tokens[i], value);
        } else if (r.what == response::status::error) {
            // A message that happens to contain '=': treat as free text.
            r.message = tokens[i];
            for (std::size_t j = i + 1; j < tokens.size(); ++j) {
                r.message += ' ';
                r.message += tokens[j];
            }
            break;
        } else {
            bad("unknown response token '" + tokens[i] + "'");
        }
    }
    return r;
}

} // namespace mwl::serve
