#include "model/hardware_model.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

namespace mwl {

hardware_model::hardware_model()
{
    static std::atomic<std::uint64_t> next_serial{1};
    serial_ = next_serial.fetch_add(1);
}

std::uint64_t hardware_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:identity");
    h.mix(static_cast<std::int64_t>(serial_));
    return h.digest();
}

sonic_model::sonic_model(int adder_latency, int mul_bits_per_cycle)
    : adder_latency_(adder_latency), mul_bits_per_cycle_(mul_bits_per_cycle)
{
    require(adder_latency >= 1, "adder latency must be >= 1 cycle");
    require(mul_bits_per_cycle >= 1, "multiplier bits/cycle must be >= 1");
}

int sonic_model::latency(const op_shape& shape) const
{
    switch (shape.kind()) {
    case op_kind::add:
        return adder_latency_;
    case op_kind::mul: {
        // Empirical SONIC formula: ceil((n + m) / 8) cycles. Widths are
        // user input up to INT_MAX, so sum in 64 bits and reject a width
        // sum outside int; the latency (<= the sum) then fits too.
        const std::int64_t bits =
            std::int64_t{shape.width_a()} + std::int64_t{shape.width_b()};
        if (bits > std::numeric_limits<int>::max()) {
            throw precondition_error(
                "multiplier widths " + std::to_string(shape.width_a()) +
                " and " + std::to_string(shape.width_b()) +
                " are too wide: their sum " + std::to_string(bits) +
                " exceeds " +
                std::to_string(std::numeric_limits<int>::max()));
        }
        return static_cast<int>((bits + mul_bits_per_cycle_ - 1) /
                                mul_bits_per_cycle_);
    }
    }
    MWL_ASSERT(false && "unreachable");
    return 1;
}

double sonic_model::area(const op_shape& shape) const
{
    switch (shape.kind()) {
    case op_kind::add:
        // Ripple-carry adder: area proportional to width.
        return static_cast<double>(shape.width_a());
    case op_kind::mul:
        // Array multiplier: area proportional to the operand-width product.
        return static_cast<double>(shape.width_a()) *
               static_cast<double>(shape.width_b());
    }
    MWL_ASSERT(false && "unreachable");
    return 1.0;
}

std::uint64_t sonic_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:sonic");
    h.mix(static_cast<std::int64_t>(adder_latency_));
    h.mix(static_cast<std::int64_t>(mul_bits_per_cycle_));
    return h.digest();
}

uniform_latency_model::uniform_latency_model(int latency) : latency_(latency)
{
    require(latency >= 1, "uniform latency must be >= 1 cycle");
}

int uniform_latency_model::latency(const op_shape& /*shape*/) const
{
    return latency_;
}

double uniform_latency_model::area(const op_shape& shape) const
{
    // Same area law as the SONIC model: only latency is made uniform.
    if (shape.kind() == op_kind::add) {
        return static_cast<double>(shape.width_a());
    }
    return static_cast<double>(shape.width_a()) *
           static_cast<double>(shape.width_b());
}

std::uint64_t uniform_latency_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:uniform-latency");
    h.mix(static_cast<std::int64_t>(latency_));
    return h.digest();
}

} // namespace mwl
