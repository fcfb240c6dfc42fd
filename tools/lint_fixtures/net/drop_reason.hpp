#pragma once
// Fixture: the canonical net::DropReason, shaped like src/net/network.hpp
// (forward declaration first, fixed underlying type, ///< comments). It is
// a header, so exhaustive-enum reads it before the .cpp fixtures: their
// switches and re-declarations are checked against this enumerator list.
#include <cstdint>

namespace net {

enum class DropReason : std::uint8_t;

// alert-lint: exhaustive-enum
enum class DropReason : std::uint8_t {
  OutOfRange,     ///< receiver out of range
  NoHandler,      ///< no protocol attached
  TtlExpired,     ///< hop budget exhausted
  ChannelLoss,    ///< lost to fault injection
  NodeDown,       ///< crashed radio
  RetryExhausted, ///< ARQ retries spent
};

}  // namespace net
