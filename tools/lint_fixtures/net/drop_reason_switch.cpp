// Fixture: switches over the tagged net::DropReason must be exhaustive and
// default-free. The first switch is complete (clean); the second misses
// the three fault-era reasons; the third hides a full case list behind
// `default:`; the waived one and the DropReason-free switch pass.
// EXPECT: exhaustive-enum 2
namespace net {
enum class DropReason {  // alert-lint: exhaustive-enum
  OutOfRange,
  NoHandler,
  TtlExpired,
  ChannelLoss,
  NodeDown,
  RetryExhausted,
};
}  // namespace net

const char* full(net::DropReason why) {
  switch (why) {
    case net::DropReason::OutOfRange: return "out_of_range";
    case net::DropReason::NoHandler: return "no_handler";
    case net::DropReason::TtlExpired: return "ttl_expired";
    case net::DropReason::ChannelLoss: return "channel_loss";
    case net::DropReason::NodeDown: return "node_down";
    case net::DropReason::RetryExhausted: return "retry_exhausted";
  }
  return "unknown";
}

const char* stale(net::DropReason why) {
  switch (why) {  // misses the three fault-era reasons -> one violation
    case net::DropReason::OutOfRange: return "out_of_range";
    case net::DropReason::NoHandler: return "no_handler";
    case net::DropReason::TtlExpired: return "ttl_expired";
  }
  return "unknown";
}

const char* hidden(net::DropReason why) {
  switch (why) {  // `default:` would swallow reason #7 -> one violation
    case net::DropReason::OutOfRange: return "out_of_range";
    case net::DropReason::NoHandler: return "no_handler";
    case net::DropReason::TtlExpired: return "ttl_expired";
    case net::DropReason::ChannelLoss: return "channel_loss";
    case net::DropReason::NodeDown: return "node_down";
    case net::DropReason::RetryExhausted: return "retry_exhausted";
    default: return "unknown";
  }
}

const char* waived(net::DropReason why) {
  switch (why) {  // alert-lint: allow(exhaustive-enum)
    case net::DropReason::OutOfRange: return "out_of_range";
    default: return "unknown";
  }
}

int no_drop_reason_cases(int v) {
  switch (v) {
    default: return 0;
  }
}
