// Fixture: a tagged DropReason re-declaration that drifted from the
// canonical one in net/drop_reason.hpp (headers are read first) is itself
// an exhaustive-enum violation. The forward declaration must not confuse
// the definition matcher.
// EXPECT: exhaustive-enum 1
namespace net {
enum class DropReason : unsigned char;  // forward decl: ignored
// alert-lint: exhaustive-enum
enum class DropReason : unsigned char {
  OutOfRange,
  NoHandler,
  TtlExpired,
};
}  // namespace net
