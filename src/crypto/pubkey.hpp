#pragma once

/// \file pubkey.hpp
/// Public-key substrate: textbook RSA over 64-bit primes, built from
/// scratch (Miller-Rabin key generation, 128-bit modular exponentiation for
/// the public op, CRT with 32-bit Montgomery arithmetic for the private op).
///
/// The paper's nodes use RSA to (a) wrap the session key K_s under the
/// destination's public key, (b) encrypt the source-zone field L_{Z_S},
/// (c) encrypt the TTL under the next relay's key in notify-and-go, and
/// (d) encrypt the intersection-countermeasure Bitmap. All of those are
/// short values, so a 64-bit-prime RSA (≈127-bit modulus) carries them
/// faithfully; the *simulated* cost of a real RSA-1024 operation is charged
/// via crypto::CostModel, exactly as DESIGN.md's substitution table states.
/// This code must not be used for actual security.

#include <cstdint>
#include <optional>
#include <vector>

namespace alert::util {
class Rng;
}

namespace alert::crypto {

/// The public exponent of every generated key.
inline constexpr std::uint64_t kPublicExponent = 65537;

struct PublicKey {
  std::uint64_t n = 0;  ///< modulus (product of two 32-bit-ish primes)
  std::uint64_t e = 0;  ///< public exponent

  constexpr bool operator==(const PublicKey&) const = default;
};

/// The private key in CRT form: d plus what key generation derives from the
/// primes, so that decryption is two half-width exponentiations (mod p and
/// mod q, both < 2^32) in Montgomery form with R = 2^32, recombined by
/// Garner's formula — no 128-bit division per step. n = p * q is derived,
/// not stored, which keeps the key at 48 bytes (every node holds one).
struct PrivateKey {
  std::uint64_t d = 0;  ///< private exponent
  std::uint32_t p = 0;
  std::uint32_t q = 0;
  std::uint32_t dp = 0;       ///< d mod (p - 1)
  std::uint32_t dq = 0;       ///< d mod (q - 1)
  std::uint32_t q_inv = 0;    ///< q^-1 mod p
  std::uint32_t q_inv_r = 0;  ///< q^-1 * R mod p
  std::uint32_t p_minv = 0;   ///< p^-1 mod R
  std::uint32_t q_minv = 0;   ///< q^-1 mod R
  std::uint32_t p_r3 = 0;     ///< R^3 mod p
  std::uint32_t q_r3 = 0;     ///< R^3 mod q

  [[nodiscard]] constexpr std::uint64_t n() const {
    return static_cast<std::uint64_t>(p) * q;
  }
  [[nodiscard]] constexpr PublicKey public_key() const {
    return PublicKey{n(), kPublicExponent};
  }
};

struct KeyPair {
  PublicKey pub;
  PrivateKey priv;
};

/// Generate an RSA key pair with ~`bits`-bit modulus (default 62 to stay
/// within u64). Deterministic given the RNG state.
[[nodiscard]] KeyPair generate_keypair(util::Rng& rng, int bits = 62);

/// Raw RSA on a single residue value (< n). Asserts value < n. Decryption
/// equals pow_mod(value, priv.d, priv.n()) for every value < n.
[[nodiscard]] std::uint64_t rsa_encrypt_value(const PublicKey& pub,
                                              std::uint64_t value);
[[nodiscard]] std::uint64_t rsa_decrypt_value(const PrivateKey& priv,
                                              std::uint64_t value);

/// Encrypt an arbitrary byte string by splitting it into sub-modulus chunks.
/// Each 7-byte chunk becomes one 8-byte ciphertext block.
[[nodiscard]] std::vector<std::uint64_t> rsa_encrypt_bytes(
    const PublicKey& pub, const std::vector<std::uint8_t>& data);
[[nodiscard]] std::vector<std::uint8_t> rsa_decrypt_bytes(
    const PrivateKey& priv, const std::vector<std::uint64_t>& blocks,
    std::size_t original_size);

/// Miller-Rabin primality (deterministic witness set valid for u64).
[[nodiscard]] bool is_probable_prime(std::uint64_t n);

/// Modular arithmetic helpers (exposed for tests).
[[nodiscard]] std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b,
                                    std::uint64_t m);
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                                    std::uint64_t m);
/// Modular inverse of a mod m, if gcd(a, m) == 1.
[[nodiscard]] std::optional<std::uint64_t> inverse_mod(std::uint64_t a,
                                                       std::uint64_t m);

}  // namespace alert::crypto
