#include "crypto/pubkey.hpp"

#include <array>
#include <cassert>

#include "util/rng.hpp"

namespace alert::crypto {

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(a) * b) % m);
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  assert(m != 0);
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, base, m);
    base = mul_mod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::optional<std::uint64_t> inverse_mod(std::uint64_t a, std::uint64_t m) {
  // Extended Euclid on signed 128-bit to avoid overflow.
  __extension__ typedef __int128 i128;
  i128 t = 0, new_t = 1;
  i128 r = static_cast<i128>(m), new_r = static_cast<i128>(a % m);
  while (new_r != 0) {
    const i128 q = r / new_r;
    const i128 tmp_t = t - q * new_t;
    t = new_t;
    new_t = tmp_t;
    const i128 tmp_r = r - q * new_r;
    r = new_r;
    new_r = tmp_r;
  }
  if (r != 1) return std::nullopt;
  if (t < 0) t += static_cast<i128>(m);
  return static_cast<std::uint64_t>(t);
}

bool is_probable_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                          19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  // Deterministic witnesses for all n < 2^64 (Sinclair set).
  for (std::uint64_t a : {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL,
                          9780504ULL, 1795265022ULL}) {
    std::uint64_t x = pow_mod(a % n, d, n);
    if (x == 0 || x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      x = mul_mod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

namespace {

constexpr std::uint64_t kMontR = 1ULL << 32;

/// Montgomery reduction: t * R^-1 mod m, for odd m < 2^32 and t < m * R.
/// With u = t * m^-1 mod R, t and u * m agree in their low words, so
/// (t - u * m) / R is the difference of their high words, which lies in
/// (-m, m). Nothing exceeds 64 bits, even for m > 2^31 (the 32-bit prime of
/// a 63-bit modulus), where the additive form t + u * m would overflow.
inline std::uint32_t redc(std::uint64_t t, std::uint32_t m,
                          std::uint32_t m_inv) {
  const std::uint32_t u = static_cast<std::uint32_t>(t) * m_inv;
  const std::uint64_t um = static_cast<std::uint64_t>(u) * m;
  const auto t_hi = static_cast<std::uint32_t>(t >> 32);
  const auto um_hi = static_cast<std::uint32_t>(um >> 32);
  const std::uint32_t r = t_hi - um_hi;
  return t_hi < um_hi ? r + m : r;
}

/// a * b * R^-1 mod m, for a, b < m.
inline std::uint32_t mont_mul(std::uint32_t a, std::uint32_t b,
                              std::uint32_t m, std::uint32_t m_inv) {
  return redc(static_cast<std::uint64_t>(a) * b, m, m_inv);
}

/// m^-1 mod 2^32 for odd m: m * m = 1 mod 8 gives three correct low bits,
/// and each Newton step doubles them (3 -> 6 -> 12 -> 24 -> 48).
std::uint32_t inverse_mod_r(std::uint32_t m) {
  std::uint32_t x = m;
  for (int i = 0; i < 4; ++i) x *= 2 - m * x;
  return x;
}

/// The CRT form of the private key (n = p * q, exponent d).
PrivateKey crt_private_key(std::uint64_t p, std::uint64_t q,
                           std::uint64_t d) {
  assert(p < kMontR && q < kMontR && p != q);
  const auto q_inv = inverse_mod(q, p);
  assert(q_inv.has_value());
  PrivateKey k;
  k.d = d;
  k.p = static_cast<std::uint32_t>(p);
  k.q = static_cast<std::uint32_t>(q);
  k.dp = static_cast<std::uint32_t>(d % (p - 1));
  k.dq = static_cast<std::uint32_t>(d % (q - 1));
  k.q_inv = static_cast<std::uint32_t>(*q_inv);
  k.q_inv_r = static_cast<std::uint32_t>(mul_mod(*q_inv, kMontR % p, p));
  k.p_minv = inverse_mod_r(k.p);
  k.q_minv = inverse_mod_r(k.q);
  k.p_r3 = static_cast<std::uint32_t>(pow_mod(kMontR % p, 3, p));
  k.q_r3 = static_cast<std::uint32_t>(pow_mod(kMontR % q, 3, q));
  return k;
}

std::uint64_t random_prime(util::Rng& rng, int bits) {
  assert(bits >= 8 && bits <= 32);
  const std::uint64_t lo = 1ULL << (bits - 1);
  const std::uint64_t hi = (1ULL << bits) - 1;
  for (;;) {
    std::uint64_t candidate = lo + rng.below(hi - lo + 1);
    candidate |= 1;  // odd
    if (is_probable_prime(candidate)) return candidate;
  }
}

}  // namespace

KeyPair generate_keypair(util::Rng& rng, int bits) {
  assert(bits >= 16 && bits <= 63);
  const int half = bits / 2;
  for (;;) {
    const std::uint64_t p = random_prime(rng, half);
    std::uint64_t q = random_prime(rng, bits - half);
    if (p == q) continue;
    const std::uint64_t n = p * q;
    const std::uint64_t phi = (p - 1) * (q - 1);
    const auto d = inverse_mod(kPublicExponent, phi);
    if (!d) continue;  // gcd(e, phi) != 1; re-draw primes
    return KeyPair{PublicKey{n, kPublicExponent}, crt_private_key(p, q, *d)};
  }
}

std::uint64_t rsa_encrypt_value(const PublicKey& pub, std::uint64_t value) {
  assert(value < pub.n);
  return pow_mod(value, pub.e, pub.n);
}

std::uint64_t rsa_decrypt_value(const PrivateKey& priv, std::uint64_t value) {
  assert(value < priv.n());
  const std::uint32_t p = priv.p;
  const std::uint32_t q = priv.q;
  // value < p * q, and p, q < R, so REDC reduces it mod each prime directly
  // (to value * R^-1); one product with R^3 brings it to Montgomery form.
  std::uint32_t bp = mont_mul(redc(value, p, priv.p_minv), priv.p_r3, p,
                              priv.p_minv);
  std::uint32_t bq = mont_mul(redc(value, q, priv.q_minv), priv.q_r3, q,
                              priv.q_minv);
  // Right-to-left square-and-multiply, both chains interleaved. d is odd
  // (e * d = 1 mod the even phi), and so are dp and dq, so each accumulator
  // starts at the base. The multiply is always computed and selected by
  // mask: the exponent bits stay out of the branch predictor.
  std::uint32_t xp = bp;
  std::uint32_t xq = bq;
  for (std::uint32_t ep = priv.dp >> 1, eq = priv.dq >> 1; (ep | eq) != 0;
       ep >>= 1, eq >>= 1) {
    bp = mont_mul(bp, bp, p, priv.p_minv);
    bq = mont_mul(bq, bq, q, priv.q_minv);
    const std::uint32_t yp = mont_mul(xp, bp, p, priv.p_minv);
    const std::uint32_t yq = mont_mul(xq, bq, q, priv.q_minv);
    xp ^= (xp ^ yp) & (0U - (ep & 1U));
    xq ^= (xq ^ yq) & (0U - (eq & 1U));
  }
  // Garner: with m1 = value^dp mod p (xp = m1 * R) and m2 = value^dq mod q,
  // h = (m1 - m2) * q^-1 mod p and the plaintext is m2 + h * q < n.
  const std::uint32_t m2 = redc(xq, q, priv.q_minv);
  const std::uint32_t a = mont_mul(xp, priv.q_inv, p, priv.p_minv);
  // m2 may exceed p, but m2 < R keeps the product below p * R for REDC.
  const std::uint32_t b =
      redc(static_cast<std::uint64_t>(m2) * priv.q_inv_r, p, priv.p_minv);
  const std::uint32_t h = a >= b ? a - b : a - b + p;
  return m2 + static_cast<std::uint64_t>(h) * q;
}

std::vector<std::uint64_t> rsa_encrypt_bytes(
    const PublicKey& pub, const std::vector<std::uint8_t>& data) {
  std::vector<std::uint64_t> blocks;
  blocks.reserve((data.size() + 6) / 7);
  for (std::size_t off = 0; off < data.size(); off += 7) {
    std::uint64_t chunk = 0;
    const std::size_t n = std::min<std::size_t>(7, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      chunk = (chunk << 8) | data[off + i];
    }
    // 7 bytes = 56 bits < 61-bit modulus floor, so chunk < pub.n always.
    blocks.push_back(rsa_encrypt_value(pub, chunk));
  }
  return blocks;
}

std::vector<std::uint8_t> rsa_decrypt_bytes(
    const PrivateKey& priv, const std::vector<std::uint64_t>& blocks,
    std::size_t original_size) {
  std::vector<std::uint8_t> out;
  out.reserve(original_size);
  std::size_t remaining = original_size;
  for (const std::uint64_t block : blocks) {
    const std::uint64_t chunk = rsa_decrypt_value(priv, block);
    const std::size_t n = std::min<std::size_t>(7, remaining);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(chunk >> (8 * (n - 1 - i))));
    }
    remaining -= n;
  }
  return out;
}

}  // namespace alert::crypto
