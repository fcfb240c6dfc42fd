#include "crypto/pubkey.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace alert::crypto {
namespace {

TEST(ModArith, MulModSmall) {
  EXPECT_EQ(mul_mod(7, 8, 5), 1u);
  EXPECT_EQ(mul_mod(0, 99, 7), 0u);
}

TEST(ModArith, MulModLargeOperandsNoOverflow) {
  const std::uint64_t big = 0xFFFFFFFFFFFFFFC5ull;  // largest 64-bit prime
  EXPECT_EQ(mul_mod(big - 1, big - 1, big), 1u);  // (-1)^2 = 1 mod p
}

TEST(ModArith, PowModKnownValues) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(5, 3, 13), 125 % 13);
}

TEST(ModArith, FermatLittleTheorem) {
  const std::uint64_t p = 1000000007ull;
  for (std::uint64_t a : {2ull, 12345ull, 999999999ull}) {
    EXPECT_EQ(pow_mod(a, p - 1, p), 1u);
  }
}

TEST(ModArith, InverseModCorrect) {
  const auto inv = inverse_mod(3, 7);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ((*inv * 3) % 7, 1u);
}

TEST(ModArith, InverseModOfNonCoprimeIsNull) {
  EXPECT_FALSE(inverse_mod(6, 9).has_value());
}

TEST(ModArith, InverseModLarge) {
  const std::uint64_t m = 0xFFFFFFFFFFFFFFC5ull;
  const auto inv = inverse_mod(65537, m);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(mul_mod(*inv, 65537, m), 1u);
}

TEST(MillerRabin, SmallPrimesAndComposites) {
  EXPECT_TRUE(is_probable_prime(2));
  EXPECT_TRUE(is_probable_prime(3));
  EXPECT_TRUE(is_probable_prime(97));
  EXPECT_FALSE(is_probable_prime(0));
  EXPECT_FALSE(is_probable_prime(1));
  EXPECT_FALSE(is_probable_prime(91));  // 7 * 13
}

TEST(MillerRabin, CarmichaelNumbersRejected) {
  for (std::uint64_t n : {561ull, 1105ull, 1729ull, 2465ull, 6601ull}) {
    EXPECT_FALSE(is_probable_prime(n)) << n;
  }
}

TEST(MillerRabin, LargePrimes) {
  EXPECT_TRUE(is_probable_prime((1ull << 61) - 1));  // Mersenne prime
  EXPECT_TRUE(is_probable_prime(0xFFFFFFFFFFFFFFC5ull));
  EXPECT_FALSE(is_probable_prime((1ull << 61) - 3));
}

TEST(KeyGen, ProducesWorkingKeyPair) {
  util::Rng rng(1);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_GT(kp.pub.n, 1ull << 55);
  EXPECT_EQ(kp.pub.e, 65537u);
  EXPECT_EQ(kp.pub.n, kp.priv.n());
}

TEST(KeyGen, DeterministicGivenRngState) {
  util::Rng a(5), b(5);
  const KeyPair ka = generate_keypair(a);
  const KeyPair kb = generate_keypair(b);
  EXPECT_EQ(ka.pub, kb.pub);
}

// generate_keypair's (n, e, d) for one fixed seed, and the next draw after
// it, which pins how many draws key generation consumes. Every node's keys,
// and with them every run digest, follow from these: a change that moves
// them needs a simulation epoch bump.
TEST(KeyGen, PinnedKeysForFixedSeed) {
  struct Pin {
    int bits;
    std::uint64_t n, d, next;
  };
  for (const Pin& pin :
       {Pin{16, 33673ull, 19673ull, 5496100451523843386ull},
        Pin{62, 2749340763802586633ull, 1472437117211990513ull,
            3775644199654831333ull},
        Pin{63, 3558014669498364241ull, 173837114288546273ull,
            17203429117488428201ull}}) {
    util::Rng rng(2011);
    const KeyPair kp = generate_keypair(rng, pin.bits);
    EXPECT_EQ(kp.pub.n, pin.n) << pin.bits;
    EXPECT_EQ(kp.pub.e, 65537u) << pin.bits;
    EXPECT_EQ(kp.priv.d, pin.d) << pin.bits;
    EXPECT_EQ(rng.next(), pin.next) << pin.bits;
  }
}

TEST(KeyGen, CrtFormIsConsistent) {
  util::Rng rng(3);
  for (int bits = 16; bits <= 63; ++bits) {
    const KeyPair kp = generate_keypair(rng, bits);
    const PrivateKey& k = kp.priv;
    const std::uint64_t p = k.p, q = k.q;
    ASSERT_EQ(p * q, kp.pub.n) << bits;
    EXPECT_EQ(k.public_key(), kp.pub) << bits;
    EXPECT_TRUE(is_probable_prime(p)) << bits;
    EXPECT_TRUE(is_probable_prime(q)) << bits;
    EXPECT_EQ(k.dp, k.d % (p - 1)) << bits;
    EXPECT_EQ(k.dq, k.d % (q - 1)) << bits;
    EXPECT_EQ(mul_mod(k.q_inv, q, p), 1u) << bits;
    EXPECT_EQ(static_cast<std::uint32_t>(k.p * k.p_minv), 1u) << bits;
    EXPECT_EQ(static_cast<std::uint32_t>(k.q * k.q_minv), 1u) << bits;
  }
}

/// The CRT private op against the pow_mod oracle over 1,075,200 fixed-seed
/// ciphertexts: 16 keys at each width generate_keypair accepts, 1,400
/// ciphertexts per key. At 63 bits q > 2^31, where an additive Montgomery
/// reduction would overflow 64 bits.
TEST(RsaCrt, DecryptMatchesPowModAtEveryWidth) {
  constexpr int kKeysPerWidth = 16;
  constexpr int kCiphertextsPerKey = 1400;
  util::Rng rng(424242);
  std::uint64_t checked = 0;
  for (int bits = 16; bits <= 63; ++bits) {
    for (int k = 0; k < kKeysPerWidth; ++k) {
      const PrivateKey priv = generate_keypair(rng, bits).priv;
      if (bits == 63) {
        ASSERT_GT(priv.q, 1u << 31);
      }
      int mismatches = 0;
      for (int i = 0; i < kCiphertextsPerKey; ++i) {
        const std::uint64_t c = rng.below(priv.n());
        const std::uint64_t want = pow_mod(c, priv.d, priv.n());
        const std::uint64_t got = rsa_decrypt_value(priv, c);
        if (got != want && mismatches++ == 0) {
          ADD_FAILURE() << "bits " << bits << " n " << priv.n() << " c " << c
                        << ": got " << got << ", want " << want;
        }
        ++checked;
      }
      EXPECT_EQ(mismatches, 0) << "bits " << bits << " n " << priv.n();
    }
  }
  EXPECT_GE(checked, 1'000'000u);
}

TEST(RsaCrt, DecryptMatchesPowModOnEdgeCiphertexts) {
  util::Rng rng(99);
  for (int bits = 16; bits <= 63; ++bits) {
    for (int k = 0; k < 4; ++k) {
      const PrivateKey priv = generate_keypair(rng, bits).priv;
      const std::uint64_t p = priv.p, q = priv.q;
      std::vector<std::uint64_t> edges = {0, 1, 2, priv.n() - 1, priv.n() - 2};
      // Multiples of one prime are 0 mod that prime: one CRT half is 0.
      const std::uint64_t of_p[] = {1, 2, 1 + rng.below(q - 1), q - 1};
      const std::uint64_t of_q[] = {1, 2, 1 + rng.below(p - 1), p - 1};
      for (const std::uint64_t m : of_p) edges.push_back(m * p);
      for (const std::uint64_t m : of_q) edges.push_back(m * q);
      for (const std::uint64_t c : edges) {
        EXPECT_EQ(rsa_decrypt_value(priv, c), pow_mod(c, priv.d, priv.n()))
            << "bits " << bits << " n " << priv.n() << " c " << c;
      }
    }
  }
}

class RsaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RsaRoundTrip, ValueEncryptDecrypt) {
  util::Rng rng(GetParam());
  const KeyPair kp = generate_keypair(rng);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t m = rng.below(kp.pub.n);
    const std::uint64_t c = rsa_encrypt_value(kp.pub, m);
    EXPECT_EQ(rsa_decrypt_value(kp.priv, c), m);
  }
}

TEST_P(RsaRoundTrip, BytesEncryptDecrypt) {
  util::Rng rng(GetParam() + 1000);
  const KeyPair kp = generate_keypair(rng);
  for (const std::size_t len : {0u, 1u, 6u, 7u, 8u, 16u, 32u, 100u}) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const auto blocks = rsa_encrypt_bytes(kp.pub, data);
    EXPECT_EQ(blocks.size(), (len + 6) / 7);
    EXPECT_EQ(rsa_decrypt_bytes(kp.priv, blocks, len), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsaRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 11, 101, 4242));

TEST(Rsa, WrongKeyFailsToDecrypt) {
  util::Rng rng(77);
  const KeyPair a = generate_keypair(rng);
  const KeyPair b = generate_keypair(rng);
  ASSERT_NE(a.pub.n, b.pub.n);
  const std::uint64_t m = 123456789;
  const std::uint64_t c = rsa_encrypt_value(a.pub, m);
  EXPECT_NE(rsa_decrypt_value(b.priv, c % b.priv.n()), m);
}

TEST(Rsa, CiphertextDiffersFromPlaintext) {
  util::Rng rng(88);
  const KeyPair kp = generate_keypair(rng);
  int unchanged = 0;
  for (std::uint64_t m = 2; m < 100; ++m) {
    if (rsa_encrypt_value(kp.pub, m) == m) ++unchanged;
  }
  EXPECT_LE(unchanged, 2);  // fixed points are astronomically rare
}

}  // namespace
}  // namespace alert::crypto
