/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in AMuLeT flows from a seeded Rng so that test
 * campaigns, generated programs, and inputs are exactly reproducible. The
 * implementation is SplitMix64-seeded xoshiro256**, which is fast, has a
 * 256-bit state, and passes BigCrush.
 */

#ifndef AMULET_COMMON_RNG_HH
#define AMULET_COMMON_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace amulet
{

/**
 * A jump-ahead distance for Rng, held as a residue: x^k mod P(x), with P
 * the characteristic polynomial (degree 256) of the xoshiro256 state
 * update. The update T is linear over GF(2), so k draws are T^k, and by
 * Cayley-Hamilton T^k = (x^k mod P)(T): Rng::jump() evaluates that in
 * 256 steps whatever k is. Bit i of word i/64 is the coefficient of
 * x^i, the layout of the xoshiro authors' published JUMP constant (the
 * residue of x^(2^128)). P itself is derived once from the engine's own
 * state bits by Berlekamp-Massey (thread-safe static initialization).
 */
class RngJump
{
  public:
    using Words = std::array<std::uint64_t, 4>;

    /** Jump by @p k draws (square-and-multiply; microseconds). */
    static RngJump draws(std::uint64_t k);

    /** Composition: draws(a) * draws(b) == draws(a + b). */
    RngJump operator*(const RngJump &other) const;

    const Words &words() const { return words_; }

    bool operator==(const RngJump &) const = default;

  private:
    Words words_{};
};

/**
 * Seeded deterministic PRNG (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator named requirement, so it can also
 * drive <random> distributions, although AMuLeT uses the convenience helpers
 * below for reproducibility across standard libraries.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed'a11e'7e57'ab1eULL);

    /** UniformRandomBitGenerator interface. */
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return next(); }

    /** Next raw 64-bit value (inline: generators draw in tight
     *  loops). */
    std::uint64_t next() { return step(s_[0], s_[1], s_[2], s_[3]); }

    /** Write the next @p words draws to @p out, 8 bytes each in host
     *  byte order: the same bytes and end state as that many next()
     *  calls, with the state held in registers across the loop (stores
     *  through a byte pointer would otherwise force it back to memory
     *  every draw). The sandbox-page fill kernel. */
    void fill(std::uint8_t *out, std::size_t words);

    /** Advance the stream by the draw count @p jump encodes, exactly
     *  as that many next() calls would, in 256 steps. */
    void jump(const RngJump &jump);

    /** Uniform integer in [0, bound) without modulo bias. 0 if bound==0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli draw: true with probability num/den. */
    bool chance(std::uint64_t num, std::uint64_t den);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Pick a uniformly random element index for a container size. */
    std::size_t pickIndex(std::size_t size) { return nextBelow(size); }

    /**
     * Weighted choice: returns an index i with probability
     * weights[i] / sum(weights). Zero-weight entries are never picked.
     */
    std::size_t pickWeighted(const std::vector<std::uint32_t> &weights);

    /** Derive an independent child stream (for parallel components). */
    Rng split();

    /** @name Raw engine state (corpus checkpoint / exact-replay serde)
     *  A stream restored from state() continues the exact output
     *  sequence; that is how per-program streams are shipped to other
     *  processes or replayed from a corpus. */
    /// @{
    using State = std::array<std::uint64_t, 4>;
    State state() const;
    static Rng fromState(const State &state);
    /// @}

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** One xoshiro256** step on the state words; returns the draw. */
    static std::uint64_t
    step(std::uint64_t &s0, std::uint64_t &s1, std::uint64_t &s2,
         std::uint64_t &s3)
    {
        const std::uint64_t result = rotl(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;

        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);

        return result;
    }

    std::uint64_t s_[4];
};

} // namespace amulet

#endif // AMULET_COMMON_RNG_HH
