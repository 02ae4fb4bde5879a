#include "common/rng.hh"

#include <bitset>
#include <cassert>
#include <cstring>

namespace amulet
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

using Poly = RngJump::Words;

/**
 * The low 256 coefficients of P(x) = x^256 + low(x), the characteristic
 * polynomial of the xoshiro256 state update, by Berlekamp-Massey over
 * 512 steps of one state bit. P is primitive (the engine's period is
 * 2^256 - 1), hence irreducible, so the minimal polynomial of any
 * nonzero bit sequence the engine produces is P itself.
 */
Poly
deriveCharPoly()
{
    constexpr int n = 512;
    std::bitset<n> seq;
    Rng rng(1);
    for (int i = 0; i < n; ++i) {
        seq[i] = rng.state()[0] & 1;
        rng.next();
    }
    // Connection polynomial C(x) = 1 + c1 x + ... + cL x^L with
    // seq[i] = sum c_j seq[i-j].
    std::bitset<n + 1> c, b, t;
    c[0] = b[0] = 1;
    int len = 0;
    int last = -1;
    for (int i = 0; i < n; ++i) {
        bool d = seq[i];
        for (int j = 1; j <= len; ++j)
            d ^= c[j] && seq[i - j];
        if (!d)
            continue;
        t = c;
        c ^= b << (i - last);
        if (2 * len <= i) {
            len = i + 1 - len;
            last = i;
            b = t;
        }
    }
    assert(len == 256 && "xoshiro256 must have a degree-256 recurrence");
    // P(x) = x^L C(1/x): the coefficient of x^(L-j) is c_j.
    Poly low{};
    for (int j = 1; j <= len; ++j) {
        if (c[j]) {
            const int bit = len - j;
            low[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
    }
    return low;
}

const Poly &
charPolyLow()
{
    static const Poly low = deriveCharPoly();
    return low;
}

/** a * x mod P. */
Poly
mulX(const Poly &a, const Poly &low)
{
    const bool carry = a[3] >> 63;
    Poly r{a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
           (a[3] << 1) | (a[2] >> 63)};
    if (carry) {
        for (int w = 0; w < 4; ++w)
            r[w] ^= low[w];
    }
    return r;
}

/** a * b mod P (Horner over a's coefficients, highest first). */
Poly
mulMod(const Poly &a, const Poly &b)
{
    const Poly &low = charPolyLow();
    Poly r{};
    for (int i = 255; i >= 0; --i) {
        r = mulX(r, low);
        if ((a[i / 64] >> (i % 64)) & 1) {
            for (int w = 0; w < 4; ++w)
                r[w] ^= b[w];
        }
    }
    return r;
}

constexpr Poly kOne{1, 0, 0, 0}; ///< x^0
constexpr Poly kX{2, 0, 0, 0};   ///< x^1

} // namespace

RngJump
RngJump::draws(std::uint64_t k)
{
    RngJump out;
    out.words_ = kOne;
    Poly base = kX;
    for (; k != 0; k >>= 1) {
        if (k & 1)
            out.words_ = mulMod(out.words_, base);
        if (k > 1)
            base = mulMod(base, base);
    }
    return out;
}

RngJump
RngJump::operator*(const RngJump &other) const
{
    RngJump out;
    out.words_ = mulMod(words_, other.words_);
    return out;
}

void
Rng::fill(std::uint8_t *out, std::size_t words)
{
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    for (std::size_t i = 0; i < words; ++i) {
        const std::uint64_t w = step(s0, s1, s2, s3);
        std::memcpy(out + 8 * i, &w, 8);
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
}

void
Rng::jump(const RngJump &jump)
{
    // sum over set coefficients r_i of T^i s — the published
    // xoshiro jump() loop, for any residue.
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    for (const std::uint64_t word : jump.words()) {
        for (int b = 0; b < 64; ++b) {
            // Branch-free: the coefficients are random bits.
            const std::uint64_t m = -((word >> b) & 1);
            t0 ^= s0 & m;
            t1 ^= s1 & m;
            t2 ^= s2 & m;
            t3 ^= s3 & m;
            step(s0, s1, s2, s3);
        }
    }
    s_[0] = t0;
    s_[1] = t1;
    s_[2] = t2;
    s_[3] = t3;
}

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed with SplitMix64 as recommended by the xoshiro authors;
    // guarantees a non-zero state for any seed.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    return lo + nextBelow(hi - lo + 1);
}

bool
Rng::chance(std::uint64_t num, std::uint64_t den)
{
    assert(den > 0);
    return nextBelow(den) < num;
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::pickWeighted(const std::vector<std::uint32_t> &weights)
{
    std::uint64_t total = 0;
    for (auto w : weights)
        total += w;
    assert(total > 0 && "pickWeighted requires a non-zero total weight");
    std::uint64_t r = nextBelow(total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (r < weights[i])
            return i;
        r -= weights[i];
    }
    return weights.size() - 1; // unreachable
}

Rng
Rng::split()
{
    return Rng(next() ^ 0x9e3779b97f4a7c15ULL);
}

Rng::State
Rng::state() const
{
    return {s_[0], s_[1], s_[2], s_[3]};
}

Rng
Rng::fromState(const State &state)
{
    Rng rng(0);
    for (std::size_t i = 0; i < state.size(); ++i)
        rng.s_[i] = state[i];
    return rng;
}

} // namespace amulet
