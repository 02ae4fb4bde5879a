/**
 * @file
 * Page-lazy sandbox images: the GF(2) jump-ahead, generated and sibling
 * images against an eager reference generator, and lazily mapped
 * memory against bulk-copied memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "core/input_gen.hh"
#include "mem/memory_image.hh"
#include "mem/sandbox_image.hh"

namespace
{

using namespace amulet;

Rng::State
stepped(Rng rng, std::uint64_t k)
{
    for (std::uint64_t i = 0; i < k; ++i)
        rng.next();
    return rng.state();
}

TEST(RngJump, EqualsSequentialSteps)
{
    Rng pick(2024);
    std::vector<std::uint64_t> ks = {0, 1, 511, 512, 4096, 65535, 65536};
    for (int i = 0; i < 4; ++i)
        ks.push_back(pick.nextBelow(70000));
    for (std::uint64_t seed : {1ULL, 7ULL, 0xdeadbeefULL}) {
        for (std::uint64_t k : ks) {
            Rng jumped(seed);
            jumped.jump(RngJump::draws(k));
            EXPECT_EQ(jumped.state(), stepped(Rng(seed), k))
                << "seed " << seed << " k " << k;
        }
    }
}

TEST(RngJump, ReproducesPublishedJumpConstant)
{
    // xoshiro256's JUMP (2^128 draws), from the reference implementation.
    const RngJump::Words published = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    RngJump jump = RngJump::draws(1); // x
    for (int i = 0; i < 128; ++i)
        jump = jump * jump; // x^(2^(i+1)) mod P
    EXPECT_EQ(jump.words(), published);
}

TEST(RngJump, ComposesAndMatchesPageTable)
{
    EXPECT_EQ(RngJump::draws(300) * RngJump::draws(212),
              RngJump::draws(512));
    for (unsigned pages : {0u, 1u, 2u, 77u, 128u}) {
        EXPECT_EQ(mem::pageJump(Rng(5).state(), pages),
                  stepped(Rng(5), std::uint64_t{pages} * 512));
    }
}

TEST(RngJump, PageTableInitIsThreadSafe)
{
    // Several threads race to the one-time table initialization; each
    // must see the finished table.
    const Rng::State want = stepped(Rng(11), 64 * 512);
    std::vector<Rng::State> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back(
            [&got, t] { got[t] = mem::pageJump(Rng(11).state(), 64); });
    for (std::thread &th : threads)
        th.join();
    for (const Rng::State &s : got)
        EXPECT_EQ(s, want);
}

TEST(RngFill, EqualsNextCalls)
{
    Rng a(3), b(3);
    std::vector<std::uint8_t> buf(8 * 1000);
    a.fill(buf.data(), 1000);
    for (std::size_t i = 0; i < 1000; ++i) {
        const std::uint64_t w = b.next();
        std::uint64_t got;
        std::memcpy(&got, &buf[8 * i], 8);
        ASSERT_EQ(got, w) << i;
    }
    EXPECT_EQ(a.state(), b.state());
}

/** The eager generator the lazy one replaces: every sandbox byte drawn
 *  and stored, one word per 8 bytes. */
struct EagerInput
{
    std::array<RegVal, isa::kNumRegs> regs{};
    std::uint8_t flags = 0;
    std::vector<std::uint8_t> sandbox;
};

EagerInput
eagerGenerate(Rng &rng, std::size_t n)
{
    EagerInput in;
    for (auto &reg : in.regs)
        reg = rng.chance(50, 100) ? (rng.next() & 0xffff) : rng.next();
    in.flags = static_cast<std::uint8_t>(rng.next() & 0x1f);
    in.sandbox.resize(n);
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(&in.sandbox[i], &w, 8);
    }
    return in;
}

EagerInput
eagerSibling(Rng &rng, const EagerInput &base,
             const std::vector<std::size_t> &offsets)
{
    EagerInput in;
    in.regs = base.regs;
    in.flags = base.flags;
    const std::size_t n = base.sandbox.size();
    in.sandbox.resize(n);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(&in.sandbox[i], &w, 8);
    }
    for (; i < n; ++i)
        in.sandbox[i] = base.sandbox[i];
    for (std::size_t off : offsets) {
        if (off < n)
            in.sandbox[off] = base.sandbox[off];
    }
    return in;
}

/** Every page of @p image, requested in random order, equals @p want;
 *  so do random single bytes and the whole-image conversion. */
void
expectBytes(const mem::SandboxImage &image,
            const std::vector<std::uint8_t> &want, Rng &order)
{
    ASSERT_EQ(image.size(), want.size());
    std::vector<std::size_t> pages(image.numPages());
    std::iota(pages.begin(), pages.end(), 0);
    std::shuffle(pages.begin(), pages.end(), order);
    std::uint8_t page[mem::kPageSize];
    for (std::size_t p : pages) {
        image.copyPage(p, page);
        const std::size_t lo = p * mem::kPageSize;
        const std::size_t n = std::min<std::size_t>(mem::kPageSize,
                                                    want.size() - lo);
        ASSERT_EQ(0, std::memcmp(page, want.data() + lo, n)) << "page " << p;
    }
    for (int i = 0; i < 8; ++i) {
        const std::size_t off = order.nextBelow(want.size());
        ASSERT_EQ(image[off], want[off]) << off;
    }
    EXPECT_EQ(image.toBytes(), want);
    EXPECT_TRUE(image == mem::SandboxImage(want));
}

TEST(SandboxImage, GeneratedAndSiblingBytesMatchEagerFill)
{
    for (unsigned pages : {1u, 2u, 128u}) {
        const unsigned seeds = pages == 128 ? 6 : 40;
        for (unsigned seed = 0; seed < seeds; ++seed) {
            mem::AddressMap map;
            map.sandboxPages = pages;
            core::InputGenConfig cfg;
            cfg.map = map;
            Rng ref(seed);
            Rng order(seed + 1000);
            core::InputGenerator gen(cfg, Rng(seed));
            const std::size_t n = map.sandboxSize();

            const arch::Input base = gen.generate(0);
            const EagerInput want_base = eagerGenerate(ref, n);
            EXPECT_EQ(base.sandbox.isGenerated(), pages > 1);
            EXPECT_EQ(base.regs, want_base.regs);
            EXPECT_EQ(base.flagsByte, want_base.flags);
            expectBytes(base.sandbox, want_base.sandbox, order);

            // Read offsets as the memo reports them, plus duplicates,
            // unsorted order and out-of-range ones the generator drops.
            std::vector<std::size_t> offsets;
            for (int i = 0; i < 40; ++i)
                offsets.push_back(order.nextBelow(n));
            offsets.push_back(offsets.front());
            offsets.push_back(n + 5);
            const auto patches =
                core::InputGenerator::siblingPatches(base, offsets);
            for (unsigned s = 0; s < 3; ++s) {
                const arch::Input sib = gen.sibling(base, patches, 1 + s);
                const EagerInput want =
                    eagerSibling(ref, want_base, offsets);
                EXPECT_EQ(sib.regs, want.regs);
                expectBytes(sib.sandbox, want.sandbox, order);
                EXPECT_FALSE(sib.sandbox == base.sandbox);
            }
            // The vector-offsets overload draws identically.
            const arch::Input sib = gen.sibling(base, offsets, 9);
            expectBytes(sib.sandbox,
                        eagerSibling(ref, want_base, offsets).sandbox,
                        order);
        }
    }
}

TEST(SandboxImage, NextDrawAfterEachInputIsUnchanged)
{
    // Interleave bases and siblings; after each input the generator's
    // stream must sit exactly where the eager fill left it, which the
    // next input's registers (its first draws) expose.
    for (unsigned pages : {1u, 2u, 64u, 128u}) {
        core::InputGenConfig cfg;
        cfg.map.sandboxPages = pages;
        const std::size_t n = cfg.map.sandboxSize();
        Rng ref(77);
        core::InputGenerator gen(cfg, Rng(77));
        for (int round = 0; round < 5; ++round) {
            const arch::Input base = gen.generate(round);
            const EagerInput want_base = eagerGenerate(ref, n);
            ASSERT_EQ(base.regs, want_base.regs) << pages << "/" << round;
            for (int s = 0; s < round; ++s) {
                gen.sibling(base, std::vector<std::size_t>{}, 100);
                eagerSibling(ref, want_base, {});
            }
        }
    }
}

TEST(SandboxImage, ExplicitEditingAndEquality)
{
    mem::SandboxImage a;
    EXPECT_TRUE(a.empty());
    a.assign(4096, 0);
    a.set(0x41, 7);
    EXPECT_EQ(a[0x41], 7);
    EXPECT_EQ(a.numPages(), 1u);
    mem::SandboxImage b = a;
    EXPECT_TRUE(a == b);
    b.set(0x42, 1);
    EXPECT_FALSE(a == b);

    // Editing a generated image materializes it first.
    core::InputGenConfig cfg;
    cfg.map.sandboxPages = 4;
    core::InputGenerator gen(cfg, Rng(1));
    const arch::Input in = gen.generate(0);
    mem::SandboxImage edited = in.sandbox;
    ASSERT_TRUE(edited.isGenerated());
    EXPECT_TRUE(edited.sameSource(in.sandbox));
    const std::uint8_t old = edited[5000];
    edited.set(5000, old ^ 0xff);
    EXPECT_FALSE(edited.isGenerated());
    EXPECT_FALSE(edited == in.sandbox);
    edited.set(5000, old);
    EXPECT_TRUE(edited == in.sandbox);

    // Only explicit storage is released for recycling.
    EXPECT_EQ(edited.releaseBytes().size(), 4 * 4096u);
    EXPECT_TRUE(edited.empty());
    mem::SandboxImage lazy = in.sandbox;
    EXPECT_TRUE(lazy.releaseBytes().empty());
}

/** Memory checker: one image loaded by bulk copy (the reference), one by
 *  mapSandbox, driven by the same random accesses. */
class MemPair
{
  public:
    explicit MemPair(const mem::AddressMap &map) : map_(map) {}

    void
    load(const mem::SandboxImage &image)
    {
        const std::vector<std::uint8_t> bytes = image.toBytes();
        ref_.writeBytes(map_.sandboxBase, bytes.data(), bytes.size());
        lazy_.mapSandbox(map_.sandboxBase, image);
    }

    /** An address near the sandbox: inside it, just below it, or in
     *  the guard page above it. */
    Addr
    pickAddr(Rng &rng) const
    {
        switch (rng.nextBelow(4)) {
          case 0:
            return map_.sandboxBase - 16 + rng.nextBelow(32);
          case 1:
            return map_.sandboxEnd() - 16 + rng.nextBelow(64 + 16);
          default:
            return map_.sandboxBase + rng.nextBelow(map_.sandboxSize());
        }
    }

    void
    step(Rng &rng)
    {
        const Addr a = pickAddr(rng);
        const unsigned size = 1 + static_cast<unsigned>(rng.nextBelow(8));
        if (rng.chance(1, 3)) {
            const std::uint64_t v = rng.next();
            ref_.write(a, size, v);
            lazy_.write(a, size, v);
        } else if (rng.chance(1, 8)) {
            const std::uint8_t v = static_cast<std::uint8_t>(rng.next());
            ref_.writeByte(a, v);
            lazy_.writeByte(a, v);
        } else {
            ASSERT_EQ(lazy_.read(a, size), ref_.read(a, size))
                << std::hex << a << " size " << size;
        }
    }

    void
    expectEqual()
    {
        const Addr lo = map_.sandboxBase - mem::kPageSize;
        const std::size_t len = map_.sandboxSize() + 3 * mem::kPageSize;
        std::vector<std::uint8_t> want(len), have(len);
        ref_.readBytes(lo, want.data(), len);
        lazy_.readBytes(lo, have.data(), len);
        EXPECT_EQ(have, want);
    }

    const mem::MemoryImage &lazy() const { return lazy_; }

  private:
    mem::AddressMap map_;
    mem::MemoryImage ref_;
    mem::MemoryImage lazy_;
};

TEST(MemoryImage, LazyMapEqualsBulkCopy)
{
    for (unsigned pages : {1u, 2u, 128u}) {
        mem::AddressMap map;
        map.sandboxPages = pages;
        core::InputGenConfig cfg;
        cfg.map = map;
        Rng rng(pages);
        core::InputGenerator gen(cfg, Rng(pages + 50));
        MemPair mem(map);
        // Stores outside the sandbox predate the first mapping and must
        // survive every remap, as must guard-page spills.
        mem.step(rng);
        arch::Input base = gen.generate(0);
        for (int remap = 0; remap < 12; ++remap) {
            arch::Input in;
            switch (remap % 3) {
              case 0:
                in = gen.generate(remap);
                base = in;
                break;
              case 1:
                in = gen.sibling(base, std::vector<std::size_t>{0, 4095},
                                 remap);
                break;
              default: // decoded inputs carry explicit bytes
                in.sandbox = mem::SandboxImage(base.sandbox.toBytes());
                break;
            }
            mem.load(in.sandbox);
            // A generated image maps in O(1): only the frames outside
            // the sandbox (below it and the guard page) stay backed.
            if (in.sandbox.isGenerated()) {
                EXPECT_LE(mem.lazy().numFrames(), 2u);
            }
            for (int i = 0; i < 300; ++i)
                mem.step(rng);
            mem.expectEqual();
        }
    }
}

TEST(MemoryImage, ReadsAndWritesAcrossFrames)
{
    mem::MemoryImage m;
    EXPECT_EQ(m.read(0x1ffc, 8), 0u);
    EXPECT_EQ(m.numFrames(), 0u);
    m.write(0x1ffc, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.numFrames(), 2u);
    EXPECT_EQ(m.read(0x1ffc, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x2000, 4), 0x11223344u);
    EXPECT_EQ(m.readByte(0x1ffc), 0x88);
    m.write(0x2002, 2, 0xabcd);
    EXPECT_EQ(m.read(0x1ffe, 8), 0x0000abcd33445566ULL);
}

} // namespace
