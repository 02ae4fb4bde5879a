#include "mem/sandbox_image.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace amulet::mem
{

namespace
{

/** Residues x^(512 p) mod P for p = 0..kMaxSandboxPages. */
const std::array<RngJump, kMaxSandboxPages + 1> &
pageJumps()
{
    static const auto table = [] {
        std::array<RngJump, kMaxSandboxPages + 1> t;
        const RngJump page = RngJump::draws(kWordsPerPage);
        t[0] = RngJump::draws(0);
        for (unsigned p = 1; p <= kMaxSandboxPages; ++p)
            t[p] = t[p - 1] * page;
        return t;
    }();
    return table;
}

/** The stream positioned at page @p page of an image starting at
 *  @p first. */
Rng
streamAtPage(const Rng::State &first, std::size_t page)
{
    Rng rng = Rng::fromState(first);
    if (page != 0)
        rng.jump(pageJumps()[page]);
    return rng;
}

} // namespace

Rng::State
pageJump(const Rng::State &state, unsigned pages)
{
    assert(pages <= kMaxSandboxPages);
    return streamAtPage(state, pages).state();
}

SandboxImage
SandboxImage::generated(Descriptor desc)
{
    assert(desc.size % kPageSize == 0 &&
           desc.size / kPageSize <= kMaxSandboxPages);
    if (desc.patches && desc.patches->empty())
        desc.patches = nullptr;
    SandboxImage image;
    image.generated_ = true;
    image.desc_ = std::move(desc);
    return image;
}

SandboxImage
SandboxImage::filled(std::vector<std::uint8_t> bytes, Descriptor desc)
{
    SandboxImage image = generated(std::move(desc));
    assert(bytes.size() == image.size());
    image.generated_ = false;
    image.bytes_ = std::move(bytes);
    return image;
}

std::uint8_t
SandboxImage::generatedByte(std::size_t off) const
{
    assert(off < desc_->size);
    if (const Patches *patches = desc_->patches.get()) {
        const auto it = std::lower_bound(
            patches->begin(), patches->end(), off,
            [](const Patch &p, std::size_t o) { return p.off < o; });
        if (it != patches->end() && it->off == off)
            return it->value;
    }
    Rng rng = streamAtPage(desc_->first, off >> kPageShift);
    const std::size_t word = (off & (kPageSize - 1)) / 8;
    for (std::size_t i = 0; i < word; ++i)
        rng.next();
    const std::uint64_t w = rng.next();
    std::uint8_t bytes[8];
    std::memcpy(bytes, &w, 8);
    return bytes[off % 8];
}

void
SandboxImage::copyPage(std::size_t page, std::uint8_t *out) const
{
    const std::size_t lo = page << kPageShift;
    assert(lo < size());
    if (!generated_) {
        const std::size_t n = std::min<std::size_t>(kPageSize, size() - lo);
        std::memcpy(out, bytes_.data() + lo, n);
        return;
    }
    streamAtPage(desc_->first, page).fill(out, kWordsPerPage);
    const Patches *patches = desc_->patches.get();
    if (!patches)
        return;
    auto it = std::lower_bound(
        patches->begin(), patches->end(), lo,
        [](const Patch &p, std::size_t o) { return p.off < o; });
    for (; it != patches->end() && it->off < lo + kPageSize; ++it)
        out[it->off - lo] = it->value;
}

SandboxImage::Patches
SandboxImage::bytesAt(const std::vector<std::size_t> &offsets) const
{
    Patches out;
    out.reserve(offsets.size());
    if (!generated_) {
        for (std::size_t off : offsets)
            out.push_back({static_cast<std::uint32_t>(off), bytes_[off]});
        return out;
    }
    std::uint8_t page[kPageSize];
    std::size_t have = ~std::size_t{0};
    for (std::size_t off : offsets) {
        assert(off < size());
        if ((off >> kPageShift) != have) {
            have = off >> kPageShift;
            copyPage(have, page);
        }
        out.push_back({static_cast<std::uint32_t>(off),
                       page[off & (kPageSize - 1)]});
    }
    return out;
}

std::vector<std::uint8_t>
SandboxImage::toBytes() const
{
    if (!generated_)
        return bytes_;
    std::vector<std::uint8_t> out(size());
    Rng rng = Rng::fromState(desc_->first);
    rng.fill(out.data(), out.size() / 8);
    if (desc_->patches) {
        for (const Patch &p : *desc_->patches)
            out[p.off] = p.value;
    }
    return out;
}

bool
SandboxImage::operator==(const SandboxImage &other) const
{
    if (size() != other.size())
        return false;
    if (!generated_ && !other.generated_)
        return bytes_ == other.bytes_;
    if (sameSource(other))
        return true;
    std::uint8_t a[kPageSize];
    std::uint8_t b[kPageSize];
    for (std::size_t p = 0; p < numPages(); ++p) {
        const std::size_t n =
            std::min<std::size_t>(kPageSize, size() - (p << kPageShift));
        copyPage(p, a);
        other.copyPage(p, b);
        if (std::memcmp(a, b, n) != 0)
            return false;
    }
    return true;
}

void
SandboxImage::assign(std::size_t n, std::uint8_t value)
{
    *this = SandboxImage(std::vector<std::uint8_t>(n, value));
}

void
SandboxImage::set(std::size_t off, std::uint8_t value)
{
    if (generated_)
        *this = SandboxImage(toBytes());
    desc_.reset();
    bytes_[off] = value;
}

std::vector<std::uint8_t>
SandboxImage::releaseBytes()
{
    std::vector<std::uint8_t> out = std::move(bytes_);
    *this = SandboxImage();
    return out;
}

} // namespace amulet::mem
