#include "core/input_gen.hh"

#include <algorithm>

namespace amulet::core
{

mem::SandboxImage
InputGenerator::draw(std::size_t n,
                     const std::shared_ptr<const Patches> &patches,
                     const mem::SandboxImage *tail)
{
    const std::size_t pages = n / mem::kPageSize;
    if (n % mem::kPageSize == 0 && pages > 1 &&
        pages <= mem::kMaxSandboxPages) {
        const Rng::State first = rng_.state();
        rng_ = Rng::fromState(mem::pageJump(first, pages));
        return mem::SandboxImage::generated(first, n, patches);
    }
    // A warm buffer's resize is a no-op (same size) or capacity reuse;
    // only a cold pool pays the allocate-and-zero.
    std::vector<std::uint8_t> buf = pool_ ? pool_->take()
                                          : std::vector<std::uint8_t>{};
    buf.resize(n);
    const std::size_t words = n / 8;
    rng_.fill(buf.data(), words);
    // Tail bytes (size not a word multiple) are the base's for a
    // sibling and zero otherwise; a recycled buffer may hold stale ones.
    for (std::size_t i = words * 8; i < n; ++i)
        buf[i] = tail ? (*tail)[i] : 0;
    if (patches) {
        for (const mem::SandboxImage::Patch &p : *patches)
            buf[p.off] = p.value;
    }
    return mem::SandboxImage(std::move(buf));
}

arch::Input
InputGenerator::generate(std::uint64_t id)
{
    arch::Input input;
    input.id = id;
    for (auto &reg : input.regs) {
        reg = rng_.chance(cfg_.smallRegPct, 100) ? (rng_.next() & 0xffff)
                                                 : rng_.next();
    }
    input.flagsByte = static_cast<std::uint8_t>(rng_.next() & 0x1f);
    input.sandbox = draw(cfg_.map.sandboxSize(), nullptr, nullptr);
    return input;
}

std::shared_ptr<const InputGenerator::Patches>
InputGenerator::siblingPatches(const arch::Input &base,
                               const std::vector<std::size_t> &read_offsets)
{
    std::vector<std::size_t> offsets;
    offsets.reserve(read_offsets.size());
    for (std::size_t off : read_offsets) {
        if (off < base.sandbox.size())
            offsets.push_back(off);
    }
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()),
                  offsets.end());
    return std::make_shared<const Patches>(base.sandbox.bytesAt(offsets));
}

arch::Input
InputGenerator::sibling(const arch::Input &base,
                        const std::shared_ptr<const Patches> &patches,
                        std::uint64_t id)
{
    arch::Input input;
    input.id = id;
    input.regs = base.regs;
    input.flagsByte = base.flagsByte;
    // Random everywhere, then the contract-relevant bytes restored: the
    // same draws as a fresh base sandbox, so the stream advances alike.
    input.sandbox = draw(base.sandbox.size(), patches, &base.sandbox);
    return input;
}

} // namespace amulet::core
